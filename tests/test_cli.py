"""End-to-end command tests driving cli.main with a small config."""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convexcell import (
    EARTH_RADIUS_M,
    BiasVector,
    NetworkConfig,
    estimate_rate_coverage,
)
from convexcell import cli, coverage, optimizer
from helpers import OVERFLOWING_TRACES, haversine_m

TINY_CONFIG = {
    "user_count": 40,
    "trials": 2,
    "macro_density": 2.0,
    "small_density": 8.0,
    "seed": 7,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture
def finished(monkeypatch):
    """Names of the sampling and reading calls that finished during a test."""
    calls = []

    def record(owner, name):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(name)
            return result

        monkeypatch.setattr(owner, name, recorded)

    record(coverage, "sample_deployment")
    record(cli, "read_trace_csv")
    return calls


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def run(argv):
    return cli.main(argv)


class TestSweepCommand:
    def test_writes_rows_for_every_scheme_and_point(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = run(
            [
                "sweep", "--config", config_path, "--out", str(out),
                "--convexity", "1.0", "3.04", "--grid-db", "0", "6", "12",
            ]
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 1 + 2 * 3
        schemes = {row[1] for row in rows[1:]}
        assert schemes == {"three-stage", "cre", "full"}
        for row in rows[1:]:
            assert 0.0 <= float(row[2]) <= 1.0
            assert row[9] in ("true", "false")
        meta = json.loads((out / "sweep_meta.json").read_text())
        assert meta["config_hash"]
        assert meta["seed"] == 7
        assert meta["convexity_values"] == [1.0, 3.04]

    def test_scheme_filter(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = run(
            [
                "sweep", "--config", config_path, "--out", str(out),
                "--convexity", "2.0", "--grid-db", "0", "6", "--scheme", "cre",
            ]
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert [row[1] for row in rows[1:]] == ["cre"]

    def test_refuses_overwrite_without_flag(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        argv = [
            "sweep", "--config", config_path, "--out", str(out),
            "--convexity", "2.0", "--grid-db", "0", "6",
        ]
        assert run(argv) == 0
        assert run(argv) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert run(argv + ["--overwrite"]) == 0

    def test_reruns_are_byte_identical(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = run(
                [
                    "sweep", "--config", config_path, "--out", str(out),
                    "--convexity", "1.5", "3.0", "--grid-db", "0", "6", "12",
                ]
            )
            assert code == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path, config_path):
        outputs = []
        for seed in ("7", "8"):
            out = tmp_path / f"seed{seed}"
            run(
                [
                    "sweep", "--config", config_path, "--out", str(out),
                    "--seed", seed, "--convexity", "2.0", "--grid-db", "0", "6",
                ]
            )
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] != outputs[1]


class TestBandwidthCommand:
    def test_feasible_volumes(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = run(
            [
                "bandwidth", "--config", config_path, "--out", str(out),
                "--volumes", "60", "120", "--grid-db", "0", "6", "12",
                "--wmin", "1e6", "--wmax", "1e8", "--tolerance", "1e5",
            ]
        )
        assert code == 0
        rows = read_rows(out / "bandwidth.csv")
        assert rows[0] == list(cli.BANDWIDTH_COLUMNS)
        assert len(rows) == 1 + 2 * 2  # three-stage and cre per volume
        for row in rows[1:]:
            width = float(row[2])
            assert 1e6 <= width <= 1e8
        meta = json.loads((out / "bandwidth_meta.json").read_text())
        assert meta["schemes"] == ["three-stage", "cre"]

    def test_tiny_demand_hits_floor(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = run(
            [
                "bandwidth", "--config", config_path, "--out", str(out),
                "--volumes", "0.5", "--grid-db", "0", "6",
                "--wmin", "1e6", "--wmax", "1e8",
            ]
        )
        assert code == 0
        rows = read_rows(out / "bandwidth.csv")
        assert [row[2] for row in rows[1:]] == ["1000000.0", "1000000.0"]

    def test_unsatisfiable_marks_row_and_fails(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "bandwidth", "--config", config_path, "--out", str(out),
                "--volumes", "1e6", "--grid-db", "0", "6",
                "--wmin", "1e6", "--wmax", "2e6",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        rows = read_rows(out / "bandwidth.csv")
        assert [row[2] for row in rows[1:]] == [cli.UNSATISFIABLE] * 2

    def test_samples_each_trial_once(self, tmp_path, config_path, monkeypatch):
        calls = []
        sample = coverage.sample_deployment
        monkeypatch.setattr(
            coverage, "sample_deployment", lambda *a: calls.append(a) or sample(*a)
        )
        code = run(
            [
                "bandwidth", "--config", config_path, "--out", str(tmp_path / "out"),
                "--volumes", "60", "120", "--grid-db", "0", "6",
            ]
        )
        assert code == 0
        assert len(calls) == TINY_CONFIG["trials"]  # 4 (volume, scheme) pairs

    def test_nan_tolerance_rejected(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "bandwidth", "--config", config_path, "--out", str(out),
                "--tolerance", "nan", "--grid-db", "0", "6",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "tolerance" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--tolerance", "0"], "tolerance must be > 0"),
            (["--wmin", "2e8"], "need 0 < w_min <= w_max"),
            (["--wmax", "nan"], "need 0 < w_min <= w_max"),
            (["--wmax", "inf"], "bandwidth must be finite"),
            (["--tolerance", "inf"], "tolerance must be > 0 and finite"),
        ],
        ids=[
            "zero-tolerance", "wmin-above-wmax", "nan-wmax", "inf-wmax",
            "inf-tolerance",
        ],
    )
    def test_bad_bracket_rejected_before_the_geometry_build(
        self, tmp_path, config_path, capsys, monkeypatch, option, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the geometry was built")

        monkeypatch.setattr(cli, "TrialGeometry", refuse)
        out = tmp_path / "out"
        code = run(["bandwidth", "--config", config_path, "--out", str(out), *option])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_every_binding_is_evaluated(self, tmp_path, config_path, monkeypatch):
        """Each bisection's first probe is the estimator run_bandwidth binds."""
        counts = {"binds": 0, "probes": 0}
        bind = coverage.CoverageEstimator._bind
        probe = optimizer.run_scheme

        def counted_bind(*args):
            counts["binds"] += 1
            return bind(*args)

        def counted_probe(*args):
            counts["probes"] += 1
            return probe(*args)

        monkeypatch.setattr(coverage.CoverageEstimator, "_bind", counted_bind)
        monkeypatch.setattr(optimizer, "run_scheme", counted_probe)
        code = run(
            [
                "bandwidth", "--config", config_path, "--out", str(tmp_path / "out"),
                "--volumes", "60", "3000", "--grid-db", "0", "6",
            ]
        )
        assert code == 0
        # 60 MB/day is feasible at --wmin; 3000 MB/day bisects below the top
        assert counts["probes"] > 2 * 2 * 2
        assert counts["binds"] == counts["probes"]


@pytest.mark.parametrize("command", ["sweep", "bandwidth"])
def test_overflowing_grid_db_rejected(tmp_path, config_path, capsys, command):
    out = tmp_path / "out"
    code = run(
        [command, "--config", config_path, "--out", str(out), "--grid-db", "0", "4000"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "4000" in err


@pytest.mark.parametrize("command", ["sweep", "bandwidth"])
def test_non_finite_grid_db_rejected_before_sampling(
    tmp_path, config_path, capsys, finished, command
):
    """NaN passes every order check, so finiteness is checked on its own."""
    out = tmp_path / "out"
    code = run(
        [command, "--config", config_path, "--out", str(out),
         "--grid-db", "0", "2", "nan", "4"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "bias grid" in err and "finite" in err
    assert not out.exists()
    assert finished == []


def test_non_finite_grid_db_error_shows_the_db_values(tmp_path, config_path, capsys):
    """The error quotes the dB values given, not their linear factors."""
    out = tmp_path / "out"
    code = run(
        ["sweep", "--config", config_path, "--out", str(out), "--grid-db", "0", "nan"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: bias grid dB values must be finite, got (0.0, nan)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--convexity", "2.0", "--grid-db", "0", "6"],
        ["bandwidth", "--grid-db", "0", "6"],
        ["evaluate", "--bias", "0", "0", "0"],
    ],
    ids=["sweep", "bandwidth", "evaluate"],
)
@pytest.mark.parametrize(
    "message, expected",
    [
        ("Unable to allocate 1 TiB", "error: out of memory: Unable to allocate 1 TiB\n"),
        ("", "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_is_one_line_and_writes_nothing(
    tmp_path, config_path, capsys, monkeypatch, argv, message, expected
):
    """A geometry too large for memory fails like any other bad input."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    # each command builds its geometry through one of these names
    for module in (cli, coverage, optimizer):
        monkeypatch.setattr(module, "TrialGeometry", out_of_memory)
    out = tmp_path / "out"
    command, *options = argv
    code = run([command, "--config", config_path, "--out", str(out), *options])
    assert code == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--total-volume", "nan"],
        ["sweep", "--convexity", "1", "-2"],
        ["bandwidth", "--stationary-share", "2"],
        ["analyze", "--trace", "DIR"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "DIR"],
        ["evaluate", "--bias", "0", "0", "0", "--out", "FILE"],
        ["sweep", "--out", "FILE"],
        ["bandwidth", "--out", "FILE"],
        ["analyze", "--trace", "TRACE", "--out", "FILE"],
        ["analyze", "--trace", "TRACE", "--out", "UNDER_FILE"],
        ["analyze", "--trace", "TRACE", "--stationary-cutoff", "nan"],
        ["analyze", "--trace", "TRACE", "--stationary-cutoff", "50"],
        ["sweep", "--config", "HUGE_AREA"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_LOSS"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_NOISE"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_DENSITY"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_PEAK"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_VOLUME"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_EXPONENT"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "LARGE_EXPONENT"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "FAR_SPARSE"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "FAR_WINDOW"],
        ["sweep", "--convexity", "1", "--total-volume", "1e307", "--trials", "2",
         "--scheme", "cre"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "TINY_LOSS"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "TINY_SMALL_POWER"],
        ["evaluate", "--bias", "0", "0", "0", "--trials", str(10**30)],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_USER_COUNT"],
        ["evaluate", "--bias", "0", "0", "0", "--config", "HUGE_CROSSING"],
    ],
    ids=[
        "sweep-nan-volume", "sweep-negative-convexity", "bandwidth-share-above-1",
        "trace-is-a-dir", "config-is-a-dir", "out-is-a-file", "sweep-out-is-a-file",
        "bandwidth-out-is-a-file", "analyze-out-is-a-file", "out-is-under-a-file",
        "nan-cutoff", "cutoff-above-walking", "area-overflows", "received-power-overflows",
        "noise-overflows", "density-beyond-poisson", "peak-rate-overflows",
        "volume-rate-overflows", "huge-exponent-underflows",
        "large-exponent-underflows", "sparse-window-underflows",
        "far-window-underflows", "sweep-rate-overflows", "tiny-loss-underflows",
        "tiny-small-power-underflows", "trials-beyond-maxsize",
        "user-count-beyond-maxsize", "crossing-rate-overflows",
    ],
)
def test_failed_command_is_one_line_and_writes_nothing(
    tmp_path, config_path, capsys, finished, argv
):
    out = tmp_path / "out"
    existing = tmp_path / "existing.txt"
    existing.write_text("")
    trace = tmp_path / "trace.csv"
    write_day_trace(trace, (88.58, 14.00, 42.48))
    places = {
        "DIR": tmp_path, "FILE": existing, "UNDER_FILE": existing / "sub", "TRACE": trace
    }
    # values that pass every range check but overflow a derived quantity,
    # or underflow every mean power; the error names the first field given
    overflows = {
        "HUGE_AREA": {"area_side": 1e200},
        "HUGE_LOSS": {"reference_loss": 1e308},
        "HUGE_NOISE": {"noise_power": 1e300, "bandwidth": 1e10, "trials": 2},
        "HUGE_DENSITY": {"macro_density": 1e300, "trials": 1},
        "HUGE_PEAK": {"demand_peak_factor": 1e308, "trials": 2},
        "HUGE_VOLUME": {"profiles": {"vehicular": {"traffic_volume": 1e305}}, "trials": 2},
        "HUGE_EXPONENT": {"path_loss_exponent": 1e300, "trials": 2},
        "LARGE_EXPONENT": {"path_loss_exponent": 120, "trials": 2},
        "FAR_SPARSE": {
            "area_side": 1e120, "macro_density": 1e-230, "small_density": 0,
            "user_count": 50, "trials": 2,
        },
        "FAR_WINDOW": {
            "area_side": 1e155, "macro_density": 1e-304, "small_density": 0,
            "user_count": 50, "trials": 2,
        },
        "TINY_LOSS": {"reference_loss": 1e-300},
        "TINY_SMALL_POWER": {"small_power": 1e-300},
        # counts beyond the largest range length or array dimension
        "HUGE_USER_COUNT": {"user_count": 10**30, "trials": 1},
        # refused even when a crossing costs nothing: inf * 0 zeroed the
        # vehicular coverage
        "HUGE_CROSSING": {
            "crossing_coefficient": 1e308, "handover_delay": 0,
            "profiles": {"vehicular": {"velocity": 1e308}}, "trials": 2,
        },
    }
    underflows = {
        "HUGE_EXPONENT", "LARGE_EXPONENT", "FAR_SPARSE", "FAR_WINDOW", "TINY_LOSS",
        "TINY_SMALL_POWER",
    }
    for name, values in overflows.items():
        places[name] = tmp_path / f"{name}.json"
        places[name].write_text(json.dumps({**TINY_CONFIG, **values}))
    command, *options = [str(places.get(a, a)) for a in argv]
    # a later --config or --out replaces the defaults given first
    code = run([command, "--config", config_path, "--out", str(out), *options])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for name in set(argv) & set(overflows):
        assert next(iter(overflows[name])) in err
    if set(argv) & underflows:
        assert "the mean power across the window's diagonal" in err
    assert not out.exists()
    assert finished == []


@pytest.mark.parametrize(
    "config",
    [
        {
            "area_side": 1.5e154,
            "path_loss_exponent": 2.0000001,
            "macro_density": 1e-302,
            "small_density": 0,
            "user_count": 50,
            "trials": 2,
        },
        {"reference_loss": 4.4e306, "trials": 200},
    ],
    ids=["distance-overflows", "faded-power-overflows"],
)
def test_geometry_overflow_is_one_line_and_writes_nothing(tmp_path, capsys, config):
    """Values that pass validation but overflow a trial's link arithmetic."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(
            ["evaluate", "--bias", "0", "0", "0", "--config", str(path), "--out", str(out)]
        )
    assert code == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for name in ("area_side", "macro_power", "reference_loss"):
        assert name in err
    assert not out.exists()


# every real config and profile field, each drawn over the whole float range
# (NaN, infinities, subnormals and both signs included) or as an integer of
# any size, as JSON allows
GUARD_FIELDS = [
    *(name for name, value in NetworkConfig().to_dict().items()
      if name != "profiles" and isinstance(value, float)),
    *(("profiles", label, name)
      for label, profile in NetworkConfig().to_dict()["profiles"].items()
      for name in profile),
]
GUARD_STATIONS = 500  # largest mean station count of a drawn window


@settings(max_examples=250)
@given(
    st.dictionaries(
        st.sampled_from(GUARD_FIELDS), st.floats() | st.integers(),
        min_size=1, max_size=3,
    )
)
# an integer power beyond int64 once reached numpy as an object array
@example({"macro_power": 10**20, "small_power": 1, "reference_loss": 1e-30})
@example({"macro_power": 10**21, "small_power": 10**20, "reference_loss": 1e-30})
def test_any_drawn_config_runs_clean_or_is_refused_in_one_line(drawn):
    """Property guard over the derived quantities the simulator computes.

    Whatever 1-3 fields are drawn, a command either exits 0 with finite
    outputs and no warning, or exits 1 with one ``error:`` line and no
    output directory. ``bandwidth`` has one more documented ending: a
    scheme infeasible at ``--wmax`` gets its own ``error:`` line and an
    ``unsatisfiable`` row, and the command exits 1 after writing its table.
    """
    data = {**TINY_CONFIG, "trials": 1}
    for key, value in drawn.items():
        if isinstance(key, tuple):
            _, label, name = key
            data.setdefault("profiles", {}).setdefault(label, {})[name] = value
        else:
            data[key] = value
    try:
        config = NetworkConfig.from_dict(data)
    except ValueError:
        config = None
    if config is not None:  # keep the geometry small
        assume(
            (config.macro_density + config.small_density) * config.area_km2
            <= GUARD_STATIONS
        )
    commands = {"evaluate": ["--bias", "0", "0", "0"], "bandwidth": ["--grid-db", "0", "6"]}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "config.json")
        path.write_text(json.dumps(data))
        for command, options in commands.items():
            out = Path(scratch, command)
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = run([command, "--config", str(path), "--out", str(out), *options])
            assert [str(w.message) for w in caught] == []
            lines = err.getvalue().splitlines()
            assert all(line.startswith("error: ") for line in lines)
            if not out.exists():
                assert code == 1 and len(lines) == 1
                continue
            assert config is not None
            if command == "evaluate":
                assert code == 0 and lines == []
                report = json.loads((out / "evaluate_report.json").read_text())
                values = [report["average_coverage"], *report["per_class_coverage"].values()]
            else:
                widths = [row[2] for row in read_rows(out / "bandwidth.csv")[1:]]
                values = [w for w in widths if w != cli.UNSATISFIABLE]
                unsatisfiable = len(widths) - len(values)
                assert code == (1 if unsatisfiable else 0)
                assert len(lines) == unsatisfiable
                assert all("infeasible even at" in line for line in lines)
            assert all(math.isfinite(float(v)) for v in values)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["analyze", "--trace", "TRACE"], "segments.csv"),
        (["evaluate", "--bias", "0", "0", "0"], "evaluate_report.json"),
    ],
    ids=["analyze", "evaluate"],
)
def test_output_name_that_is_a_directory_is_refused(
    tmp_path, config_path, capsys, finished, argv, name
):
    """--overwrite replaces files, but a directory is refused before any work."""
    out = tmp_path / "o1"
    (out / name).mkdir(parents=True)
    trace = tmp_path / "trace.csv"
    write_day_trace(trace, (88.58, 14.00, 42.48))
    command, *options = [str(trace) if a == "TRACE" else a for a in argv]
    code = run(
        [command, "--config", config_path, "--out", str(out), "--overwrite", *options]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "is a directory" in err
    assert [p.name for p in out.iterdir()] == [name]
    assert finished == []


# what each command computes, next to its arguments and resolved config
DERIVED_META_KEYS = {
    "sweep": {"config", "config_hash", "seed", "schemes"},
    "bandwidth": {"config", "config_hash", "seed", "schemes"},
    "analyze": {"skipped_rows"},
    "evaluate": {
        "config", "config_hash", "seed", "bias_linear", "per_class_coverage",
        "average_coverage", "feasible", "trials_used",
    },
}


@pytest.mark.parametrize(
    "argv, meta, manifest, arguments",
    [
        (
            ["sweep", "--convexity", "2.0", "--grid-db", "0", "6", "--scheme", "cre",
             "--seed", "3", "--trials", "1", "--overwrite"],
            "sweep_meta.json",
            {"seed": 3, "scheme": "cre", "trials": 1, "overwrite": True},
            {
                "convexity_values": [2.0],
                "total_volume": 145.05,
                "stationary_share": 0.6107,
                "grid_db": [0.0, 6.0],
            },
        ),
        (
            ["bandwidth", "--volumes", "0.5", "--grid-db", "0", "6"],
            "bandwidth_meta.json",
            {},
            {
                "volumes": [0.5],
                "stationary_share": 0.6107,
                "convexity": 3.04,
                "w_min": 1e6,
                "w_max": 1e8,
                "tolerance": 1e5,
                "grid_db": [0.0, 6.0],
            },
        ),
        (
            ["analyze", "--trace", "TRACE", "--strict"],
            "analyze_meta.json",
            {"strict": True},
            {"trace": "TRACE", "stationary_cutoff": 0.5},
        ),
        (
            ["evaluate", "--bias", "0", "0", "0", "--trials", "1"],
            "evaluate_report.json",
            {"trials": 1},
            {"bias_db": [0.0, 0.0, 0.0]},
        ),
    ],
    ids=["sweep", "bandwidth", "analyze", "evaluate"],
)
def test_meta_manifest_records_the_invocation(
    tmp_path, config_path, argv, meta, manifest, arguments
):
    """Every command writes the same eight manifest keys, all as given, and
    each of its other arguments at the top level."""
    out = tmp_path / "out"
    trace = tmp_path / "trace.csv"
    write_day_trace(trace, (88.58, 14.00, 42.48))
    command, *options = [str(trace) if a == "TRACE" else a for a in argv]
    assert run([command, "--config", config_path, "--out", str(out), *options]) == 0
    payload = json.loads((out / meta).read_text())
    assert payload["manifest"] == {
        "command": command,
        "config_path": config_path,
        "output_dir": str(out),
        "seed": None,
        "scheme": None,
        "trials": None,
        "overwrite": False,
        "strict": False,
        **manifest,
    }
    arguments = {k: str(trace) if v == "TRACE" else v for k, v in arguments.items()}
    assert {key: payload[key] for key in arguments} == arguments
    assert set(payload) == {"manifest", *arguments, *DERIVED_META_KEYS[command]}


def lat_step(meters):
    return meters / EARTH_RADIUS_M * 180.0 / math.pi


def write_day_trace(path, volumes_mb):
    """One user, one observed day with the given per-state MB volumes."""
    stationary, walking, vehicular = volumes_mb
    lat_walk = lat_step(215.0)
    lat_veh = lat_walk + lat_step(2658.3333333)
    rows = [
        "user_id,timestamp,lat,lon,rx_bytes",
        "u1,2015-06-01T00:00:00Z,0.0,0.0,0",
        f"u1,2015-06-01T00:05:00Z,0.0,0.0,{stationary * 1e6!r}",
        f"u1,2015-06-01T00:10:00Z,{lat_walk!r},0.0,{walking * 1e6!r}",
        f"u1,2015-06-01T00:15:00Z,{lat_veh!r},0.0,{vehicular * 1e6!r}",
        f"u1,2015-06-02T00:00:00Z,{lat_veh!r},0.0,0",
    ]
    path.write_text("\n".join(rows) + "\n")


class TestAnalyzeCommand:
    def test_recovers_convexity_from_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        write_day_trace(trace, (88.58, 14.00, 42.48))
        out = tmp_path / "out"
        code = run(["analyze", "--trace", str(trace), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "convexity_report.json").read_text())
        assert report["user_convexity"] == pytest.approx(3.0342857, abs=1e-4)
        assert report["total_volume_mb_per_day"] == pytest.approx(145.06, abs=1e-6)
        assert report["user_count"] == 1
        segments = read_rows(out / "segments.csv")
        assert len(segments) == 1 + 4
        states = [row[3] for row in segments[1:]]
        assert states == ["stationary", "walking", "vehicular", "stationary"]

    def test_outputs_reproducible(self, tmp_path):
        trace = tmp_path / "trace.csv"
        write_day_trace(trace, (40.63, 2.09, 4.93))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["analyze", "--trace", str(trace), "--out", str(out)]) == 0
            blobs.append(
                (out / "convexity_report.json").read_bytes()
                + (out / "segments.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("case", OVERFLOWING_TRACES)
    def test_non_finite_volume_is_one_line_and_writes_nothing(
        self, tmp_path, capsys, case
    ):
        """JSON has no infinity, so an overflowing volume or convexity is refused."""
        rows, name = OVERFLOWING_TRACES[case]
        trace = tmp_path / "trace.csv"
        trace.write_text("user_id,timestamp,lat,lon,rx_bytes\n" + "".join(rows))
        out = tmp_path / "out"
        code = run(["analyze", "--trace", str(trace), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    def test_header_only_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("user_id,timestamp,lat,lon,rx_bytes\n")
        out = tmp_path / "out"
        code = run(["analyze", "--trace", str(trace), "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_strict_flag_aborts_on_bad_rows(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        lat_walk = lat_step(215.0)
        lat_veh = lat_walk + lat_step(2658.3333333)
        trace.write_text(
            "user_id,timestamp,lat,lon,rx_bytes\n"
            "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n"
            "u1,bogus,0.0,0.0,5\n"
            "u1,2015-06-01T00:05:00Z,0.0,0.0,5\n"
            f"u1,2015-06-01T00:10:00Z,{lat_walk!r},0.0,5\n"
            f"u1,2015-06-01T00:15:00Z,{lat_veh!r},0.0,5\n"
        )
        out = tmp_path / "out"
        assert run(["analyze", "--trace", str(trace), "--out", str(out),
                    "--strict"]) == 1
        assert "malformed" in capsys.readouterr().err
        out2 = tmp_path / "out2"
        assert run(["analyze", "--trace", str(trace), "--out", str(out2)]) == 0
        meta = json.loads((out2 / "analyze_meta.json").read_text())
        assert [entry["line"] for entry in meta["skipped_rows"]] == [3]

    def test_all_stationary_reports_but_fails(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "user_id,timestamp,lat,lon,rx_bytes\n"
            "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n"
            "u1,2015-06-02T00:00:00Z,0.0,0.0,1000000\n"
        )
        out = tmp_path / "out"
        code = run(["analyze", "--trace", str(trace), "--out", str(out)])
        assert code == 1
        assert "undefined" in capsys.readouterr().err
        report = json.loads((out / "convexity_report.json").read_text())
        assert report["user_convexity"] is None
        assert report["per_state_volume_mb_per_day"]["stationary"] == pytest.approx(1.0)

    def test_near_antipodal_pair(self, tmp_path):
        """Rounding puts the haversine term of u's pair just above 1.

        A walking user w keeps the convexity defined, so the run exits 0.
        """
        lat0, lon0 = 46.16290411904106, -25.807675899365506
        lat1, lon1 = -46.16290411904006, 154.1923241006345
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "user_id,timestamp,lat,lon,rx_bytes\n"
            f"u,2015-06-01T00:00:00Z,{lat0!r},{lon0!r},0\n"
            f"u,2015-06-01T12:00:00Z,{lat1!r},{lon1!r},5\n"
            "w,2015-06-01T00:00:00Z,0.0,0.0,0\n"
            f"w,2015-06-01T00:05:00Z,{lat_step(215.0)!r},0.0,5\n"
        )
        out = tmp_path / "out"
        assert run(["analyze", "--trace", str(trace), "--out", str(out)]) == 0
        segments = read_rows(out / "segments.csv")
        assert [row[0] for row in segments[1:]] == ["u", "w"]
        meters = haversine_m(lat0, lon0, lat1, lon1)
        assert meters == math.pi * EARTH_RADIUS_M
        assert float(segments[1][4]) == (meters / 1000.0) / 12.0

    def test_missing_trace_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = str(tmp_path / "nope.csv")
        code = run(["analyze", "--trace", missing, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestEvaluateCommand:
    def test_matches_library_estimate(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = run(
            [
                "evaluate", "--config", config_path, "--out", str(out),
                "--bias", "0", "3", "6",
            ]
        )
        assert code == 0
        payload = json.loads((out / "evaluate_report.json").read_text())
        config = NetworkConfig.from_dict(TINY_CONFIG)
        expected = estimate_rate_coverage(config, BiasVector.from_db(0.0, 3.0, 6.0))
        assert payload["average_coverage"] == expected.average_coverage
        assert payload["per_class_coverage"]["vehicular"] == (
            expected.per_class_coverage[2]
        )
        assert payload["feasible"] == expected.feasible
        assert payload["trials_used"] == 2
        assert payload["bias_linear"][0] == 1.0

    def test_negative_bias_rejected(self, tmp_path, config_path, capsys):
        code = run(
            [
                "evaluate", "--config", config_path,
                "--out", str(tmp_path / "out"), "--bias", "0", "-3", "0",
            ]
        )
        assert code == 1
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bias", [("nan", "0", "0"), ("0", "inf", "0")])
    def test_non_finite_bias_rejected(self, tmp_path, config_path, capsys, bias):
        out = tmp_path / "out"
        code = run(
            ["evaluate", "--config", config_path, "--out", str(out), "--bias", *bias]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err
        assert not (out / "evaluate_report.json").exists()

    def test_overflowing_bias_rejected(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "evaluate", "--config", config_path, "--out", str(out),
                "--bias", "4000", "0", "0",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "4000" in err
        assert not (out / "evaluate_report.json").exists()

    def test_seed_changes_coverage(self, tmp_path, config_path):
        averages = []
        for seed in ("11", "12"):
            out = tmp_path / f"s{seed}"
            run(
                [
                    "evaluate", "--config", config_path, "--out", str(out),
                    "--seed", seed, "--bias", "0", "0", "0",
                ]
            )
            payload = json.loads((out / "evaluate_report.json").read_text())
            averages.append(payload["average_coverage"])
        assert averages[0] != averages[1]


class TestConfigHandling:
    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"user_count": 40, "bogus_knob": 3}))
        code = run(
            ["evaluate", "--config", str(path), "--out", str(tmp_path / "out"),
             "--bias", "0", "0", "0"]
        )
        assert code == 1
        assert "bogus_knob" in capsys.readouterr().err

    def test_mistyped_config_value_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"area_side": "abc"}))
        code = run(
            ["evaluate", "--config", str(path), "--out", str(tmp_path / "out"),
             "--bias", "0", "0", "0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: area_side") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["evaluate", "--bias", "0", "0", "0"], ["sweep"]]
    )
    def test_empty_class_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"user_count": 5, "trials": 1}))
        code = run([*command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: class walking") and err.count("\n") == 1

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code = run(
            ["evaluate", "--config", str(path), "--out", str(tmp_path / "out"),
             "--bias", "0", "0", "0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_defaults_used_without_config(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["evaluate", "--out", str(out), "--trials", "1", "--bias",
             "0", "0", "0"]
        )
        assert code == 0
        payload = json.loads((out / "evaluate_report.json").read_text())
        assert payload["config"]["user_count"] == 500
        assert payload["trials_used"] == 1
