"""The benchmark's recorded digests and the tracer's spans of the package."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from convexcell import cli

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_has_the_traced_seed():
    """CI traces each workload only at seed 42, so each must have its digests."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert [w for w in workloads if "42" not in recorded.get(w, {})] == []


TRACE_ROWS = (
    "user_id,timestamp,lat,lon,rx_bytes\n"
    "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n"
    "u1,2015-06-01T00:05:00Z,0.0,0.0,1e6\n"
    "u1,2015-06-01T00:10:00Z,0.002,0.0,1e6\n"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["evaluate", "--bias", "0", "0", "0", "--trials", "2"],
            {"coverage.estimate_rate_coverage": 1, "model.sample_deployment": 2,
             "coverage.build": 1},
        ),
        (
            ["sweep", "--convexity", "1", "3.04", "--trials", "2", "--grid-db", "0", "6"],
            {"optimizer.convexity_sweep": 1, "model.sample_deployment": 2,
             "coverage.build": 2},
        ),
        (
            ["analyze", "--trace", "{trace}"],
            {"traces.read_trace_csv": 1, "traces.analyze_trace": 1,
             "traces.build_segments": 1, "model.sample_deployment": 0},
        ),
    ],
    ids=["evaluate", "sweep", "analyze"],
)
def test_tracer_records_every_layer(tmp_path, argv, expected):
    """The names the tracer wraps are the ones the commands call.

    A command, a sampled trial or an estimator build that no longer goes
    through the wrapped name (say, a lazily bound name that replaced the
    tracer's wrapper) would leave its spans out of the benchmark's metrics.
    """
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_ROWS)
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "x"]
    command += [arg.format(trace=trace) for arg in argv]
    command += ["--out", str(tmp_path / "out")]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names = Counter(span[0] for span in json.loads(spans_path.read_text())["spans"])
    assert {name: names[name] for name in expected} == expected


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py as a module, imported without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(ROOT / "perfbench"))
        patch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["sweep-3pt", "bandwidth-default", "evaluate-wide"])
def test_outputs_match_the_recorded_digests(bench_run, tmp_path, monkeypatch, workload):
    """The simulator workloads' outputs at seed 42, byte for byte as recorded.

    The benchmark's own inputs and arguments, run in process from a
    temporary directory that stands in for the checkout: the metadata
    records the config's relative path, .bench_work/evaluate-wide/config.json.
    """
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    monkeypatch.setattr(bench_run, "WORK", tmp_path / ".bench_work")
    monkeypatch.chdir(tmp_path)
    case = bench_run.prepare(workload, 42, tiny=False)
    out = case.work / "out-0"
    assert cli.main([*case.argv, "--out", bench_run._rel(out)]) == 0
    expected = bench_run.recorded_digests(case)
    assert expected is not None
    assert bench_run.digests(out) == expected
