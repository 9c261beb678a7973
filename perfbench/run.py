"""End-to-end and per-module benchmark of the convexcell command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The program is imported from ``src/`` of the checkout. Each repeat runs one
CLI command in a fresh interpreter with a fresh empty output directory under
``.bench_work/``, so no cache carries over between repeats; repeats start
until ``--seconds`` have passed (at least one). Inputs (config seed, trace)
come from ``--seed``, and every output is checked:

* byte for byte against ``digests.json`` when the seed is recorded there
  (JSON files with ``manifest.output_dir`` removed, since it names the
  output directory);
* against invariants for any seed (row counts, value ranges, full search
  at least as good as every feasible scheme, three-stage bandwidth <= CRE
  bandwidth) and, for the trace, against the generator's own ground truth;
* for equality between repeats.

Three-stage infeasibility at a sweep point is printed as a note, not
failed: the greedy heuristic misses at some seeds (seed 10, C=8) where
full search finds a feasible bias, which is the algorithm as specified.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (spawn to exit of
one command), ``setup_s`` (cold start until ``convexcell.cli`` is imported
and the config resolved, median of several fresh interpreters) and
``peak_rss_mb`` (the command's own peak RSS, from ``os.wait4``). Failed
invocations (nonzero exit, a traceback, or a failed output check) are
printed as ``failed_ratio`` and carried by ``failed``/``attempted``.
``--trace 1`` runs the command untraced and under ``tracer.py`` in
alternating pairs, and reports per-module metrics from the spans (median
over the traced runs) plus the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracegen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
DIGESTS_PATH = BENCH_DIR / "digests.json"

DEFAULT_SEED = 42
COLD_STARTS = 9
CHILD_TIMEOUT_S = 150.0
SCHEMES = ("three-stage", "cre", "full")
SCHEME_SPANS = tuple(f"optimizer.{scheme}" for scheme in SCHEMES)
MB = 1e6

WORKLOADS = ("sweep-3pt", "bandwidth-default", "trace-200k", "evaluate-wide")
# Estimator builds each command makes today; a different count means a layer
# stopped recording or the command changed shape.
EXPECTED_BUILDS = {"sweep-3pt": 3, "bandwidth-default": 4, "trace-200k": 0, "evaluate-wide": 1}
EXPECTED_PROBES = {"bandwidth-default": 48}
# Per-module metrics a workload must record as nonzero.
MUST_RECORD = {
    "sweep-3pt": (
        "model.sample_deployment.calls", "model.mean_power_matrix.calls",
        "coverage.evaluate.calls", "optimizer.three-stage.s", "optimizer.cre.s",
        "optimizer.full.s",
    ),
    "bandwidth-default": (
        "model.sample_deployment.calls", "model.mean_power_matrix.calls",
        "coverage.evaluate.calls", "coverage.rebinds", "optimizer.three-stage.s",
        "optimizer.cre.s", "optimizer.required_bandwidth.s",
    ),
    "trace-200k": (
        "traces.read_trace_csv.s", "traces.analyze_trace.s",
        "traces.build_segments.calls", "traces.aggregate_user.s",
    ),
    "evaluate-wide": (
        "model.sample_deployment.calls", "model.mean_power_matrix.calls",
        "coverage.evaluate.calls",
    ),
}

# Units of the per-module metrics; every other one is a time in seconds.
LAYER_UNITS = {
    "model.link_matrix_mb": "MB",
    "coverage.evaluate.hit_ratio": "ratio",
    "coverage.evaluate.us_per_uncached": "us",
    "traces.rows_per_s": "1/s",
    **dict.fromkeys(
        (
            "model.sample_deployment.calls", "model.mean_power_matrix.calls",
            "coverage.builds", "coverage.evaluate.calls", "coverage.evaluate.uncached",
            "coverage.rebinds", "optimizer.run_scheme.calls", "optimizer.bisection.probes",
            "traces.rows", "traces.skipped_rows", "traces.build_segments.calls",
        ),
        "count",
    ),
}

RUN_CLI = "import sys; from convexcell.cli import main; sys.exit(main())"
# Cold start: import the CLI and resolve the config as the command would,
# stopping before any call into a compute layer.
COLD_START = """
import json, sys
from convexcell import cli
from convexcell.model import NetworkConfig
args = cli.build_parser().parse_args(sys.argv[1:])
data = {}
if args.config is not None:
    with open(args.config, encoding="utf-8") as handle:
        data = json.load(handle)
for name in ("seed", "trials"):
    if getattr(args, name) is not None:
        data[name] = getattr(args, name)
NetworkConfig.from_dict(data)
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Case:
    """Inputs of one workload run and what its outputs must satisfy."""

    workload: str
    seed: int
    tiny: bool
    work: Path
    argv: list[str]
    trials: int
    truth: dict | None = None
    verdicts: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)  # heuristic misses, not errors


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    problems: list[str]


# ---------------------------------------------------------------- inputs


def prepare(workload: str, seed: int, tiny: bool) -> Case:
    """Generate the inputs of one run from its seed into a fresh work dir."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trials = 2 if tiny else 200
    case = Case(workload, seed, tiny, work, [], trials)
    tiny_trials = ["--trials", "2"] if tiny else []
    if workload == "sweep-3pt":
        case.argv = ["sweep", "--convexity", "1", "3.04", "8", "--seed", str(seed), *tiny_trials]
    elif workload == "bandwidth-default":
        case.argv = ["bandwidth", "--seed", str(seed), *tiny_trials]
    elif workload == "trace-200k":
        trace = work / "trace.csv"
        users, samples = (20, 100) if tiny else (200, 1000)
        case.truth = tracegen.generate(trace, seed, users, samples)
        case.argv = ["analyze", "--trace", _rel(trace)]
    elif workload == "evaluate-wide":
        case.trials = 2 if tiny else 20
        config = work / "config.json"
        config.write_text(
            json.dumps({"area_side": 4000, "user_count": 4000, "trials": case.trials})
        )
        case.argv = [
            "evaluate", "--bias", "12", "6", "0", "--config", _rel(config),
            "--seed", str(seed),
        ]
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return case


def _rel(path: Path) -> str:
    # relative paths keep the bytes of *_meta.json independent of the checkout
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------- processes


def _child_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def spawn(cmd: list[str], work: Path) -> tuple[float, float, int, str]:
    """Run cmd from the checkout root; (wall s, peak RSS MB, exit code, stderr).

    The peak RSS is the child's own, from os.wait4, not RUSAGE_CHILDREN,
    which keeps the largest peak of every child so far.
    """
    with tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode, stderr


def invoke(case: Case, index: int, traced: bool) -> tuple[Outcome, dict | None]:
    """One command in a fresh interpreter and output dir, checked; spans if traced."""
    out = case.work / f"out-{index}"
    argv = [*case.argv, "--out", _rel(out)]
    spans_path = case.work / f"spans-{index}.json"
    if traced:
        run_id = f"{case.workload}/{case.seed}/{index}"
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), run_id, *argv]
    else:
        cmd = [sys.executable, "-c", RUN_CLI, *argv]
    wall, rss, code, stderr = spawn(cmd, case.work)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-400:]}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if not problems:
        problems += check_outputs(case, out)
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    shutil.rmtree(out, ignore_errors=True)
    return Outcome(wall, rss, problems), spans


def repeat(budget_s: float, once) -> list:
    """Call once(i) for i = 0, 1, ... until budget_s has passed; at least once."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < budget_s:
        results.append(once(len(results)))
    return results


def cold_starts(case: Case) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and resolve the config."""
    cmd = [sys.executable, "-c", COLD_START, *case.argv]
    walls = []
    for index in range(COLD_STARTS + 1):  # the first one warms the file cache
        wall, _, code, stderr = spawn(cmd, case.work)
        if code != 0:
            raise BenchError(f"cold start failed: {stderr.strip()[-400:]}")
        if index:
            walls.append(wall)
    return walls


# ---------------------------------------------------------------- output checks


def digests(out: Path) -> dict[str, str]:
    """sha256 of each output; JSON without manifest.output_dir, which names the dir."""
    result = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.get("manifest", {}).pop("output_dir", None)
            data = json.dumps(doc, sort_keys=True).encode()
        result[path.name] = hashlib.sha256(data).hexdigest()
    return result


def recorded_digests(case: Case) -> dict | None:
    if case.tiny or not DIGESTS_PATH.exists():
        return None
    table = json.loads(DIGESTS_PATH.read_text())
    return table.get(case.workload, {}).get(str(case.seed))


def check_outputs(case: Case, out: Path) -> list[str]:
    """Problems with one invocation's outputs; outputs seen before reuse their verdict."""
    try:
        found = digests(out)
    except (OSError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    key = tuple(sorted(found.items()))
    if key not in case.verdicts:
        problems = []
        expected = recorded_digests(case)
        if expected is not None and expected != found:
            changed = sorted(n for n in set(expected) | set(found) if expected.get(n) != found.get(n))
            problems.append(f"outputs differ from recorded digests: {', '.join(changed)}")
        try:
            problems += INVARIANTS[case.workload](case, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed outputs: {exc!r}")
        case.verdicts[key] = problems
    problems = list(case.verdicts[key])
    if len(case.verdicts) > 1:
        problems.append("outputs differ between repeats")
    return problems


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _unit_interval(value: float) -> bool:
    return 0.0 <= value <= 1.0


def check_sweep(case: Case, out: Path) -> list[str]:
    rows = _csv_rows(out / "sweep.csv")
    problems = []
    if len(rows) != 9:
        problems.append(f"sweep.csv has {len(rows)} rows, expected 9")
    points: dict[float, dict[str, dict]] = {}
    for row in rows:
        points.setdefault(float(row["convexity"]), {})[row["scheme"]] = row
        coverages = ("avg_coverage", "cov_stationary", "cov_walking", "cov_vehicular")
        if not all(_unit_interval(float(row[c])) for c in coverages):
            problems.append(f"coverage outside [0, 1]: {row}")
    if sorted(points) != [1.0, 3.04, 8.0]:
        problems.append(f"sweep.csv convexity points {sorted(points)}")
    for convexity, by_scheme in points.items():
        if sorted(by_scheme) != sorted(SCHEMES):
            problems.append(f"C={convexity}: schemes {sorted(by_scheme)}")
            continue
        if by_scheme["three-stage"]["feasible"] != "true":
            case.notes.append(f"C={convexity}: three-stage infeasible")
        full = by_scheme["full"]
        for scheme, row in by_scheme.items():
            if row["feasible"] == "true" and (
                full["feasible"] != "true"
                or float(full["avg_coverage"]) < float(row["avg_coverage"])
            ):
                problems.append(f"C={convexity}: full search worse than feasible {scheme}")
    return problems


def check_bandwidth(case: Case, out: Path) -> list[str]:
    rows = _csv_rows(out / "bandwidth.csv")
    widths = {(float(r["total_volume"]), r["scheme"]): r["required_bandwidth_hz"] for r in rows}
    expected = {(v, s) for v in (145.05, 290.1) for s in ("three-stage", "cre")}
    if len(rows) != 4 or set(widths) != expected:
        return [f"bandwidth.csv rows {sorted(widths)}"]
    problems = []
    for volume in (145.05, 290.1):
        three, cre = float(widths[volume, "three-stage"]), float(widths[volume, "cre"])
        if not (1e6 <= three <= 1e8 and 1e6 <= cre <= 1e8):
            problems.append(f"volume {volume}: bandwidth outside [1, 100] MHz")
        if three > cre:
            problems.append(f"volume {volume}: three-stage needs {three} Hz > CRE {cre} Hz")
    return problems


def check_evaluate(case: Case, out: Path) -> list[str]:
    doc = json.loads((out / "evaluate_report.json").read_text())
    problems = []
    coverage = doc["per_class_coverage"]
    if sorted(coverage) != ["stationary", "vehicular", "walking"]:
        problems.append(f"classes {sorted(coverage)}")
    if not all(_unit_interval(v) for v in [*coverage.values(), doc["average_coverage"]]):
        problems.append("coverage outside [0, 1]")
    if doc["trials_used"] != case.trials or doc["bias_db"] != [12.0, 6.0, 0.0]:
        problems.append(f"trials_used {doc['trials_used']}, bias_db {doc['bias_db']}")
    config = doc["config"]
    if (config["seed"], config["user_count"], config["area_side"]) != (case.seed, 4000, 4000.0):
        problems.append("config in evaluate_report.json is not the workload's")
    return problems


def check_analyze(case: Case, out: Path) -> list[str]:
    truth = case.truth
    report = json.loads((out / "convexity_report.json").read_text())
    meta = json.loads((out / "analyze_meta.json").read_text())
    problems = []
    if report["skipped_rows"] != truth["malformed_rows"]:
        problems.append(f"skipped {report['skipped_rows']} rows, injected {truth['malformed_rows']}")
    if [row["line"] for row in meta["skipped_rows"]] != truth["malformed_lines"]:
        problems.append("skipped line numbers differ from the injected ones")
    if report["user_count"] != truth["users"]:
        problems.append(f"user_count {report['user_count']}, expected {truth['users']}")
    if not math.isclose(report["user_convexity"], truth["user_convexity"], rel_tol=1e-9):
        problems.append(f"user convexity {report['user_convexity']}, expected {truth['user_convexity']}")
    volumes = report["per_state_volume_mb_per_day"]
    for state, expected in zip(tracegen.STATES, truth["per_state_volume"]):
        if not math.isclose(volumes[state], expected, rel_tol=1e-9):
            problems.append(f"{state} volume {volumes[state]}, expected {expected}")
    segments = _csv_rows(out / "segments.csv")
    if [s["state"] for s in segments] != truth["segment_states"]:
        problems.append("segment states differ from the generated legs")
    state_bytes = dict.fromkeys(tracegen.STATES, 0.0)
    for segment in segments:
        state_bytes[segment["state"]] += float(segment["rx_bytes"])
    if [state_bytes[s] for s in tracegen.STATES] != truth["state_bytes"]:
        problems.append("per-state bytes in segments.csv differ from the generated totals")
    return problems


INVARIANTS = {
    "sweep-3pt": check_sweep,
    "bandwidth-default": check_bandwidth,
    "trace-200k": check_analyze,
    "evaluate-wide": check_evaluate,
}


# ---------------------------------------------------------------- per-module metrics


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-module metrics of one traced command from its spans."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    uncached = uncached_s = probes = 0
    for index, (name, start, end, parent, _, flag) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child_s[index]
        if flag:
            uncached += 1
            uncached_s += end - start
        if parent >= 0 and spans[parent][0] == "optimizer.required_bandwidth":
            probes += name in SCHEME_SPANS

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    evaluations = n("coverage.evaluate")
    read_s = s("traces.read_trace_csv")
    metrics = {
        "model.sample_deployment.calls": n("model.sample_deployment"),
        "model.sample_deployment.s": s("model.sample_deployment"),
        "model.mean_power_matrix.calls": n("model.mean_power_matrix"),
        "model.mean_power_matrix.s": s("model.mean_power_matrix"),
        "model.link_matrix_mb": trace["link_matrix_bytes_max"] / MB,
        "coverage.builds": n("coverage.build"),
        "coverage.build.s": s("coverage.build"),
        "coverage.build.self_s": own.get("coverage.build", 0.0),
        "coverage.evaluate.calls": evaluations,
        "coverage.evaluate.uncached": uncached,
        "coverage.evaluate.hit_ratio": (evaluations - uncached) / evaluations if evaluations else 0.0,
        "coverage.evaluate.us_per_uncached": uncached_s / uncached * 1e6 if uncached else 0.0,
        "coverage.rebinds": n("coverage.rebind"),
        "coverage.rebind.s": s("coverage.rebind"),
        "optimizer.run_scheme.calls": sum(n(name) for name in SCHEME_SPANS),
        **{f"{name}.s": s(name) for name in SCHEME_SPANS},
        **{f"{name}.self_s": own.get(name, 0.0) for name in SCHEME_SPANS},
        "optimizer.bisection.probes": probes,
        "optimizer.required_bandwidth.s": s("optimizer.required_bandwidth"),
        "traces.read_trace_csv.s": read_s,
        "traces.rows": trace["trace_rows"],
        "traces.skipped_rows": trace["trace_skipped"],
        "traces.rows_per_s": trace["trace_rows"] / read_s if read_s else 0.0,
        "traces.analyze_trace.s": s("traces.analyze_trace"),
        "traces.build_segments.calls": n("traces.build_segments"),
        "traces.build_segments.s": s("traces.build_segments"),
        "traces.aggregate_user.s": s("traces.aggregate_user"),
        "cli.main.s": s("cli.main"),
        "cli.self_s": own.get("cli.main", 0.0),
    }
    return metrics


def count_problems(case: Case, metrics: dict[str, float]) -> list[str]:
    """Exact counts that must repeat, and layers that must have recorded work."""
    problems = []
    expected = {"coverage.builds": EXPECTED_BUILDS[case.workload]}
    if case.workload in EXPECTED_PROBES:
        expected["optimizer.bisection.probes"] = EXPECTED_PROBES[case.workload]
    if case.truth is not None:
        expected["traces.rows"] = case.truth["valid_rows"] + case.truth["malformed_rows"]
        expected["traces.skipped_rows"] = case.truth["malformed_rows"]
    for name, value in expected.items():
        if metrics[name] != value:
            problems.append(f"{name} = {metrics[name]}, expected {value}")
    for name in ("cli.main.s", *MUST_RECORD[case.workload]):
        if not metrics[name] > 0:
            problems.append(f"{name} recorded nothing")
    return problems


# ---------------------------------------------------------------- reporting


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def host_info() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; prints readable lines and returns the JSON result."""
    case = prepare(workload, seed, tiny)
    print(f"workload {workload} seed {seed} trace {int(trace)}: convexcell {' '.join(case.argv)}")
    problems: list[str] = []
    if trace:
        def pair(i: int) -> dict:
            # untraced and traced back to back, alternating which goes first
            order = (False, True) if i % 2 == 0 else (True, False)
            return {traced: invoke(case, 2 * i + k, traced) for k, traced in enumerate(order)}

        pairs = repeat(seconds, pair)
        plain = [p[False][0] for p in pairs]
        traced = [p[True] for p in pairs]
        outcomes = plain + [outcome for outcome, _ in traced]
        per_run = []  # layer metrics of each traced command
        for outcome, spans in traced:
            if spans is None:
                outcome.problems.append("tracer wrote no spans")
                continue
            per_run.append(layer_metrics(spans))
            problems += count_problems(case, per_run[-1])
        names = per_run[0] if per_run else {}
        values = {name: statistics.median(run[name] for run in per_run) for name in names}
        overhead = statistics.median(o.wall_s for o, _ in traced) - statistics.median(
            o.wall_s for o in plain
        )
        values["tracing.overhead_s"] = overhead
        metrics = {name: {"value": value, "unit": LAYER_UNITS.get(name, "s")} for name, value in values.items()}
        for name, metric in metrics.items():
            print(f"{name}: {metric['value']:.6g} {metric['unit']}")
        print("model.link_matrix_mb is computed from array shapes (largest mean-power matrix)")
        print(
            f"tracing overhead {overhead:.3f} s: traced wall median over n={len(traced)} "
            f"minus untraced wall median over n={len(plain)}"
        )
    else:
        setups = cold_starts(case)
        outcomes = repeat(seconds, lambda i: invoke(case, i, traced=False)[0])
        walls = [o.wall_s for o in outcomes]
        tail = tail_percentile(walls)
        tail_text = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "too few for a tail percentile"
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(o.rss_mb for o in outcomes), "unit": "MB"},
        }
        print(f"wall_s: median {metrics['wall_s']['value']:.4f} s, {tail_text}, n={len(walls)}")
        print(f"setup_s: median {metrics['setup_s']['value']:.4f} s, n={len(setups)} cold starts")
        print(f"peak_rss_mb: median {metrics['peak_rss_mb']['value']:.1f} MB, n={len(outcomes)}")
    failed = sum(1 for o in outcomes if o.problems)
    print(f"failed_ratio: {failed / len(outcomes):.4f} ratio ({failed} failed of {len(outcomes)})")
    for outcome in outcomes:
        problems += outcome.problems
    for note in case.notes:
        print(f"note: {note}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def self_test() -> int:
    """Every workload on tiny inputs, in both modes; every metric must be printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = bench(workload, DEFAULT_SEED, 0.0, trace, tiny=True)
            print(json.dumps(result))
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{workload} trace {int(trace)}: metrics {got} != {wanted}")
            if not result["correct"]:
                failures.append(f"{workload} trace {int(trace)}: incorrect outputs")
    for failure in failures:
        print(f"self-test: {failure}", file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny inputs, all workloads")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "convexcell" / "cli.py").is_file():
        print(f"error: no convexcell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    print("host " + json.dumps(host_info(), sort_keys=True))
    try:
        if args.self_test:
            return self_test()
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
