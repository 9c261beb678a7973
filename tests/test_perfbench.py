"""The benchmark's recorded digests and the tracer's spans of the package."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_has_the_traced_seed():
    """CI traces each workload only at seed 42, so each must have its digests."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert [w for w in workloads if "42" not in recorded.get(w, {})] == []


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["evaluate", "--bias", "0", "0", "0", "--trials", "2"], 1),
        (["sweep", "--convexity", "1", "3.04", "--trials", "2", "--grid-db", "0", "6"], 2),
    ],
    ids=["evaluate", "sweep"],
)
def test_tracer_records_every_layer(tmp_path, argv, builds):
    """The names the tracer wraps are the ones the commands call.

    A sampled trial or an estimator build that no longer goes through the
    wrapped name would leave its spans out of the benchmark's metrics.
    """
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "x"]
    command += [*argv, "--out", str(tmp_path / "out")]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names = Counter(span[0] for span in json.loads(spans_path.read_text())["spans"])
    assert names["model.sample_deployment"] == 2
    assert names["coverage.build"] == builds
