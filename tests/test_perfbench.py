"""The benchmark's recorded digests, read from the perfbench files."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_has_the_traced_seed():
    """CI traces each workload only at seed 42, so each must have its digests."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert [w for w in workloads if "42" not in recorded.get(w, {})] == []
