"""Run one convexcell command with a span around each call into a module.

Usage: python3 perfbench/tracer.py SPANS_JSON RUN_ID COMMAND [ARGS...]

Each name is wrapped in the module where its caller looks it up (for
example ``convexcell.coverage.sample_deployment``, not the definition in
``convexcell.model``), so every call the command makes is recorded. Spans
stay in memory and are written to SPANS_JSON when the command returns.
The exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id, flag]."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.facts = {"link_matrix_bytes_max": 0, "trace_rows": 0, "trace_skipped": 0}

    def wrap(self, name, fn, flag=None, on_result=None):
        """Wrap fn in a span; name and flag may be computed from the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            mark = flag(args, kwargs) if flag is not None else False
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [label, time.perf_counter(), None, parent, self.run_id, mark]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name, **hooks) -> None:
        # getattr raises when a name has moved, so a lost layer fails loudly
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans, **self.facts}, handle)


def install(tracer: Tracer) -> None:
    from convexcell import cli, coverage, optimizer, traces

    facts = tracer.facts

    def link_matrix(matrix) -> None:
        facts["link_matrix_bytes_max"] = max(facts["link_matrix_bytes_max"], matrix.nbytes)

    def trace_rows(result) -> None:
        samples, skipped = result
        facts["trace_skipped"] += len(skipped)
        facts["trace_rows"] += len(skipped) + sum(len(s) for s in samples.values())

    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def uncached(args, kwargs) -> bool:
        estimator = args[0]
        bias = args[1] if len(args) > 1 else kwargs["bias"]
        key = (bias.stationary_bias, bias.walking_bias, bias.vehicular_bias)
        keys = seen.setdefault(estimator, set())
        fresh = key not in keys
        keys.add(key)
        return fresh

    def scheme_name(args, kwargs) -> str:
        scheme = args[0] if args else kwargs["scheme"]
        return f"optimizer.{scheme.value}"

    tracer.patch(cli, "convexity_sweep", "optimizer.convexity_sweep")
    tracer.patch(cli, "required_bandwidth", "optimizer.required_bandwidth")
    tracer.patch(cli, "estimate_rate_coverage", "coverage.estimate_rate_coverage")
    tracer.patch(cli, "read_trace_csv", "traces.read_trace_csv", on_result=trace_rows)
    tracer.patch(cli, "analyze_trace", "traces.analyze_trace")
    # _SCHEME_RUNNERS holds the scheme functions, so the dispatcher is the boundary
    tracer.patch(optimizer, "run_scheme", scheme_name)
    estimator = coverage.CoverageEstimator
    tracer.patch(estimator, "__init__", "coverage.build")
    tracer.patch(estimator, "evaluate", "coverage.evaluate", flag=uncached)
    tracer.patch(estimator, "with_bandwidth", "coverage.rebind")
    tracer.patch(coverage, "sample_deployment", "model.sample_deployment")
    tracer.patch(
        coverage, "mean_power_matrix", "model.mean_power_matrix", on_result=link_matrix
    )
    tracer.patch(traces, "build_segments", "traces.build_segments")
    tracer.patch(traces, "aggregate_user", "traces.aggregate_user")


def main() -> int:
    spans_path, run_id, *argv = sys.argv[1:]
    from convexcell import cli

    tracer = Tracer(run_id)
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
