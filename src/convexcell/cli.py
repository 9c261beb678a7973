"""Batch entry point: experiment dispatch with machine-readable outputs.

Commands write CSV tables for plotting plus JSON metadata capturing the
resolved config and seed, so every artifact is reproducible on its own.
Outputs contain no timestamps; a rerun with the same manifest is
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .coverage import (
    BiasVector,
    CoverageEstimator,
    EstimationError,
    TrialGeometry,
    estimate_rate_coverage,
)
from .model import NetworkConfig, UserClass
from .optimizer import (
    DEFAULT_CONVEXITY_VALUES,
    DEFAULT_GRID_DB,
    BiasGrid,
    DemandScenario,
    Scheme,
    UnsatisfiableRequirementError,
    check_bracket,
    convexity_sweep,
    required_bandwidth,
)
from .traces import (
    DEFAULT_STATIONARY_CUTOFF_KMH,
    UserTrace,
    analyze_trace,
    check_stationary_cutoff,
    read_trace_csv,
)

SWEEP_COLUMNS = (
    "convexity", "scheme", "avg_coverage", "cov_stationary", "cov_walking",
    "cov_vehicular", "bias_s", "bias_w", "bias_v", "feasible",
)
BANDWIDTH_COLUMNS = ("total_volume", "scheme", "required_bandwidth_hz")
SEGMENT_COLUMNS = ("user_id", "start", "end", "state", "velocity_kmh", "rx_bytes")
STATE_LABELS = tuple(cls.label for cls in UserClass)

UNSATISFIABLE = "unsatisfiable"

# manifest key -> dest of the eight arguments every command records
MANIFEST_DESTS = {
    "command": "command", "config_path": "config", "output_dir": "out",
    "seed": "seed", "scheme": "scheme", "trials": "trials",
    "overwrite": "overwrite", "strict": "strict",
}


def _load_config(args: argparse.Namespace) -> NetworkConfig:
    data = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            data = json.load(handle)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    return replace(NetworkConfig.from_dict(data), **overrides)


def _prepare_outputs(args: argparse.Namespace, names: Sequence[str]) -> dict[str, Path]:
    """Output paths, refusing existing files; the writers create the directory.

    Runs before any work, so an --out that cannot become a directory fails
    at once instead of after the whole computation.
    """
    out_dir = Path(args.out)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise ValueError(f"--out {out_dir}: {nearest} is not a directory")
    paths = {name: out_dir / name for name in names}
    # --overwrite replaces files only; a directory would fail mid-write
    directories = [str(p) for p in paths.values() if p.is_dir()]
    if directories:
        raise ValueError(f"output {', '.join(directories)} is a directory")
    if not args.overwrite:
        existing = [str(p) for p in paths.values() if p.exists()]
        if existing:
            raise ValueError(
                f"refusing to overwrite {', '.join(existing)} (use --overwrite)"
            )
    return paths


def _create(path: Path, **kwargs):
    """Open a result file, creating its directory; failed commands leave none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", **kwargs)


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _create(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with _create(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _meta(args: argparse.Namespace, config: NetworkConfig | None, **results) -> dict:
    """Metadata of a run: the manifest, every other argument under its dest,
    the given results and the resolved config."""
    arguments = dict(vars(args))
    manifest = {key: arguments.pop(dest) for key, dest in MANIFEST_DESTS.items()}
    payload = {"manifest": manifest, **arguments, **results}
    if config is not None:
        payload["config"] = config.to_dict()
        payload["config_hash"] = config.config_hash()
        payload["seed"] = config.seed
    return payload


def run_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    grid = BiasGrid.from_db(args.grid_db)
    schemes = [Scheme(args.scheme)] if args.scheme else list(Scheme)
    scenario = DemandScenario(
        total_volume=args.total_volume,
        stationary_share=args.stationary_share,
        user_convexity=args.convexity_values[0],
    )
    paths = _prepare_outputs(args, ("sweep.csv", "sweep_meta.json"))

    points = convexity_sweep(scenario, args.convexity_values, config, grid, schemes)
    rows = []
    for convexity, result in points:
        report = result.report
        bias = result.bias
        rows.append(
            (
                convexity,
                result.scheme.value,
                report.average_coverage,
                *report.per_class_coverage,
                bias.stationary_bias,
                bias.walking_bias,
                bias.vehicular_bias,
                str(report.feasible).lower(),
            )
        )
    _write_csv(paths["sweep.csv"], SWEEP_COLUMNS, rows)
    _write_json(
        paths["sweep_meta.json"],
        _meta(args, config, schemes=[s.value for s in schemes]),
    )
    print(f"wrote {paths['sweep.csv']} ({len(rows)} rows)")
    return 0


def run_bandwidth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    grid = BiasGrid.from_db(args.grid_db)
    schemes = [Scheme(args.scheme)] if args.scheme else [Scheme.THREE_STAGE, Scheme.CRE]
    check_bracket(args.w_min, args.w_max, args.tolerance)
    top = replace(config, bandwidth=args.w_max)  # each bisection starts there
    point_configs = [
        top.with_volumes(
            DemandScenario(
                total_volume=volume,
                stationary_share=args.stationary_share,
                user_convexity=args.convexity,
            ).class_volumes()
        )
        for volume in args.volumes
    ]
    paths = _prepare_outputs(args, ("bandwidth.csv", "bandwidth_meta.json"))

    geometry = TrialGeometry(config)
    rows = []
    failed = False
    for volume, point_config in zip(args.volumes, point_configs):
        for scheme in schemes:
            estimator = CoverageEstimator(point_config, geometry)
            try:
                width = required_bandwidth(
                    estimator, grid, scheme, args.w_min, args.tolerance
                )
                rows.append((volume, scheme.value, width))
            except UnsatisfiableRequirementError as exc:
                print(f"error: {exc}", file=sys.stderr)
                rows.append((volume, scheme.value, UNSATISFIABLE))
                failed = True
    _write_csv(paths["bandwidth.csv"], BANDWIDTH_COLUMNS, rows)
    _write_json(
        paths["bandwidth_meta.json"],
        _meta(args, config, schemes=[s.value for s in schemes]),
    )
    print(f"wrote {paths['bandwidth.csv']} ({len(rows)} rows)")
    return 1 if failed else 0


def write_segments(
    path: Path,
    traces: Mapping[str, UserTrace],
    segments: Mapping[str, tuple[list[float], list[UserClass]]],
) -> None:
    """Write segments.csv as csv.writer would, one string per user.

    Only the user id can need quoting: csv writes a float as its repr, and
    stamps, labels and finite floats hold no delimiter, quote or line end.
    So each id is quoted once, by csv.writer, in a two-field row (a lone
    empty field would be written as ``""``). Each distinct time is
    formatted once: it ends one segment and starts the next, and
    fixed-interval traces repeat it across users. Equal instants in one
    time zone format alike, hence the memo key.
    """
    formatted: dict[tuple, str] = {}
    quoted = io.StringIO()
    quoter = csv.writer(quoted)
    with _create(path, newline="") as handle:
        csv.writer(handle).writerow(SEGMENT_COLUMNS)
        for user_id, (velocities, states) in segments.items():
            quoted.seek(0)
            quoted.truncate()
            quoter.writerow((user_id, ""))
            uid = quoted.getvalue()[:-3]  # drops ",\r\n"
            trace = traces[user_id]
            stamps = []
            for stamp in trace.timestamps:
                key = (stamp, stamp.tzinfo)
                text = formatted.get(key)
                if text is None:
                    text = formatted[key] = stamp.isoformat()
                stamps.append(text)
            rows = zip(stamps, stamps[1:], states, velocities, trace.rx_bytes[1:])
            handle.write("".join([
                f"{uid},{start},{end},{STATE_LABELS[state]},{v!r},{rx!r}\r\n"
                for start, end, state, v, rx in rows
            ]))


def run_analyze(args: argparse.Namespace) -> int:
    check_stationary_cutoff(args.stationary_cutoff)
    paths = _prepare_outputs(
        args, ("convexity_report.json", "segments.csv", "analyze_meta.json")
    )
    traces, skipped = read_trace_csv(args.trace, strict=args.strict)
    report, segments = analyze_trace(
        traces, stationary_cutoff=args.stationary_cutoff, strict=args.strict
    )

    _write_json(
        paths["convexity_report.json"],
        {**report.to_dict(), "skipped_rows": len(skipped)},
    )
    write_segments(paths["segments.csv"], traces, segments)
    _write_json(
        paths["analyze_meta.json"],
        _meta(
            args,
            None,
            skipped_rows=[{"line": line, "reason": reason} for line, reason in skipped],
        ),
    )
    if skipped:
        print(f"skipped {len(skipped)} malformed row(s)", file=sys.stderr)
    print(f"wrote {paths['convexity_report.json']} ({report.user_count} users)")
    if report.user_convexity is None:
        print("error: user convexity undefined (walking volume is zero)", file=sys.stderr)
        return 1
    return 0


def run_evaluate(args: argparse.Namespace) -> int:
    if not all(0.0 <= value < math.inf for value in args.bias_db):
        raise ValueError("bias values are in dB and must be >= 0 and finite")
    bias = BiasVector.from_db(*args.bias_db)
    config = _load_config(args)
    paths = _prepare_outputs(args, ("evaluate_report.json",))
    report = estimate_rate_coverage(config, bias)
    _write_json(
        paths["evaluate_report.json"],
        _meta(
            args,
            config,
            bias_linear=[
                bias.stationary_bias, bias.walking_bias, bias.vehicular_bias
            ],
            per_class_coverage={
                cls.label: report.per_class_coverage[cls] for cls in UserClass
            },
            average_coverage=report.average_coverage,
            feasible=report.feasible,
            trials_used=report.trials_used,
        ),
    )
    print(
        f"average coverage {report.average_coverage:.4f} "
        f"(feasible: {report.feasible})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexcell",
        description=(
            "Monte-Carlo experiments for mobility-class-aware cell association "
            "in two-tier cellular networks"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON network config (defaults when omitted)")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--trials", type=int, help="override the config trial count")
    common.add_argument(
        "--overwrite", action="store_true", help="allow replacing existing outputs"
    )

    # the flags of the commands that run the optimizers; demand defaults to
    # the measured mix
    measured = DemandScenario.measured_2015()
    optimizer = argparse.ArgumentParser(add_help=False)
    optimizer.add_argument(
        "--stationary-share", type=float, default=measured.stationary_share
    )
    optimizer.add_argument(
        "--grid-db", type=float, nargs="+", default=list(DEFAULT_GRID_DB)
    )
    optimizer.add_argument("--scheme", choices=[s.value for s in Scheme])

    # every command's manifest records both; only some commands take them
    parser.set_defaults(scheme=None, strict=False)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        parents=[common, optimizer],
        help="coverage of every scheme vs user convexity",
    )
    sweep.add_argument(
        "--convexity",
        type=float,
        nargs="+",
        default=list(DEFAULT_CONVEXITY_VALUES),
        dest="convexity_values",
        metavar="CONVEXITY",
    )
    sweep.add_argument(
        "--total-volume", type=float, default=measured.total_volume, help="MB/day"
    )

    bandwidth = sub.add_parser(
        "bandwidth",
        parents=[common, optimizer],
        help="required bandwidth per scheme and volume",
    )
    total = measured.total_volume
    bandwidth.add_argument(
        "--volumes", type=float, nargs="+", default=[total, 2 * total], help="MB/day"
    )
    bandwidth.add_argument("--convexity", type=float, default=measured.user_convexity)
    bandwidth.add_argument(
        "--wmin", type=float, default=1e6, dest="w_min", metavar="WMIN", help="Hz"
    )
    bandwidth.add_argument(
        "--wmax", type=float, default=1e8, dest="w_max", metavar="WMAX", help="Hz"
    )
    bandwidth.add_argument("--tolerance", type=float, default=1e5, help="Hz")

    analyze = sub.add_parser(
        "analyze", parents=[common], help="user convexity from a mobility trace CSV"
    )
    analyze.add_argument("--trace", required=True, help="input trace CSV")
    analyze.add_argument(
        "--stationary-cutoff", type=float, default=DEFAULT_STATIONARY_CUTOFF_KMH
    )
    analyze.add_argument(
        "--strict", action="store_true", help="abort on malformed rows instead of skipping"
    )

    evaluate = sub.add_parser(
        "evaluate", parents=[common], help="coverage report of one explicit bias vector"
    )
    evaluate.add_argument(
        "--bias",
        type=float,
        nargs=3,
        required=True,
        dest="bias_db",
        metavar=("S_DB", "W_DB", "V_DB"),
        help="per-class small-cell bias in dB (stationary walking vehicular)",
    )

    return parser


_COMMANDS = {
    "sweep": run_sweep,
    "bandwidth": run_bandwidth,
    "analyze": run_analyze,
    "evaluate": run_evaluate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        UnsatisfiableRequirementError,
        EstimationError,
        OSError,
        ValueError,  # also config, trace, JSON and output-path errors
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's allocation errors name the array that did not fit
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
