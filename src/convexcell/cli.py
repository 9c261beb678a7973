"""Batch entry point: experiment dispatch with machine-readable outputs.

Commands write CSV tables for plotting plus JSON metadata capturing the
resolved config and seed, so every artifact is reproducible on its own.
Outputs contain no timestamps; a rerun with the same manifest is
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .association import BiasVector
from .coverage import (
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
    convexity_sweep,
    required_bandwidth,
)
from .traces import (
    DEFAULT_STATIONARY_CUTOFF_KMH,
    analyze_trace,
    read_trace_csv,
)

SWEEP_COLUMNS = (
    "convexity", "scheme", "avg_coverage", "cov_stationary", "cov_walking",
    "cov_vehicular", "bias_s", "bias_w", "bias_v", "feasible",
)
BANDWIDTH_COLUMNS = ("total_volume", "scheme", "required_bandwidth_hz")
SEGMENT_COLUMNS = ("user_id", "start", "end", "state", "velocity_kmh", "rx_bytes")

UNSATISFIABLE = "unsatisfiable"


@dataclass(frozen=True)
class RunManifest:
    """Resolved invocation: command, config source, and output policy."""

    command: str
    config_path: str | None
    output_dir: str
    seed: int | None
    scheme: str | None
    trials: int | None
    overwrite: bool
    strict: bool


class CliError(Exception):
    """Fatal CLI failure with a user-facing message."""


def _load_config(manifest: RunManifest) -> NetworkConfig:
    data = {}
    if manifest.config_path is not None:
        with open(manifest.config_path, encoding="utf-8") as handle:
            data = json.load(handle)
    config = NetworkConfig.from_dict(data)
    overrides = {}
    if manifest.seed is not None:
        overrides["seed"] = manifest.seed
    if manifest.trials is not None:
        overrides["trials"] = manifest.trials
    if overrides:
        config = NetworkConfig.from_dict({**config.to_dict(), **overrides})
    return config


def _prepare_outputs(manifest: RunManifest, names: Sequence[str]) -> dict[str, Path]:
    """Output paths, refusing existing files; the writers create the directory."""
    out_dir = Path(manifest.output_dir)
    paths = {name: out_dir / name for name in names}
    if not manifest.overwrite:
        existing = [str(p) for p in paths.values() if p.exists()]
        if existing:
            raise CliError(
                f"refusing to overwrite {', '.join(existing)} (use --overwrite)"
            )
    return paths


def _create(path: Path, **kwargs):
    """Open a result file, creating its directory; failed commands leave none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", **kwargs)


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    with _create(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with _create(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _meta(manifest: RunManifest, config: NetworkConfig | None, **extra) -> dict:
    payload = {"manifest": asdict(manifest), **extra}
    if config is not None:
        payload["config"] = config.to_dict()
        payload["config_hash"] = config.config_hash()
        payload["seed"] = config.seed
    return payload


def _parse_schemes(value: str | None, default: Sequence[Scheme]) -> list[Scheme]:
    if value is None:
        return list(default)
    return [Scheme(value)]


def run_sweep(manifest: RunManifest, args: argparse.Namespace) -> int:
    config = _load_config(manifest)
    grid = BiasGrid.from_db(args.grid_db)
    schemes = _parse_schemes(manifest.scheme, tuple(Scheme))
    scenario = DemandScenario(
        total_volume=args.total_volume,
        stationary_share=args.stationary_share,
        user_convexity=args.convexity[0],
    )
    paths = _prepare_outputs(manifest, ("sweep.csv", "sweep_meta.json"))

    points = convexity_sweep(scenario, args.convexity, config, grid, schemes)
    rows = []
    for point in points:
        report = point.result.report
        bias = point.result.bias
        rows.append(
            (
                point.convexity,
                point.scheme.value,
                report.average_coverage,
                *report.per_class_coverage,
                bias.stationary_bias,
                bias.walking_bias,
                bias.vehicular_bias,
                str(point.result.feasible).lower(),
            )
        )
    _write_csv(paths["sweep.csv"], SWEEP_COLUMNS, rows)
    _write_json(
        paths["sweep_meta.json"],
        _meta(
            manifest,
            config,
            convexity_values=list(args.convexity),
            total_volume=args.total_volume,
            stationary_share=args.stationary_share,
            grid_db=list(args.grid_db),
            schemes=[s.value for s in schemes],
        ),
    )
    print(f"wrote {paths['sweep.csv']} ({len(rows)} rows)")
    return 0


def run_bandwidth(manifest: RunManifest, args: argparse.Namespace) -> int:
    config = _load_config(manifest)
    grid = BiasGrid.from_db(args.grid_db)
    schemes = _parse_schemes(manifest.scheme, (Scheme.THREE_STAGE, Scheme.CRE))
    point_configs = [
        DemandScenario(
            total_volume=volume,
            stationary_share=args.stationary_share,
            user_convexity=args.convexity,
        ).apply(config)
        for volume in args.volumes
    ]
    paths = _prepare_outputs(manifest, ("bandwidth.csv", "bandwidth_meta.json"))

    geometry = TrialGeometry(config)
    rows = []
    failed = False
    for volume, point_config in zip(args.volumes, point_configs):
        for scheme in schemes:
            estimator = CoverageEstimator(point_config, geometry)
            try:
                width = required_bandwidth(
                    estimator, grid, scheme, args.wmin, args.wmax, args.tolerance
                )
                rows.append((volume, scheme.value, width))
            except UnsatisfiableRequirementError as exc:
                print(f"error: {exc}", file=sys.stderr)
                rows.append((volume, scheme.value, UNSATISFIABLE))
                failed = True
    _write_csv(paths["bandwidth.csv"], BANDWIDTH_COLUMNS, rows)
    _write_json(
        paths["bandwidth_meta.json"],
        _meta(
            manifest,
            config,
            volumes=list(args.volumes),
            stationary_share=args.stationary_share,
            convexity=args.convexity,
            w_min=args.wmin,
            w_max=args.wmax,
            tolerance=args.tolerance,
            grid_db=list(args.grid_db),
            schemes=[s.value for s in schemes],
        ),
    )
    print(f"wrote {paths['bandwidth.csv']} ({len(rows)} rows)")
    return 1 if failed else 0


def run_analyze(manifest: RunManifest, args: argparse.Namespace) -> int:
    paths = _prepare_outputs(
        manifest, ("convexity_report.json", "segments.csv", "analyze_meta.json")
    )
    samples, skipped = read_trace_csv(args.trace, strict=manifest.strict)
    report, segments = analyze_trace(
        samples, stationary_cutoff=args.stationary_cutoff, strict=manifest.strict
    )

    _write_json(
        paths["convexity_report.json"],
        {**report.to_dict(), "skipped_rows": len(skipped)},
    )
    segment_rows = [
        (
            s.user_id,
            s.start.isoformat(),
            s.end.isoformat(),
            s.state.label,
            s.velocity,
            s.rx_bytes,
        )
        for s in segments
    ]
    _write_csv(paths["segments.csv"], SEGMENT_COLUMNS, segment_rows)
    _write_json(
        paths["analyze_meta.json"],
        _meta(
            manifest,
            None,
            trace=str(args.trace),
            stationary_cutoff=args.stationary_cutoff,
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


def run_evaluate(manifest: RunManifest, args: argparse.Namespace) -> int:
    if not all(0.0 <= value < math.inf for value in args.bias):
        raise CliError("bias values are in dB and must be >= 0 and finite")
    bias = BiasVector.from_db(*args.bias)
    config = _load_config(manifest)
    paths = _prepare_outputs(manifest, ("evaluate_report.json",))
    report = estimate_rate_coverage(config, bias)
    _write_json(
        paths["evaluate_report.json"],
        _meta(
            manifest,
            config,
            bias_db=list(args.bias),
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

    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", parents=[common], help="coverage of every scheme vs user convexity"
    )
    sweep.add_argument(
        "--convexity", type=float, nargs="+", default=list(DEFAULT_CONVEXITY_VALUES)
    )
    sweep.add_argument("--total-volume", type=float, default=145.05, help="MB/day")
    sweep.add_argument("--stationary-share", type=float, default=0.6107)
    sweep.add_argument("--grid-db", type=float, nargs="+", default=list(DEFAULT_GRID_DB))
    sweep.add_argument("--scheme", choices=[s.value for s in Scheme])

    bandwidth = sub.add_parser(
        "bandwidth", parents=[common], help="required bandwidth per scheme and volume"
    )
    bandwidth.add_argument(
        "--volumes", type=float, nargs="+", default=[145.05, 290.1], help="MB/day"
    )
    bandwidth.add_argument("--stationary-share", type=float, default=0.6107)
    bandwidth.add_argument("--convexity", type=float, default=3.04)
    bandwidth.add_argument("--wmin", type=float, default=1e6, help="Hz")
    bandwidth.add_argument("--wmax", type=float, default=1e8, help="Hz")
    bandwidth.add_argument("--tolerance", type=float, default=1e5, help="Hz")
    bandwidth.add_argument(
        "--grid-db", type=float, nargs="+", default=list(DEFAULT_GRID_DB)
    )
    bandwidth.add_argument("--scheme", choices=[s.value for s in Scheme])

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
    manifest = RunManifest(
        command=args.command,
        config_path=args.config,
        output_dir=args.out,
        seed=args.seed,
        scheme=getattr(args, "scheme", None),
        trials=args.trials,
        overwrite=args.overwrite,
        strict=getattr(args, "strict", False),
    )
    try:
        return _COMMANDS[args.command](manifest, args)
    except (
        CliError,
        UnsatisfiableRequirementError,
        EstimationError,
        OSError,
        ValueError,  # also config, trace and JSON errors
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
