"""Mobility-class-aware cell association in two-tier cellular networks.

Monte-Carlo rate-coverage estimation, per-class bias optimization
(three-stage heuristic, common-bias CRE, exhaustive grid search), and
trace analytics deriving the user-convexity demand metric from
mobility and data-usage logs.
"""

from .domain import (
    BITS_PER_MB,
    DEFAULT_CONVEXITY_VALUES,
    DEFAULT_GRID_DB,
    SECONDS_PER_DAY,
    DemandScenario,
    EstimationError,
    Scheme,
    UnsatisfiableRequirementError,
    UserClass,
)
from .traces import (
    DEFAULT_STATIONARY_CUTOFF_KMH,
    EARTH_RADIUS_M,
    TRACE_CSV_HEADER,
    VEHICULAR_CUTOFF_KMH,
    ConvexityReport,
    InsufficientDataError,
    TraceFormatError,
    UserTrace,
    aggregate_population,
    aggregate_user,
    analyze_trace,
    build_segments,
    read_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BITS_PER_MB",
    "BiasGrid",
    "BiasVector",
    "ClassProfile",
    "ConfigError",
    "ConvexityReport",
    "CoverageEstimator",
    "CoverageReport",
    "DEFAULT_CONVEXITY_VALUES",
    "DEFAULT_GRID_DB",
    "DEFAULT_STATIONARY_CUTOFF_KMH",
    "DemandScenario",
    "Deployment",
    "EARTH_RADIUS_M",
    "EstimationError",
    "InsufficientDataError",
    "MIN_PATH_DISTANCE_M",
    "NetworkConfig",
    "Scheme",
    "SECONDS_PER_DAY",
    "THERMAL_NOISE_W_PER_HZ",
    "TRACE_CSV_HEADER",
    "TraceFormatError",
    "TrialGeometry",
    "UnsatisfiableRequirementError",
    "UserClass",
    "UserTrace",
    "VEHICULAR_CUTOFF_KMH",
    "aggregate_population",
    "aggregate_user",
    "analyze_trace",
    "build_segments",
    "convexity_sweep",
    "default_profiles",
    "estimate_rate_coverage",
    "handover_efficiency",
    "largest_remainder_counts",
    "linear_from_db",
    "link_distances",
    "mean_power_matrix",
    "read_trace_csv",
    "required_bandwidth",
    "run_scheme",
    "sample_deployment",
]

# the names backed by numpy, each imported from its module on first use
# (PEP 562), so that the trace analytics and the argument parser run
# without numpy
_LAZY = {
    **dict.fromkeys(
        (
            "BiasVector", "CoverageEstimator", "CoverageReport", "TrialGeometry",
            "estimate_rate_coverage", "handover_efficiency", "linear_from_db",
        ),
        "coverage",
    ),
    **dict.fromkeys(
        (
            "MIN_PATH_DISTANCE_M", "THERMAL_NOISE_W_PER_HZ", "ClassProfile",
            "ConfigError", "Deployment", "NetworkConfig", "default_profiles",
            "largest_remainder_counts", "link_distances", "mean_power_matrix",
            "rate_requirement", "sample_deployment",
        ),
        "model",
    ),
    **dict.fromkeys(
        ("BiasGrid", "convexity_sweep", "required_bandwidth", "run_scheme"),
        "optimizer",
    ),
}


def __getattr__(name: str):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
