"""Mobility-class-aware cell association in two-tier cellular networks.

Monte-Carlo rate-coverage estimation, per-class bias optimization
(three-stage heuristic, common-bias CRE, exhaustive grid search), and
trace analytics deriving the user-convexity demand metric from
mobility and data-usage logs.
"""

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
    "check_bracket",
    "convexity_sweep",
    "default_profiles",
    "estimate_rate_coverage",
    "handover_efficiency",
    "largest_remainder_counts",
    "linear_from_db",
    "mean_power_matrix",
    "rate_requirement",
    "read_trace_csv",
    "required_bandwidth",
    "run_scheme",
    "sample_deployment",
]


def __getattr__(name: str):
    """A name of ``__all__``, imported on first use (PEP 562) from the first
    module that holds it, and then kept here.

    ``domain`` and ``traces`` come first, so the trace analytics and the
    argument parser load no numpy.
    """
    if name in __all__:
        from importlib import import_module

        for module in ("domain", "traces", "model", "coverage", "optimizer"):
            namespace = vars(import_module(f".{module}", __name__))
            if name in namespace:
                value = globals()[name] = namespace[name]
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
