"""Mobility-class-aware cell association in two-tier cellular networks.

Monte-Carlo rate-coverage estimation, per-class bias optimization
(three-stage heuristic, common-bias CRE, exhaustive grid search), and
trace analytics deriving the user-convexity demand metric from
mobility and data-usage logs.
"""

from .association import BiasVector, linear_from_db
from .coverage import (
    CoverageEstimator,
    CoverageReport,
    EstimationError,
    TrialGeometry,
    estimate_rate_coverage,
    handover_efficiency,
)
from .model import (
    BITS_PER_MB,
    MIN_PATH_DISTANCE_M,
    SECONDS_PER_DAY,
    THERMAL_NOISE_W_PER_HZ,
    ClassProfile,
    ConfigError,
    Deployment,
    NetworkConfig,
    UserClass,
    default_profiles,
    largest_remainder_counts,
    link_distances,
    mean_power_matrix,
    rate_requirement,
    sample_deployment,
)
from .optimizer import (
    DEFAULT_CONVEXITY_VALUES,
    DEFAULT_GRID_DB,
    BiasGrid,
    DemandScenario,
    OptimizerResult,
    Scheme,
    UnsatisfiableRequirementError,
    convexity_sweep,
    required_bandwidth,
    run_scheme,
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
    "OptimizerResult",
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
