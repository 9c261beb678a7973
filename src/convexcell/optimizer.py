"""Bias selection: three-stage heuristic, CRE baseline, full grid search.

The three-stage scheme fixes per-class small-cell biases sequentially:
stationary users get the bias maximizing their own coverage, walking users
get the smallest bias that makes the vehicular constraint attainable
(vacating macro resources), and vehicular users get the bias maximizing
their own coverage given the first two. CRE applies one common bias to all
classes; full search enumerates the whole grid cube and is the optimality
oracle. All candidates under one config share common random numbers.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

from .association import BiasVector, linear_from_db
from .coverage import CoverageEstimator, CoverageReport, TrialGeometry
from .model import NetworkConfig, UserClass

FULL_SEARCH_WARN_CANDIDATES = 2000

DEFAULT_GRID_DB = tuple(float(db) for db in range(0, 21, 2))
DEFAULT_CONVEXITY_VALUES = (1.0, 2.0, 3.04, 4.0, 5.0, 6.0, 7.0, 8.0)


class UnsatisfiableRequirementError(RuntimeError):
    """No bandwidth in the search interval satisfies every class threshold."""

    def __init__(self, message: str, failing_classes: tuple[UserClass, ...]):
        super().__init__(message)
        self.failing_classes = failing_classes


class Scheme(enum.Enum):
    THREE_STAGE = "three-stage"
    CRE = "cre"
    FULL_SEARCH = "full"


@dataclass(frozen=True)
class BiasGrid:
    """Ordered candidate biases shared by every optimizer, linear factors.

    Must be strictly increasing and start at exactly 1 (0 dB) so the
    unbiased association is always a candidate.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("bias grid must be nonempty")
        if self.values[0] != 1.0:
            raise ValueError("bias grid must start at 1 (0 dB)")
        for lo, hi in zip(self.values, self.values[1:]):
            if hi <= lo:
                raise ValueError("bias grid must be strictly increasing")

    @classmethod
    def default(cls) -> "BiasGrid":
        return cls.from_db(DEFAULT_GRID_DB)

    @classmethod
    def from_db(cls, db_values: Sequence[float]) -> "BiasGrid":
        return cls(tuple(linear_from_db(db) for db in db_values))

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class OptimizerResult:
    """Winning bias vector of one scheme with its coverage report."""

    bias: BiasVector
    report: CoverageReport
    scheme: Scheme

    @property
    def feasible(self) -> bool:
        return self.report.feasible


@dataclass(frozen=True)
class DemandScenario:
    """Total daily traffic split into per-class volumes by user convexity.

    The stationary share of the total is fixed; the rest, the moving share,
    is split between walking and vehicular users in the ratio
    1 : user_convexity.
    """

    total_volume: float
    stationary_share: float
    user_convexity: float

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it too
        if not 0.0 <= self.total_volume < math.inf:
            raise ValueError("total_volume must be finite and >= 0")
        if not 0.0 <= self.stationary_share <= 1.0:
            raise ValueError("stationary_share must be in [0, 1]")
        if not 0.0 < self.user_convexity < math.inf:
            raise ValueError("user_convexity must be finite and > 0")

    @classmethod
    def measured_2015(cls) -> "DemandScenario":
        """The 145.05 MB/day field-measurement mix."""
        return cls(145.05, 0.6107, 3.04)

    def class_volumes(self) -> tuple[float, float, float]:
        """(stationary, walking, vehicular) volumes in MB/day."""
        stationary = self.stationary_share * self.total_volume
        moving_share = 1.0 - self.stationary_share
        walking = moving_share * self.total_volume / (1.0 + self.user_convexity)
        vehicular = self.user_convexity * walking
        return (stationary, walking, vehicular)

    def with_convexity(self, user_convexity: float) -> "DemandScenario":
        return replace(self, user_convexity=user_convexity)

    def apply(self, config: NetworkConfig) -> NetworkConfig:
        """Config with per-class traffic volumes set from this scenario."""
        return config.with_volumes(self.class_volumes())


def _argmax(
    estimator: CoverageEstimator,
    grid: BiasGrid,
    user_class: UserClass,
    bias_of: Callable[[float], BiasVector],
) -> tuple[float, CoverageReport]:
    """Grid value maximizing one class's coverage; returns (value, its report).

    ``bias_of`` places the candidate value in a bias vector. ``max`` keeps
    the first of equal maxima, so ties break to the smallest bias.
    """
    return max(
        ((value, estimator.evaluate(bias_of(value))) for value in grid),
        key=lambda item: item[1].per_class_coverage[user_class],
    )


def _stage2(
    estimator: CoverageEstimator,
    grid: BiasGrid,
    stationary: float,
) -> tuple[float, float, CoverageReport]:
    """Walking-bias scan; returns (walking, vehicular bias, final report).

    Scans the grid upward and stops at the first walking bias whose
    stage-3 completion (the vehicular-coverage argmax) meets the vehicular
    coverage threshold: the macro resources vacated by walking users are
    just enough. Falls back to the candidate with the best vehicular
    coverage when none qualifies.
    """
    min_vehicular = estimator.config.profiles[UserClass.VEHICULAR].min_coverage
    best = None
    best_coverage = -1.0
    for walking in grid:
        completion = partial(BiasVector, stationary, walking)
        vehicular, report = _argmax(estimator, grid, UserClass.VEHICULAR, completion)
        coverage = report.per_class_coverage[UserClass.VEHICULAR]
        if coverage >= min_vehicular:
            return walking, vehicular, report
        if coverage > best_coverage:
            best_coverage = coverage
            best = (walking, vehicular, report)
    return best


def three_stage_optimize(
    estimator: CoverageEstimator, grid: BiasGrid
) -> OptimizerResult:
    """Compose the three per-class stages under common random numbers.

    Stage 1 takes the bias maximizing stationary coverage with the other
    classes unbiased; stages 2 and 3 are the walking scan of ``_stage2``.
    """
    stationary, _ = _argmax(
        estimator, grid, UserClass.STATIONARY, lambda b: BiasVector(b, 1.0, 1.0)
    )
    walking, vehicular, report = _stage2(estimator, grid, stationary)
    bias = BiasVector(stationary, walking, vehicular)
    return OptimizerResult(bias=bias, report=report, scheme=Scheme.THREE_STAGE)


def _select(
    biases: Iterable[BiasVector], estimator: CoverageEstimator
) -> tuple[BiasVector, CoverageReport]:
    """Highest average coverage, feasible candidates first.

    ``max`` keeps the first of equal candidates. When no candidate is
    feasible the best infeasible one is returned.
    """
    return max(
        ((bias, estimator.evaluate(bias)) for bias in biases),
        key=lambda item: (item[1].feasible, item[1].average_coverage),
    )


def cre_optimize(estimator: CoverageEstimator, grid: BiasGrid) -> OptimizerResult:
    """Best common bias: highest average coverage, feasible candidates first.

    When no common bias is feasible the best-average infeasible candidate
    is returned with feasible=False. Ties break to the smallest bias.
    """
    bias, report = _select((BiasVector.uniform(b) for b in grid), estimator)
    return OptimizerResult(bias=bias, report=report, scheme=Scheme.CRE)


def full_search(estimator: CoverageEstimator, grid: BiasGrid) -> OptimizerResult:
    """Exhaustive search over the grid cube; the optimality oracle.

    Feasible candidates are preferred; among equals the lexicographically
    smallest (stationary, walking, vehicular) triple wins.
    """
    n_candidates = len(grid) ** 3
    if n_candidates > FULL_SEARCH_WARN_CANDIDATES:
        warnings.warn(
            f"full search over {n_candidates} candidates may be slow",
            stacklevel=2,
        )
    biases = (BiasVector(*triple) for triple in itertools.product(grid, repeat=3))
    bias, report = _select(biases, estimator)
    return OptimizerResult(bias=bias, report=report, scheme=Scheme.FULL_SEARCH)


_SCHEME_RUNNERS = {
    Scheme.THREE_STAGE: three_stage_optimize,
    Scheme.CRE: cre_optimize,
    Scheme.FULL_SEARCH: full_search,
}


def run_scheme(
    scheme: Scheme, estimator: CoverageEstimator, grid: BiasGrid
) -> OptimizerResult:
    """Dispatch one association scheme by name."""
    return _SCHEME_RUNNERS[scheme](estimator, grid)


def required_bandwidth(
    estimator: CoverageEstimator,
    grid: BiasGrid,
    scheme: Scheme,
    w_min: float,
    w_max: float,
    tolerance: float,
) -> float:
    """Smallest bandwidth at which the scheme's optimizer is feasible.

    Bisects on bandwidth by rebinding ``estimator``, whose geometry and
    demand stay fixed. This assumes feasibility is monotone in bandwidth.
    For a fixed bias vector it is: association and loads do not depend on
    the bandwidth, and each user's rate W/load * log2(1 + S/(I + N0*W))
    increases with W, so every per-class coverage can only rise. CRE and
    full search are feasible iff some candidate of a fixed set is, so
    their feasibility is monotone too. Three-stage chooses its biases from
    coverages that move with W, so for it monotonicity is only observed,
    not proven.
    Raises UnsatisfiableRequirementError when even w_max is infeasible.
    """
    if not 0.0 < w_min <= w_max:
        raise ValueError("need 0 < w_min <= w_max")
    if not tolerance > 0.0:  # also refuses NaN
        raise ValueError("tolerance must be > 0")

    def result_at(width: float) -> OptimizerResult:
        return run_scheme(scheme, estimator.with_bandwidth(width), grid)

    top = result_at(w_max)
    if not top.feasible:
        profiles = estimator.config.profiles
        failing = tuple(
            cls
            for cls in UserClass
            if top.report.per_class_coverage[cls] < profiles[cls].min_coverage
        )
        names = ", ".join(cls.label for cls in failing)
        raise UnsatisfiableRequirementError(
            f"{scheme.value} infeasible even at {w_max:g} Hz (failing: {names})",
            failing,
        )
    if result_at(w_min).feasible:
        return w_min

    low, high = w_min, w_max  # invariant: low infeasible, high feasible
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if result_at(mid).feasible:
            high = mid
        else:
            low = mid
    return high


@dataclass(frozen=True)
class SweepPoint:
    """One (user convexity, scheme) cell of a sweep table."""

    convexity: float
    scheme: Scheme
    result: OptimizerResult


def convexity_sweep(
    base: DemandScenario,
    convexity_values: Sequence[float],
    config: NetworkConfig,
    grid: BiasGrid,
    schemes: Sequence[Scheme] = tuple(Scheme),
) -> list[SweepPoint]:
    """Evaluate every scheme across a range of user-convexity values.

    Total volume and the stationary share stay fixed; only the split of
    moving traffic between walking and vehicular users varies. One trial
    geometry is built and every point binds its demand to it, so rows see
    identical deployments and fading and are exactly comparable.
    """
    # scenarios first: a bad convexity fails before the geometry is built
    scenarios = [base.with_convexity(value) for value in convexity_values]
    geometry = TrialGeometry(config)
    rows: list[SweepPoint] = []
    for convexity, scenario in zip(convexity_values, scenarios):
        point_config = scenario.apply(config)
        estimator = CoverageEstimator(point_config, geometry)
        for scheme in schemes:
            result = run_scheme(scheme, estimator, grid)
            rows.append(SweepPoint(convexity=convexity, scheme=scheme, result=result))
        del estimator  # release this point's part memo before binding the next
    return rows
