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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .coverage import (
    BiasVector,
    CoverageEstimator,
    CoverageReport,
    TrialGeometry,
    linear_from_db,
)
from .model import NetworkConfig, UserClass

DEFAULT_GRID_DB = tuple(float(db) for db in range(0, 21, 2))
DEFAULT_CONVEXITY_VALUES = (1.0, 2.0, 3.04, 4.0, 5.0, 6.0, 7.0, 8.0)


class UnsatisfiableRequirementError(RuntimeError):
    """No bandwidth in the search interval satisfies every class threshold."""


class Scheme(enum.Enum):
    THREE_STAGE = "three-stage"
    CRE = "cre"
    FULL_SEARCH = "full"


@dataclass(frozen=True)
class BiasGrid:
    """Ordered candidate biases shared by every optimizer, linear factors.

    Must be finite, strictly increasing and start at exactly 1 (0 dB) so
    the unbiased association is always a candidate.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("bias grid must be nonempty")
        # NaN would pass the order checks below, as every NaN comparison fails
        if not all(math.isfinite(value) for value in self.values):
            raise ValueError(f"bias grid values must be finite, got {self.values}")
        if self.values[0] != 1.0:
            raise ValueError("bias grid must start at 1 (0 dB)")
        for lo, hi in zip(self.values, self.values[1:]):
            if hi <= lo:
                raise ValueError("bias grid must be strictly increasing")

    @classmethod
    def from_db(cls, db_values: Sequence[float]) -> "BiasGrid":
        """Grid of the linear factors of dB values, which must be finite."""
        db_values = tuple(db_values)
        if not all(math.isfinite(db) for db in db_values):
            raise ValueError(f"bias grid dB values must be finite, got {db_values}")
        return cls(tuple(linear_from_db(db) for db in db_values))

    def __iter__(self):
        return iter(self.values)


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


def _best(
    estimator: CoverageEstimator,
    biases: Iterable[BiasVector],
    key: Callable[[CoverageReport], object],
) -> tuple[BiasVector, CoverageReport]:
    """The candidate whose report has the highest key, with that report.

    The one selection rule of every scheme and stage. Candidates are
    evaluated in order, and ``max`` keeps the first of equal keys, so ties
    break to the earliest candidate: the smallest bias.
    """
    return max(
        ((bias, estimator.evaluate(bias)) for bias in biases),
        key=lambda item: key(item[1]),
    )


def _class_coverage(user_class: UserClass) -> Callable[[CoverageReport], float]:
    return lambda report: report.per_class_coverage[user_class]


def _feasible_average(report: CoverageReport) -> tuple[bool, float]:
    return (report.feasible, report.average_coverage)


def _stage2(
    estimator: CoverageEstimator,
    grid: BiasGrid,
    stationary: float,
) -> tuple[BiasVector, CoverageReport]:
    """Walking-bias scan; returns the final (bias, report).

    Scans the grid upward and stops at the first walking bias whose
    stage-3 completion (the vehicular-coverage argmax) meets the vehicular
    coverage threshold: the macro resources vacated by walking users are
    just enough. Falls back to the completion with the best vehicular
    coverage when none qualifies.
    """
    min_vehicular = estimator.config.profiles[UserClass.VEHICULAR].min_coverage
    vehicular = _class_coverage(UserClass.VEHICULAR)
    completions = []
    for walking in grid:
        biases = (BiasVector(stationary, walking, v) for v in grid)
        bias, report = _best(estimator, biases, vehicular)
        if vehicular(report) >= min_vehicular:
            return bias, report
        completions.append((bias, report))
    return max(completions, key=lambda item: vehicular(item[1]))


def _three_stage(
    estimator: CoverageEstimator, grid: BiasGrid
) -> tuple[BiasVector, CoverageReport]:
    """Compose the three per-class stages under common random numbers.

    Stage 1 takes the bias maximizing stationary coverage with the other
    classes unbiased; stages 2 and 3 are the walking scan of ``_stage2``.
    """
    stage1, _ = _best(
        estimator,
        (BiasVector(b, 1.0, 1.0) for b in grid),
        _class_coverage(UserClass.STATIONARY),
    )
    return _stage2(estimator, grid, stage1.stationary_bias)


def _cre(
    estimator: CoverageEstimator, grid: BiasGrid
) -> tuple[BiasVector, CoverageReport]:
    """Best common bias: highest average coverage, feasible candidates first.

    When no common bias is feasible the best-average infeasible candidate
    is returned. Ties break to the smallest bias.
    """
    biases = (BiasVector.uniform(b) for b in grid)
    return _best(estimator, biases, _feasible_average)


def _full_search(
    estimator: CoverageEstimator, grid: BiasGrid
) -> tuple[BiasVector, CoverageReport]:
    """Exhaustive search over the grid cube; the optimality oracle.

    Feasible candidates are preferred; among equals the lexicographically
    smallest (stationary, walking, vehicular) triple wins.
    """
    biases = (BiasVector(*triple) for triple in itertools.product(grid, repeat=3))
    return _best(estimator, biases, _feasible_average)


_SCHEME_RUNNERS = {
    Scheme.THREE_STAGE: _three_stage,
    Scheme.CRE: _cre,
    Scheme.FULL_SEARCH: _full_search,
}


def run_scheme(
    scheme: Scheme, estimator: CoverageEstimator, grid: BiasGrid
) -> tuple[BiasVector, CoverageReport]:
    """Run one association scheme: its winning bias vector and that report."""
    return _SCHEME_RUNNERS[scheme](estimator, grid)


def check_bracket(w_min: float, w_max: float, tolerance: float) -> None:
    """Raise ValueError unless 0 < w_min <= w_max and 0 < tolerance < inf.

    NaN fails both checks. An infinite tolerance would end the bisection
    before its first step and return the top of the bracket.
    """
    if not 0.0 < w_min <= w_max:
        raise ValueError("need 0 < w_min <= w_max")
    if not 0.0 < tolerance < math.inf:
        raise ValueError("tolerance must be > 0 and finite")


def required_bandwidth(
    estimator: CoverageEstimator,
    grid: BiasGrid,
    scheme: Scheme,
    w_min: float,
    tolerance: float,
) -> float:
    """Smallest bandwidth at which the scheme's optimizer is feasible.

    ``estimator``'s bandwidth is the top of the bracket and its first
    probe; every lower probe rebinds it with ``with_bandwidth``, so the
    geometry and demand stay fixed. This assumes feasibility is monotone
    in bandwidth. For a fixed bias vector it is: association and loads do
    not depend on the bandwidth, and each user's rate
    W/load * log2(1 + S/(I + N0*W)) increases with W, so every per-class
    coverage can only rise. CRE and full search are feasible iff some
    candidate of a fixed set is, so their feasibility is monotone too.
    Three-stage chooses its biases from coverages that move with W, so for
    it monotonicity is only observed, not proven. Bisection stops once the
    bracket is at most ``tolerance`` wide or its ends are adjacent floats,
    whichever comes first. Raises UnsatisfiableRequirementError when even
    the top is infeasible.
    """
    w_max = estimator.config.bandwidth
    check_bracket(w_min, w_max, tolerance)

    def feasible_at(width: float) -> bool:
        _, report = run_scheme(scheme, estimator.with_bandwidth(width), grid)
        return report.feasible

    _, report = run_scheme(scheme, estimator, grid)
    if not report.feasible:
        profiles = estimator.config.profiles
        names = ", ".join(
            cls.label
            for cls in UserClass
            if report.per_class_coverage[cls] < profiles[cls].min_coverage
        )
        raise UnsatisfiableRequirementError(
            f"{scheme.value} infeasible even at {w_max:g} Hz (failing: {names})"
        )
    if feasible_at(w_min):
        return w_min

    low, high = w_min, w_max  # invariant: low infeasible, high feasible
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if not low < mid < high:  # adjacent floats: no width lies between
            break
        if feasible_at(mid):
            high = mid
        else:
            low = mid
    return high


def convexity_sweep(
    base: DemandScenario,
    convexity_values: Sequence[float],
    config: NetworkConfig,
    grid: BiasGrid,
    schemes: Sequence[Scheme] = tuple(Scheme),
) -> list[tuple[float, Scheme, BiasVector, CoverageReport]]:
    """Evaluate every scheme across a range of user-convexity values.

    Returns one (convexity, scheme, bias, report) row per point and scheme,
    schemes in the given order within each point. Total volume and the
    stationary share stay fixed; only the split of moving traffic between
    walking and vehicular users varies. One trial geometry is built and
    every point binds its demand to it, so rows see identical deployments
    and fading and are exactly comparable.
    """
    # every point's config first: a bad convexity, or a volume whose rate
    # requirement overflows, fails before the geometry is built
    point_configs = [
        config.with_volumes(replace(base, user_convexity=value).class_volumes())
        for value in convexity_values
    ]
    geometry = TrialGeometry(config)
    rows = []
    for convexity, point_config in zip(convexity_values, point_configs):
        estimator = CoverageEstimator(point_config, geometry)
        for scheme in schemes:
            rows.append((convexity, scheme, *run_scheme(scheme, estimator, grid)))
        # release this point's parts (caps and undecided users) before
        # binding the next; the associations stay on the geometry for it
        del estimator
    return rows
