"""Bias selection: three-stage heuristic, CRE baseline, full grid search.

The three-stage scheme fixes per-class small-cell biases sequentially:
stationary users get the bias maximizing their own coverage, walking users
get the smallest bias that makes the vehicular constraint attainable
(vacating macro resources), and vehicular users get the bias maximizing
their own coverage given the first two. CRE applies one common bias to all
classes; full search is the optimality oracle: it returns the best triple of
the whole grid cube. Stage 1, stage 3 and full search are one bounded walk
(``_walk``): each class's values in descending order of an exact upper
bound on their coverage, evaluating only the triples whose upper key can
still reach the best key found. A triple's upper key is the key of
``CoverageEstimator.report`` of its three bounds, the one rule that forms
every report. CRE walks the grid's diagonal the same way, with full
search's key. A bound is counted from the binding's rate caps, so a value
the walk skips costs no part. Every scheme and stage keeps the highest
key, and of equal keys the smallest bias (``_keep``). All candidates
under one config share common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .coverage import (
    BiasVector,
    CoverageEstimator,
    CoverageReport,
    TrialGeometry,
    linear_from_db,
)
from .domain import (
    DemandScenario,
    Scheme,
    UnsatisfiableRequirementError,
    UserClass,
)
from .model import NetworkConfig


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


def _keep(
    best: tuple | None,
    estimator: CoverageEstimator,
    key: Callable[[CoverageReport], object],
    index: object,
    bias: BiasVector,
) -> tuple:
    """``best`` or the candidate ``bias``, whichever wins; evaluates ``bias``.

    ``best`` is None or ``(key, index, bias, report)``. The higher key
    wins, and of equal keys the smaller index, the earlier candidate.
    """
    report = estimator.evaluate(bias)
    found = key(report)
    if best is None or found > best[0] or (found == best[0] and index < best[1]):
        return found, index, bias, report
    return best


def _walk(
    estimator: CoverageEstimator,
    lists: Sequence[Sequence[float]],
    key: Callable[[CoverageReport], object],
) -> tuple[BiasVector, CoverageReport]:
    """The triple of ``lists``' product whose report has the highest key.

    ``lists`` holds the stationary, walking and vehicular values offered.
    Of equal keys the earliest triple in ``itertools.product`` order wins,
    the smallest bias. Whatever the other classes' biases, a class's
    coverage under a value is at most its bound
    (``CoverageEstimator.coverage_bound``). A triple's upper key is the
    key of ``estimator.report`` of its three bounds: no report of the
    triple has a higher coverage, average or feasibility (see ``report``),
    and ``key`` must not decrease as they grow, so no report of the triple
    has a higher key. Each list is walked in descending bound,
    so likely winners come early. A triple whose upper key is below the
    best key found is skipped, as is a whole stationary or walking value
    when even its pairing with the later classes' largest bounds falls
    below it. The values after a skipped one have no larger bounds, and
    the best key only grows, so the skip ends that list's walk. The walk
    holds per-class lists only.
    """
    bounds = [
        [estimator.coverage_bound(cls, value) for value in values]
        for cls, values in enumerate(lists)
    ]
    # sorted is stable, so values of equal bounds keep their order
    orders = [sorted(range(len(b)), key=b.__getitem__, reverse=True) for b in bounds]
    b0, b1, b2 = bounds
    top1, top2 = max(b1), max(b2)

    def upper(bounds: tuple[float, float, float]) -> object:
        return key(estimator.report(bounds))

    best = None  # (key, index triple, bias, report)
    for i in orders[0]:
        if best is not None and upper((b0[i], top1, top2)) < best[0]:
            break
        for j in orders[1]:
            if best is not None and upper((b0[i], b1[j], top2)) < best[0]:
                break
            for k in orders[2]:
                if best is not None and upper((b0[i], b1[j], b2[k])) < best[0]:
                    break
                bias = BiasVector(lists[0][i], lists[1][j], lists[2][k])
                best = _keep(best, estimator, key, (i, j, k), bias)
    return best[2], best[3]


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
    coverage when none qualifies, the first of equals.
    """
    min_vehicular = estimator.config.profiles[UserClass.VEHICULAR].min_coverage
    vehicular = _class_coverage(UserClass.VEHICULAR)
    completions = []
    for walking in grid:
        lists = ([stationary], [walking], grid.values)
        bias, report = _walk(estimator, lists, vehicular)
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
    stage1, _ = _walk(
        estimator,
        (grid.values, [1.0], [1.0]),
        _class_coverage(UserClass.STATIONARY),
    )
    return _stage2(estimator, grid, stage1.stationary_bias)


def _cre(
    estimator: CoverageEstimator, grid: BiasGrid
) -> tuple[BiasVector, CoverageReport]:
    """Best common bias: highest average coverage, feasible candidates first.

    When no common bias is feasible the best-average infeasible candidate
    is returned; of equal keys the smallest bias wins. The diagonal is
    walked in descending upper key (the key of the report of the value's
    three bounds, as in ``_walk``), values of equal upper keys in grid
    order, and the walk stops at the first value whose upper key is below
    the best key found.
    """
    uppers = [
        _feasible_average(
            estimator.report([estimator.coverage_bound(cls, value) for cls in range(3)])
        )
        for value in grid
    ]
    best = None
    # sorted is stable, so values of equal upper keys keep their order
    for i in sorted(range(len(uppers)), key=uppers.__getitem__, reverse=True):
        if best is not None and uppers[i] < best[0]:
            break
        best = _keep(best, estimator, _feasible_average, i, BiasVector.uniform(grid.values[i]))
    return best[2], best[3]


def _full_search(
    estimator: CoverageEstimator, grid: BiasGrid
) -> tuple[BiasVector, CoverageReport]:
    """Best triple of the grid cube, feasible first; the optimality oracle.

    Walks the whole cube with ``_feasible_average``.
    """
    return _walk(estimator, [grid.values] * 3, _feasible_average)


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
