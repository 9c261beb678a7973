"""Bias selection schemes, bandwidth dimensioning, convexity sweep."""

import itertools
import math
import time
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexcell import (
    DEFAULT_CONVEXITY_VALUES,
    DEFAULT_GRID_DB,
    BiasGrid,
    BiasVector,
    DemandScenario,
    NetworkConfig,
    Scheme,
    UnsatisfiableRequirementError,
    UserClass,
    convexity_sweep,
    coverage,
    required_bandwidth,
    run_scheme,
)
from convexcell import optimizer
from convexcell.coverage import CoverageReport
from convexcell.optimizer import (
    _UPPER_MARGIN,
    _class_coverage,
    _cre,
    _feasible_average,
    _full_search,
    _stage2,
    _three_stage,
    _walk,
)
from helpers import (
    at_two_chunk_sizes,
    estimator_for,
    reference_cre,
    reference_float_coverage,
    reference_full_search,
    reference_stage1,
    reference_stage2,
    reference_stage3,
)

SMALL_GRID = BiasGrid.from_db([0.0, 4.0, 8.0, 12.0])
DEFAULT_GRID = BiasGrid.from_db(DEFAULT_GRID_DB)
# 0 to 20 dB in 1 dB steps, twice the default grid's resolution
FINE_GRID = BiasGrid.from_db([float(db) for db in range(21)])


@pytest.fixture
def estimator(tiny_config):
    return estimator_for(tiny_config)


class TestBiasGrid:
    def test_default_grid(self):
        grid = BiasGrid.from_db(DEFAULT_GRID_DB)
        assert len(grid.values) == 11
        assert grid.values[0] == 1.0
        assert grid.values[-1] == pytest.approx(100.0)
        assert DEFAULT_GRID_DB == tuple(float(d) for d in range(0, 21, 2))

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            BiasGrid(())
        with pytest.raises(ValueError, match="start at 1"):
            BiasGrid((2.0, 4.0))
        with pytest.raises(ValueError, match="increasing"):
            BiasGrid((1.0, 3.0, 3.0))

    @pytest.mark.parametrize(
        "values", [(1.0, math.nan), (1.0, 2.0, math.inf), (math.nan, 1.0)]
    )
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError, match="bias grid values must be finite"):
            BiasGrid(values)

    @pytest.mark.parametrize(
        "db_values", [(0.0, math.nan), (0.0, math.inf), (0.0, 2.0, -math.inf)]
    )
    def test_non_finite_db_values_rejected_as_given(self, db_values):
        with pytest.raises(ValueError, match="dB values must be finite") as info:
            BiasGrid.from_db(db_values)
        assert str(db_values) in str(info.value)

    def test_iteration_order(self):
        assert list(SMALL_GRID)[0] == 1.0
        assert list(SMALL_GRID) == sorted(SMALL_GRID.values)


class TestDemandScenario:
    def test_measured_2015(self):
        scenario = DemandScenario.measured_2015()
        assert scenario.total_volume == 145.05
        assert scenario.stationary_share == 0.6107
        assert scenario.user_convexity == 3.04

    def test_class_volumes_at_measured_convexity(self):
        volumes = DemandScenario.measured_2015().class_volumes()
        assert volumes[0] == pytest.approx(88.582035, abs=1e-9)
        assert volumes[1] == pytest.approx(13.9772191, abs=1e-6)
        assert volumes[2] == pytest.approx(42.4907461, abs=1e-6)

    def test_unit_convexity_splits_moving_evenly(self):
        volumes = replace(DemandScenario.measured_2015(), user_convexity=1.0).class_volumes()
        assert volumes[1] == volumes[2] == pytest.approx(28.2339825, abs=1e-9)

    @given(st.floats(0.1, 20.0), st.floats(1.0, 500.0))
    def test_volumes_conserve_total(self, convexity, total):
        scenario = DemandScenario(total, 0.6107, convexity)
        assert sum(scenario.class_volumes()) == pytest.approx(total, rel=1e-9)

    def test_validation(self):
        for total in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="total_volume"):
                DemandScenario(total, 0.6, 1.0)
        for share in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="stationary_share"):
                DemandScenario(1.0, share, 1.0)
        for convexity in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="user_convexity"):
                DemandScenario(1.0, 0.6, convexity)

    def test_apply_writes_profile_volumes(self, tiny_config):
        scenario = DemandScenario(100.0, 0.5, 4.0)
        config = tiny_config.with_volumes(scenario.class_volumes())
        assert [p.traffic_volume for p in config.profiles] == pytest.approx(
            [50.0, 10.0, 40.0]
        )


def stage_walk(estimator, user_class, values, fixed=(1.0, 1.0)):
    """Stage 1 or stage 3: the walk over one class's values, the other two
    classes at the fixed values, keyed by the class's own coverage."""
    lists = [[value] for value in fixed]
    lists.insert(user_class, values)
    return _walk(
        estimator, lists, _class_coverage(user_class), itemgetter(user_class)
    )


class TestStages:
    def test_singleton_grid_forces_unbiased(self, estimator):
        grid = BiasGrid((1.0,))
        unbiased = BiasVector(1.0, 1.0, 1.0)
        assert stage_walk(estimator, UserClass.STATIONARY, grid.values)[0] == unbiased
        assert _stage2(estimator, grid, 1.0)[0] == unbiased
        assert stage_walk(estimator, UserClass.VEHICULAR, grid.values)[0] == unbiased

    def test_stage1_all_candidates_tie_without_smalls(self):
        config = NetworkConfig(
            area_side=1000.0, macro_density=3.0, small_density=0.0,
            user_count=60, trials=2,
        )
        estimator = estimator_for(config)
        bias, _ = run_scheme(Scheme.THREE_STAGE, estimator, SMALL_GRID)
        assert bias.stationary_bias == 1.0

    def test_stage1_matches_brute_force(self, estimator):
        expected = reference_stage1(estimator, SMALL_GRID)
        bias, _ = run_scheme(Scheme.THREE_STAGE, estimator, SMALL_GRID)
        assert bias.stationary_bias == expected

    def test_stage3_matches_brute_force(self, estimator):
        expected_bias, _, expected_report = reference_stage3(
            estimator, SMALL_GRID, 2.0, 1.0
        )
        got = stage_walk(estimator, UserClass.VEHICULAR, SMALL_GRID.values, (2.0, 1.0))
        assert got == (BiasVector(2.0, 1.0, expected_bias), expected_report)

    def test_stage2_zero_vehicular_demand_stays_low(self, tiny_config):
        config = tiny_config.with_volumes([50.0, 10.0, 0.0])
        bias, _ = _stage2(estimator_for(config), SMALL_GRID, 1.0)
        assert bias.walking_bias == 1.0

    def test_stage2_matches_scan_rule(self, estimator):
        b_s = reference_stage1(estimator, SMALL_GRID)
        expected_w, expected_v, _ = reference_stage2(estimator, SMALL_GRID, b_s)
        bias, _ = run_scheme(Scheme.THREE_STAGE, estimator, SMALL_GRID)
        assert bias.walking_bias == expected_w
        assert bias.vehicular_bias == expected_v


class TestThreeStage:
    def test_singleton_grid(self, estimator):
        bias, _ = run_scheme(Scheme.THREE_STAGE, estimator, BiasGrid((1.0,)))
        assert bias == BiasVector(1.0, 1.0, 1.0)

    def test_zero_demand_ties_to_unbiased(self, tiny_config):
        config = tiny_config.with_volumes([0.0, 0.0, 0.0])
        estimator = estimator_for(config)
        bias, report = run_scheme(Scheme.THREE_STAGE, estimator, SMALL_GRID)
        assert bias == BiasVector(1.0, 1.0, 1.0)
        assert report.average_coverage == 1.0
        assert report.feasible

    def test_report_matches_returned_bias(self, tiny_config, estimator):
        bias, report = run_scheme(Scheme.THREE_STAGE, estimator, SMALL_GRID)
        fresh = estimator_for(tiny_config).evaluate(bias)
        assert report == fresh


class TestCre:
    def test_singleton_grid(self, estimator):
        bias, _ = run_scheme(Scheme.CRE, estimator, BiasGrid((1.0,)))
        assert bias == BiasVector(1.0, 1.0, 1.0)

    def test_common_bias_by_construction(self, estimator):
        bias, _ = run_scheme(Scheme.CRE, estimator, SMALL_GRID)
        assert bias.stationary_bias == bias.walking_bias == bias.vehicular_bias

    def test_matches_selection_reference(self, estimator):
        expected_bias, expected_report = reference_cre(estimator, SMALL_GRID)
        bias, report = run_scheme(Scheme.CRE, estimator, SMALL_GRID)
        assert bias == BiasVector.uniform(expected_bias)
        assert report == expected_report


def assert_full_search_is_brute_force(estimator, grid=DEFAULT_GRID):
    """Full search returns the enumeration oracle's (bias, report); returns it."""
    expected_triple, expected_report = reference_full_search(estimator, grid)
    bias, report = run_scheme(Scheme.FULL_SEARCH, estimator, grid)
    assert bias == BiasVector(*expected_triple)
    assert report == expected_report
    return bias, report


def with_min_coverage(config, value):
    profiles = tuple(replace(p, min_coverage=value) for p in config.profiles)
    return replace(config, profiles=profiles)


# variants of the tiny config, each searched over the default 11-value grid
FULL_SEARCH_CONFIGS = {
    "tiny": lambda config: config,
    "no-small-tier": lambda config: replace(config, small_density=0.0),
    "noise-free": lambda config: replace(config, noise_power=0.0),
    "moderate-demand": lambda config: config.with_volumes([400.0, 60.0, 200.0]),
}

# variants at which no triple is feasible
INFEASIBLE_CONFIGS = {
    "thresholds-of-one": lambda config: with_min_coverage(config, 1.0),
    "volumes-past-every-cap": lambda config: config.with_volumes([1e7, 1e7, 1e7]),
}


class TestFullSearch:
    def test_singleton_grid(self, estimator):
        grid = BiasGrid((1.0,))
        bias, _ = assert_full_search_is_brute_force(estimator, grid)
        assert bias == BiasVector(1.0, 1.0, 1.0)

    def test_matches_enumeration_reference(self, estimator):
        assert_full_search_is_brute_force(estimator, SMALL_GRID)

    @pytest.mark.parametrize(
        "variant", FULL_SEARCH_CONFIGS.values(), ids=FULL_SEARCH_CONFIGS.keys()
    )
    def test_matches_brute_force_on_the_default_grid(self, tiny_config, variant):
        assert_full_search_is_brute_force(estimator_for(variant(tiny_config)))

    @pytest.mark.parametrize("name", ["tiny", "moderate-demand"])
    def test_matches_brute_force_on_a_21_value_grid(self, tiny_config, name):
        estimator = estimator_for(FULL_SEARCH_CONFIGS[name](tiny_config))
        assert_full_search_is_brute_force(estimator, FINE_GRID)

    @pytest.mark.parametrize(
        "variant", INFEASIBLE_CONFIGS.values(), ids=INFEASIBLE_CONFIGS.keys()
    )
    def test_matches_brute_force_when_nothing_is_feasible(self, tiny_config, variant):
        estimator = estimator_for(variant(tiny_config))
        _, report = assert_full_search_is_brute_force(estimator)
        assert not report.feasible

    def test_every_triple_tied_gives_the_unbiased_triple(self, tiny_config):
        estimator = estimator_for(tiny_config.with_volumes([0.0, 0.0, 0.0]))
        bias, report = assert_full_search_is_brute_force(estimator)
        assert bias == BiasVector(1.0, 1.0, 1.0)
        assert report.per_class_coverage == (1.0, 1.0, 1.0)

    def test_dominates_both_schemes(self, estimator):
        _, oracle = run_scheme(Scheme.FULL_SEARCH, estimator, SMALL_GRID)
        _, heuristic = run_scheme(Scheme.THREE_STAGE, estimator, SMALL_GRID)
        _, baseline = run_scheme(Scheme.CRE, estimator, SMALL_GRID)
        assert oracle.average_coverage >= heuristic.average_coverage
        assert oracle.average_coverage >= baseline.average_coverage


@given(
    seed=st.integers(0, 2**31 - 1),
    volume=st.floats(10.0, 2000.0),
    convexity=st.floats(0.1, 10.0),
    trials=st.integers(1, 2),
)
def test_full_search_matches_brute_force_across_demand(seed, volume, convexity, trials):
    config = NetworkConfig(trials=trials, seed=seed)
    volumes = DemandScenario(volume, 0.6107, convexity).class_volumes()
    assert_full_search_is_brute_force(estimator_for(config.with_volumes(volumes)))


def test_full_search_skips_only_triples_that_cannot_win(estimator, monkeypatch):
    evaluated = []
    reports = {}
    evaluate = estimator.evaluate

    def recording(bias):
        triple = (bias.stationary_bias, bias.walking_bias, bias.vehicular_bias)
        evaluated.append(triple)
        reports[triple] = evaluate(bias)
        return reports[triple]

    monkeypatch.setattr(estimator, "evaluate", recording)
    _, report = run_scheme(Scheme.FULL_SEARCH, estimator, DEFAULT_GRID)
    seen = set(evaluated)
    assert len(evaluated) == len(seen) < 11**3
    winner = _feasible_average(report)
    # each triple's upper key, from the per-class bounds alone: every bound
    # meets its class's threshold, and the density-weighted sum of the bounds
    config = estimator.config
    values = DEFAULT_GRID.values
    thresholds = [p.min_coverage for p in config.profiles]
    fractions = config.density_fractions()
    for indices in itertools.product(range(len(values)), repeat=3):
        column = [estimator.coverage_bound(cls, values[i]) for cls, i in enumerate(indices)]
        upper = (
            all(bound >= t for bound, t in zip(column, thresholds)),
            sum(f * bound for f, bound in zip(fractions, column)) * (1 + _UPPER_MARGIN),
        )
        triple = tuple(values[i] for i in indices)
        if triple in seen:
            assert _feasible_average(reports[triple]) <= upper
        else:
            assert upper < winner


def test_stage_walks_skip_only_candidates_that_cannot_win(estimator, monkeypatch):
    """Three-stage's stage-1 walk and each of its stage-3 walks evaluate
    every candidate whose coverage bound reaches the winner's coverage,
    and skip at least one candidate overall."""
    walks = []  # (offered lists, evaluated triples) per walk
    winners = []  # the report each walk returned
    walk, evaluate = optimizer._walk, estimator.evaluate

    def recording_walk(estimator, lists, key, upper):
        walks.append((lists, set()))
        bias, report = walk(estimator, lists, key, upper)
        winners.append(report)
        return bias, report

    def recording(bias):
        walks[-1][1].add((bias.stationary_bias, bias.walking_bias, bias.vehicular_bias))
        return evaluate(bias)

    monkeypatch.setattr(optimizer, "_walk", recording_walk)
    monkeypatch.setattr(estimator, "evaluate", recording)
    _three_stage(estimator, DEFAULT_GRID)
    assert len(walks) >= 2
    skipped = 0
    for (lists, evaluated), winner in zip(walks, winners):
        # stage 1 offers the grid to the stationary class, stage 3 to the
        # vehicular class
        cls = UserClass.STATIONARY if len(lists[0]) > 1 else UserClass.VEHICULAR
        assert list(lists[cls]) == list(DEFAULT_GRID.values)
        for triple in itertools.product(*lists):
            if triple not in evaluated:
                bound = estimator.coverage_bound(cls, triple[cls])
                assert bound < winner.per_class_coverage[cls]
                skipped += 1
    assert skipped > 0


def past_every_useful_bias(estimator):
    """The default grid and two values beyond every user's macro-to-small
    mean power ratio: each puts every user with a small station on it, so
    the two tie in every class."""
    geo = estimator.geometry
    has_small = geo.pw_small > 0
    ratio = np.max(geo.pw_macro[has_small] / geo.pw_small[has_small], initial=0.0)
    top = max(DEFAULT_GRID.values[-1], float(ratio))
    return BiasGrid((*DEFAULT_GRID.values, 2.0 * top, 4.0 * top))


@given(
    seed=st.integers(0, 2**31 - 1),
    volume=st.floats(10.0, 2000.0),
    convexity=st.floats(0.1, 10.0),
    tied=st.booleans(),
)
def test_three_stage_matches_the_unbounded_stages_across_demand(
    seed, volume, convexity, tied
):
    """The bounded walks pick the biases and report of the stages' plain
    scans, on the default grid and on one whose last two values tie."""
    config = NetworkConfig(trials=2, seed=seed)
    volumes = DemandScenario(volume, 0.6107, convexity).class_volumes()
    estimator = estimator_for(config.with_volumes(volumes))
    grid = past_every_useful_bias(estimator) if tied else DEFAULT_GRID
    if tied:
        last_two = [estimator.evaluate(BiasVector.uniform(b)) for b in grid.values[-2:]]
        assert last_two[0] == last_two[1]
    stationary = reference_stage1(estimator, grid)
    walking, vehicular, report = reference_stage2(estimator, grid, stationary)
    expected = (BiasVector(stationary, walking, vehicular), report)
    assert run_scheme(Scheme.THREE_STAGE, estimator, grid) == expected


class StubEstimator:
    """Fixed reports by bias triple; records the order of evaluation.

    Every coverage bound is 1.0, the weakest valid one: no walk skips a
    candidate, and equal bounds keep the values in grid order.
    """

    def __init__(self, reports):
        self.reports = reports
        self.calls = []

    def evaluate(self, bias):
        key = (bias.stationary_bias, bias.walking_bias, bias.vehicular_bias)
        self.calls.append(key)
        return self.reports[key]

    def coverage_bound(self, cls, value):
        return 1.0


def stub_report(average, feasible, vehicular=0.0):
    return CoverageReport((average, average, vehicular), average, feasible, 1)


# (feasible, average) of candidates 1, 2, 3, ... and the index that must win
SELECTION_CASES = {
    "equal averages keep the first": ([(True, 0.5), (True, 0.5), (True, 0.5)], 0),
    "equal infeasible keep the first": ([(False, 0.5), (False, 0.5)], 0),
    "feasible beats higher infeasible": (
        [(False, 0.9), (True, 0.6), (False, 0.95), (True, 0.6)], 1
    ),
    "best feasible among feasible": ([(True, 0.4), (False, 0.9), (True, 0.7)], 2),
    "all infeasible give the best average": (
        [(False, 0.3), (False, 0.7), (False, 0.5), (False, 0.7)], 1
    ),
}


@pytest.mark.parametrize(
    "candidates, winner", SELECTION_CASES.values(), ids=SELECTION_CASES.keys()
)
def test_select_rule_on_fixed_reports(candidates, winner):
    grid = BiasGrid(tuple(float(i + 1) for i in range(len(candidates))))
    biases = [BiasVector.uniform(b) for b in grid]
    reports = [stub_report(average, feasible) for feasible, average in candidates]
    stub = StubEstimator({(b,) * 3: r for b, r in zip(grid, reports)})
    assert _cre(stub, grid) == (biases[winner], reports[winner])
    assert stub.calls == [(b,) * 3 for b in grid]


@pytest.mark.parametrize(
    "coverages, winner",
    [([0.5, 0.5, 0.5], 0), ([0.2, 0.7, 0.7, 0.1], 1), ([0.1, 0.2, 0.3], 2)],
)
def test_argmax_rule_on_fixed_reports(coverages, winner):
    grid = BiasGrid(tuple(float(i + 1) for i in range(len(coverages))))
    # the average runs against the class coverage, so only the class counts
    reports = [stub_report(1.0 - c, True, vehicular=c) for c in coverages]
    stub = StubEstimator({(1.0, 1.0, b): r for b, r in zip(grid, reports)})
    got = stage_walk(stub, UserClass.VEHICULAR, grid.values)
    assert got == (BiasVector(1.0, 1.0, grid.values[winner]), reports[winner])
    assert stub.calls == [(1.0, 1.0, b) for b in grid]


def test_full_search_keeps_the_first_of_equal_keys_evaluated_last():
    # (2, 2, 2) has the highest upper key and is evaluated first; (1, 1, 1)
    # has the lowest, is evaluated last, ties it and is first in product order
    grid = BiasGrid((1.0, 2.0))
    cube = itertools.product(grid, repeat=3)
    reports = {triple: stub_report(0.5, True) for triple in cube}
    reports[(1.0, 1.0, 1.0)] = reports[(2.0, 2.0, 2.0)] = stub_report(0.9, True)
    stub = StubEstimator(reports)
    stub.config = NetworkConfig()
    stub.coverage_bound = lambda cls, value: 0.9 if value == 1.0 else 1.0
    bias, report = _full_search(stub, grid)
    assert bias == BiasVector(1.0, 1.0, 1.0)
    assert report is reports[(1.0, 1.0, 1.0)]
    assert stub.calls[0] == (2.0, 2.0, 2.0)
    assert stub.calls[-1] == (1.0, 1.0, 1.0)


def test_full_search_holds_per_class_state_only():
    # only the unbiased triple meets every threshold, so it is evaluated
    # first and every other triple is skipped; state of even one byte per
    # triple of the 61³ cube would pass the 1 MB bound
    grid = BiasGrid.from_db([db / 3 for db in range(61)])
    stub = StubEstimator(defaultdict(lambda: stub_report(0.5, True)))
    stub.config = NetworkConfig()
    stub.coverage_bound = lambda cls, value: 1.0 if value == 1.0 else 0.5
    tracemalloc.start()
    try:
        bias, _ = _full_search(stub, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bias == BiasVector(1.0, 1.0, 1.0)
    assert stub.calls == [(1.0, 1.0, 1.0)]
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n, seconds", [(401, 1.0), (3001, 0.25)], ids=["401-values", "3001-values"]
)
def test_full_search_skips_stationary_values_that_cannot_win(n, seconds):
    # as above on a larger grid: after the unbiased triple no stationary or
    # walking value but the first can reach its key, so the walk checks
    # about 2n keys, not all n³ (64 M at 401 values, seconds in Python); a
    # walk checking each of the first stationary value's n² keys takes
    # about 0.5 s at 3001 values (python 3.11 on 2 vCPUs)
    grid = BiasGrid.from_db([db / (n // 20) for db in range(n)])
    stub = StubEstimator(defaultdict(lambda: stub_report(0.5, True)))
    stub.config = NetworkConfig()
    stub.coverage_bound = lambda cls, value: 1.0 if value == 1.0 else 0.5
    start = time.perf_counter()
    bias, _ = _full_search(stub, grid)
    elapsed = time.perf_counter() - start
    assert bias == BiasVector(1.0, 1.0, 1.0)
    assert stub.calls == [(1.0, 1.0, 1.0)]
    assert elapsed < seconds


def stage2_stub(vehicular_coverages):
    """Stub whose candidate (1, w, v) has the vehicular coverage given at [w][v].

    Its config is the default one, whose vehicular threshold is 0.8.
    """
    stub = StubEstimator(
        {
            (1.0, w, v): stub_report(0.5, False, vehicular=coverage)
            for w, row in vehicular_coverages.items()
            for v, coverage in row.items()
        }
    )
    stub.config = NetworkConfig()
    return stub


def test_stage2_falls_back_to_the_first_of_equal_completions():
    # no walking value reaches 0.8, and walking 1 and 2 complete to the same
    # best vehicular coverage
    grid = BiasGrid((1.0, 2.0, 3.0))
    stub = stage2_stub(
        {
            1.0: {1.0: 0.3, 2.0: 0.6, 3.0: 0.6},
            2.0: {1.0: 0.6, 2.0: 0.2, 3.0: 0.1},
            3.0: {1.0: 0.5, 2.0: 0.5, 3.0: 0.4},
        }
    )
    bias, report = _stage2(stub, grid, 1.0)
    assert bias == BiasVector(1.0, 1.0, 2.0)
    assert report is stub.reports[(1.0, 1.0, 2.0)]
    assert stub.calls == [(1.0, w, v) for w in grid for v in grid]


def test_stage2_stops_at_the_first_qualifying_walking_value():
    grid = BiasGrid((1.0, 2.0, 3.0))
    stub = stage2_stub(
        {
            1.0: {1.0: 0.7, 2.0: 0.3, 3.0: 0.1},
            2.0: {1.0: 0.1, 2.0: 0.9, 3.0: 0.9},
            3.0: {1.0: 1.0, 2.0: 1.0, 3.0: 1.0},
        }
    )
    bias, report = _stage2(stub, grid, 1.0)
    assert bias == BiasVector(1.0, 2.0, 2.0)
    assert report is stub.reports[(1.0, 2.0, 2.0)]
    # walking 3 is never scanned
    assert stub.calls == [(1.0, w, v) for w in (1.0, 2.0) for v in grid]


def test_run_scheme_dispatch(estimator):
    selectors = {
        Scheme.THREE_STAGE: _three_stage,
        Scheme.CRE: _cre,
        Scheme.FULL_SEARCH: _full_search,
    }
    for scheme, selector in selectors.items():
        expected = selector(estimator, SMALL_GRID)
        assert run_scheme(scheme, estimator, SMALL_GRID) == expected


def bound_at(config, bandwidth):
    """Estimator of config at bandwidth: the top of a bisection's bracket."""
    return estimator_for(replace(config, bandwidth=bandwidth))


class TestRequiredBandwidth:
    def test_zero_demand_returns_w_min(self, tiny_config):
        config = tiny_config.with_volumes([0.0, 0.0, 0.0])
        width = required_bandwidth(
            bound_at(config, 1e8), SMALL_GRID, Scheme.CRE, 1e6, 1e5
        )
        assert width == 1e6

    def test_validation(self, estimator):
        top = estimator.config.bandwidth
        with pytest.raises(ValueError, match="w_min"):
            required_bandwidth(estimator, SMALL_GRID, Scheme.CRE, 0.0, 1e5)
        with pytest.raises(ValueError, match="w_min"):
            required_bandwidth(estimator, SMALL_GRID, Scheme.CRE, 2 * top, 1e5)
        for tolerance in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                required_bandwidth(estimator, SMALL_GRID, Scheme.CRE, 1e6, tolerance)

    def test_unsatisfiable_names_failing_classes(self, tiny_config):
        """The message lists exactly the classes below their min_coverage
        under the scheme's choice at the top of the bracket."""
        seen = set()
        # all three classes fail, walking alone, walking and vehicular
        for volumes in ([12000.0, 3000.0, 8000.0], [120.0, 3000.0, 80.0],
                        [120.0, 300.0, 800.0]):
            config = tiny_config.with_volumes(volumes)
            with pytest.raises(UnsatisfiableRequirementError) as excinfo:
                required_bandwidth(
                    bound_at(config, 2e6), SMALL_GRID, Scheme.CRE, 1e6, 1e5
                )
            _, top = run_scheme(Scheme.CRE, bound_at(config, 2e6), SMALL_GRID)
            failing = ", ".join(
                cls.label
                for cls in UserClass
                if top.per_class_coverage[cls] < config.profiles[cls].min_coverage
            )
            assert str(excinfo.value) == (
                f"cre infeasible even at 2e+06 Hz (failing: {failing})"
            )
            seen.add(failing)
        assert len(seen) == 3

    @pytest.mark.parametrize(
        "scheme, block_links", at_two_chunk_sizes([Scheme.CRE, Scheme.THREE_STAGE])
    )
    def test_bisection_brackets_the_threshold(
        self, tiny_config, monkeypatch, scheme, block_links
    ):
        if block_links is not None:
            monkeypatch.setattr(coverage, "BLOCK_LINKS", block_links)
        tolerance = 1e5
        config = tiny_config.with_volumes([120.0, 30.0, 80.0])
        base = bound_at(config, 1e9)
        width = required_bandwidth(base, SMALL_GRID, scheme, 1e6, tolerance)
        assert width > 1e6 + 2 * tolerance  # interior solution, not the edge
        at_width = base.with_bandwidth(width)
        below_width = base.with_bandwidth(width - 2 * tolerance)
        bias_at, at = run_scheme(scheme, at_width, SMALL_GRID)
        bias_below, below = run_scheme(scheme, below_width, SMALL_GRID)
        assert at.feasible
        assert not below.feasible
        # both ends of the bracket as the float kernel computes them
        assert [at] == reference_float_coverage(at_width, [bias_at])
        assert [below] == reference_float_coverage(below_width, [bias_below])
        # a tolerance below the float spacing near the threshold ends the
        # bisection at two adjacent floats
        width = required_bandwidth(base, SMALL_GRID, scheme, 1e6, 1e-12)
        _, at = run_scheme(scheme, base.with_bandwidth(width), SMALL_GRID)
        _, below = run_scheme(
            scheme, base.with_bandwidth(math.nextafter(width, 0.0)), SMALL_GRID
        )
        assert at.feasible
        assert not below.feasible

    def test_monotone_in_total_volume(self, tiny_config):
        lighter = tiny_config.with_volumes([120.0, 30.0, 80.0])
        heavier = tiny_config.with_volumes([240.0, 60.0, 160.0])
        w_light = required_bandwidth(
            bound_at(lighter, 1e9), SMALL_GRID, Scheme.CRE, 1e6, 1e5
        )
        w_heavy = required_bandwidth(
            bound_at(heavier, 1e9), SMALL_GRID, Scheme.CRE, 1e6, 1e5
        )
        assert w_heavy >= w_light


class TestConvexitySweep:
    def test_row_layout(self, tiny_config):
        values = (1.0, 3.04)
        rows = convexity_sweep(
            DemandScenario.measured_2015(), values, tiny_config, SMALL_GRID
        )
        assert len(rows) == len(values) * len(tuple(Scheme))
        assert [convexity for convexity, _, _, _ in rows] == [1.0] * 3 + [3.04] * 3
        assert [scheme for _, scheme, _, _ in rows] == list(Scheme) * 2

    def test_scheme_subset(self, tiny_config):
        rows = convexity_sweep(
            DemandScenario.measured_2015(), (2.0,), tiny_config, SMALL_GRID,
            schemes=(Scheme.CRE,),
        )
        assert len(rows) == 1
        assert rows[0][0] == 2.0
        assert rows[0][1] is Scheme.CRE

    def test_deterministic(self, tiny_config):
        args = (DemandScenario.measured_2015(), (1.0, 4.0), tiny_config, SMALL_GRID)
        assert convexity_sweep(*args) == convexity_sweep(*args)

    def test_samples_each_trial_once(self, tiny_config, monkeypatch):
        calls = []
        sample = coverage.sample_deployment
        monkeypatch.setattr(
            coverage, "sample_deployment", lambda *a: calls.append(a) or sample(*a)
        )
        convexity_sweep(
            DemandScenario.measured_2015(), (1.0, 4.0, 8.0), tiny_config, SMALL_GRID
        )
        assert len(calls) == tiny_config.trials

    def test_rejects_non_positive_convexity(self, tiny_config, monkeypatch):
        calls = []
        monkeypatch.setattr(coverage, "sample_deployment", lambda *a: calls.append(a))
        for bad in (0.0, -2.0, math.nan):
            with pytest.raises(ValueError, match="convexity"):
                convexity_sweep(
                    DemandScenario.measured_2015(), (1.0, bad), tiny_config, SMALL_GRID
                )
        assert calls == []  # refused before the geometry is built

    def test_default_sweep_values(self):
        assert DEFAULT_CONVEXITY_VALUES == (1.0, 2.0, 3.04, 4.0, 5.0, 6.0, 7.0, 8.0)
