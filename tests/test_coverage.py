"""Rates, handover efficiency, and Monte-Carlo coverage estimation."""

import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexcell import (
    DEFAULT_GRID_DB,
    BiasGrid,
    BiasVector,
    ClassProfile,
    CoverageEstimator,
    EstimationError,
    NetworkConfig,
    TrialGeometry,
    UserClass,
    default_profiles,
    estimate_rate_coverage,
    handover_efficiency,
    mean_power_matrix,
    rate_requirement,
    sample_deployment,
)
from convexcell import coverage
from convexcell.optimizer import Scheme, required_bandwidth
from helpers import (
    GivenDeployment,
    associate,
    at_two_chunk_sizes,
    distance_mean_power,
    estimator_for,
    geometry_classes,
    given_geometry,
    hypot_link_distances,
    make_deployment,
    reference_fading,
    reference_float_coverage,
    reference_link_distances,
    reference_rate_coverage,
    reference_rate_factors,
    reference_trial_geometry,
    user_rate,
)


class TestRateRequirement:
    def test_zero_volume(self):
        assert rate_requirement(0.0, 1.0) == 0.0
        assert rate_requirement(0.0, 20.0) == 0.0

    def test_vehicular_2015_volume(self):
        # 42.48 MB/day * 8e6 bits/MB / 86400 s
        assert rate_requirement(42.48, 1.0) == pytest.approx(
            3933.3333333333335, rel=1e-12
        )
        assert rate_requirement(42.48, 20.0) == pytest.approx(
            78666.66666666667, rel=1e-12
        )

    def test_linear_in_both_arguments(self):
        base = rate_requirement(10.0, 2.0)
        assert rate_requirement(20.0, 2.0) == pytest.approx(2 * base)
        assert rate_requirement(10.0, 4.0) == pytest.approx(2 * base)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="volume"):
            rate_requirement(-1.0, 1.0)
        with pytest.raises(ValueError, match="peak_factor"):
            rate_requirement(1.0, 0.5)


class TestHandoverEfficiency:
    def test_stationary_users_lose_nothing(self):
        config = NetworkConfig()
        assert handover_efficiency(0.0, 40.0, config) == 1.0

    def test_zero_delay_lose_nothing(self):
        config = NetworkConfig(handover_delay=0.0)
        assert handover_efficiency(200.0, 1000.0, config) == 1.0

    @given(
        st.floats(0.0, 1e300), st.floats(0.0, 1.7e308), st.floats(0.0, 1.7e308)
    )
    def test_zero_delay_lose_nothing_at_any_finite_crossing_rate(
        self, coefficient, velocity, density
    ):
        config = NetworkConfig(handover_delay=0.0, crossing_coefficient=coefficient)
        assume(math.isfinite(config.crossing_rate(velocity, density)))
        assert handover_efficiency(velocity, density, config) == 1.0

    def test_vehicular_crossing_arithmetic(self):
        # (4/pi) * (31.9/3.6) m/s * sqrt(1e-5 /m^2) * 2 s = 0.0713556 lost
        config = NetworkConfig(handover_delay=2.0)
        assert handover_efficiency(31.9, 10.0, config) == pytest.approx(
            0.9286443615051939, abs=1e-12
        )

    def test_floor_at_zero(self):
        config = NetworkConfig(handover_delay=1e4)
        assert handover_efficiency(100.0, 100.0, config) == 0.0

    def test_default_config_kills_vehicular_small_tier(self):
        # the calibrated operating point: vehicles get nothing from picos
        # but keep most of their macro airtime
        config = NetworkConfig()
        assert handover_efficiency(31.9, config.small_density, config) == 0.0
        macro = handover_efficiency(31.9, config.macro_density, config)
        assert macro == pytest.approx(0.7718348366992294, abs=1e-9)

    @given(st.floats(0.0, 300.0), st.floats(0.0, 500.0))
    def test_bounds(self, velocity, density):
        eff = handover_efficiency(velocity, density, NetworkConfig())
        assert 0.0 <= eff <= 1.0

    @given(st.floats(0.0, 150.0), st.floats(10.0, 150.0))
    def test_non_increasing_in_velocity(self, v, dv):
        config = NetworkConfig()
        assert handover_efficiency(v + dv, 40.0, config) <= handover_efficiency(
            v, 40.0, config
        )

    @given(st.floats(0.0, 20.0), st.floats(0.1, 20.0))
    def test_non_increasing_in_delay(self, delay, extra):
        shorter = NetworkConfig(handover_delay=delay)
        longer = NetworkConfig(handover_delay=delay + extra)
        assert handover_efficiency(31.9, 40.0, longer) <= handover_efficiency(
            31.9, 40.0, shorter
        )

    def test_domain_errors(self):
        config = NetworkConfig()
        with pytest.raises(ValueError):
            handover_efficiency(-1.0, 10.0, config)
        with pytest.raises(ValueError):
            handover_efficiency(1.0, -10.0, config)


def _sole_station_deployment(n_users):
    # one macro 1 m from every user, fading 1: S = macro_power exactly
    users = [[100.0, 101.0]] * n_users
    return make_deployment(
        [[100.0, 100.0]], np.empty((0, 2)), users, np.ones((n_users, 1))
    )


def _one_class_config(user_class, **fields):
    """NetworkConfig whose users are all of user_class."""
    profiles = tuple(
        dataclasses.replace(p, density_fraction=float(p.user_class is user_class))
        for p in default_profiles()
    )
    return NetworkConfig(profiles=profiles, **fields)


def _rate(user, deployment, config, bandwidth=None):
    """Oracle rate of one user under unbiased association."""
    serving = associate(deployment, BiasVector.uniform(1.0), config)
    loads = np.bincount(serving, minlength=deployment.n_stations)
    return user_rate(user, serving, loads, deployment, config, bandwidth)


class TestUserRate:
    def test_sole_user_unit_sinr(self):
        # S = 40 W, N*W = 4e-6 * 1e7 = 40 -> SINR 1, log2(2) = 1
        config = _one_class_config(UserClass.STATIONARY, noise_power=4e-6, user_count=1)
        deployment = _sole_station_deployment(1)
        assert _rate(0, deployment, config) == pytest.approx(1e7, rel=1e-12)

    def test_equal_sharing_splits_bandwidth(self):
        config = _one_class_config(UserClass.STATIONARY, noise_power=4e-6, user_count=10)
        deployment = _sole_station_deployment(10)
        for u in range(10):
            assert _rate(u, deployment, config) == pytest.approx(1e6, rel=1e-12)

    def test_vehicular_handover_scaling(self):
        config = _one_class_config(
            UserClass.VEHICULAR,
            noise_power=4e-6, macro_density=10.0, handover_delay=2.0, user_count=1,
        )
        deployment = _sole_station_deployment(1)
        rate = _rate(0, deployment, config)
        assert rate == pytest.approx(0.9286443615051939e7, rel=1e-12)

    def test_bandwidth_override(self):
        config = _one_class_config(UserClass.STATIONARY, noise_power=4e-7, user_count=1)
        deployment = _sole_station_deployment(1)
        # S = 40, N*W = 4e-7 * 1e8 = 40: same unit SINR at ten times the width
        rate = _rate(0, deployment, config, bandwidth=1e8)
        assert rate == pytest.approx(1e8, rel=1e-12)


def _uniform_profiles(volumes, min_coverage=0.8):
    third = 1.0 / 3.0
    return (
        ClassProfile(UserClass.STATIONARY, third, volumes[0], 0.0, min_coverage),
        ClassProfile(UserClass.WALKING, third, volumes[1], 2.58, min_coverage),
        ClassProfile(UserClass.VEHICULAR, third, volumes[2], 31.9, min_coverage),
    )


class TestEstimator:
    def test_zero_demand_gives_full_coverage(self, tiny_config):
        config = tiny_config.with_volumes([0.0, 0.0, 0.0])
        report = estimate_rate_coverage(config, BiasVector.uniform(1.0))
        assert report.per_class_coverage == (1.0, 1.0, 1.0)
        assert report.average_coverage == 1.0
        assert report.feasible

    def test_huge_bandwidth_asymptote(self, tiny_config):
        config = dataclasses.replace(
            tiny_config, bandwidth=1e15, handover_delay=0.0
        )
        report = estimate_rate_coverage(config, BiasVector.uniform(1.0))
        assert report.per_class_coverage == (1.0, 1.0, 1.0)

    def test_hand_enumerated_single_trial(self):
        """One macro, one pico, three users; indicators worked out by hand."""
        config = NetworkConfig(
            macro_power=2.0,
            small_power=1.0,
            path_loss_exponent=3.0,
            noise_power=1e-9,
            handover_delay=0.0,
            demand_peak_factor=1000.0,
            user_count=3,
            trials=1,
            profiles=_uniform_profiles([108.0, 864.0, 10.8]),
        )
        deployment = make_deployment(
            [[100.0, 100.0]],
            [[100.0, 108.0]],
            [[100.0, 101.0], [100.0, 107.0], [100.0, 104.0]],
            np.ones((3, 2)),
        )
        estimator = CoverageEstimator(config, given_geometry(config, [deployment]))
        report = estimator.evaluate(BiasVector.uniform(1.0))

        # association by mean power: u0 macro (2 vs 1/343), u1 small
        # (2/343 vs 1), u2 macro (2/64 vs 1/64); macro load 2, small load 1
        noise = 1e-9 * 1e7
        rate_u0 = (1e7 / 2) * math.log2(1 + 2.0 / (1.0 / 343 + noise))
        rate_u1 = 1e7 * math.log2(1 + 1.0 / (2.0 / 343 + noise))
        rate_u2 = (1e7 / 2) * math.log2(1 + (2.0 / 64) / (1.0 / 64 + noise))
        req = [v * 8e6 / 86400 * 1000.0 for v in (108.0, 864.0, 10.8)]
        expected = (
            float(rate_u0 >= req[0]),
            float(rate_u1 >= req[1]),
            float(rate_u2 >= req[2]),
        )
        assert expected == (1.0, 0.0, 1.0)  # scenario sanity
        assert report.per_class_coverage == expected
        assert report.average_coverage == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert not report.feasible

    @pytest.mark.parametrize(
        "bias",
        [
            BiasVector.uniform(1.0),
            BiasVector.uniform(10.0),
            BiasVector(1.0, 4.0, 1.0),
            BiasVector(6.0, 1.0, 100.0),
            BiasVector(1.37, 1.0, 9.9),
            BiasVector(2.5, 17.3, 1.01),
        ],
    )
    def test_matches_loop_reference(self, tiny_config, bias):
        """Vectorized estimator equals the associate/user_rate loop."""
        deployments = [
            sample_deployment(tiny_config, t) for t in range(tiny_config.trials)
        ]
        report = estimator_for(tiny_config).evaluate(bias)
        per_class, average, feasible = reference_rate_coverage(
            tiny_config, deployments, bias
        )
        assert report.per_class_coverage == per_class
        assert report.average_coverage == pytest.approx(average, abs=1e-12)
        assert report.feasible == feasible

    def test_weighted_mean_identity_and_bounds(self, tiny_config):
        estimator = estimator_for(tiny_config)
        fractions = tiny_config.density_fractions()
        for bias in (BiasVector.uniform(b) for b in (1.0, 2.0, 25.0)):
            report = estimator.evaluate(bias)
            for value in report.per_class_coverage:
                assert 0.0 <= value <= 1.0
            assert report.average_coverage == pytest.approx(
                float(np.dot(fractions, report.per_class_coverage)), abs=1e-12
            )
            assert report.trials_used == tiny_config.trials

    def test_feasible_definition(self, tiny_config):
        estimator = estimator_for(tiny_config)
        report = estimator.evaluate(BiasVector.uniform(1.0))
        thresholds = [p.min_coverage for p in tiny_config.profiles]
        assert report.feasible == all(
            c >= t for c, t in zip(report.per_class_coverage, thresholds)
        )

    @pytest.mark.parametrize(
        "min_coverage", [None, 1.0], ids=["tiny", "thresholds-of-one"]
    )
    def test_report_is_monotone_and_forms_evaluate(self, tiny_config, min_coverage):
        """No class, average or feasibility of the report of three
        coverages exceeds that of the report of values at or above them,
        and evaluate's report is the report of its own coverages."""
        config = tiny_config
        if min_coverage is not None:
            profiles = tuple(
                dataclasses.replace(p, min_coverage=min_coverage)
                for p in config.profiles
            )
            config = dataclasses.replace(config, profiles=profiles)
        estimator = estimator_for(config)

        @st.composite
        def value_and_bound(draw):
            value = draw(st.floats(0.0, 1.0))
            bound = draw(
                st.sampled_from([value, math.nextafter(value, math.inf)])
                | st.floats(value, 1.0)
            )
            return value, bound

        @settings(max_examples=250)
        @given(st.tuples(*[value_and_bound()] * 3))
        def monotone(pairs):
            values, bounds = zip(*pairs)
            low, high = estimator.report(values), estimator.report(bounds)
            assert (low.feasible, low.average_coverage) <= (
                high.feasible,
                high.average_coverage,
            )
            for got, bound in zip(low.per_class_coverage, high.per_class_coverage):
                assert got <= bound

        monotone()
        report = estimator.report
        formed = []

        def recording(per_class):
            formed.append(report(per_class))
            return formed[-1]

        estimator.report = recording
        for bias in (
            BiasVector(1.0, 1.0, 1.0),
            BiasVector(2.0, 8.0, 25.0),
            BiasVector.uniform(100.0),
        ):
            got = estimator.evaluate(bias)
            assert got is formed[-1]
            assert got == report(list(got.per_class_coverage))

    def test_monotone_in_bandwidth(self, tiny_config):
        estimator = estimator_for(tiny_config)
        bias = BiasVector(2.0, 1.0, 1.0)
        widths = [2e6, 5e6, 10e6, 40e6]
        averages = [
            estimator.with_bandwidth(w).evaluate(bias).average_coverage
            for w in widths
        ]
        assert averages == sorted(averages)

    def test_anti_monotone_in_demand(self, tiny_config):
        bias = BiasVector.uniform(1.0)
        lighter = tiny_config.with_volumes([20.0, 5.0, 10.0])
        heavier = tiny_config.with_volumes([20.0, 5.0, 200.0])
        cov_light = estimate_rate_coverage(lighter, bias)
        cov_heavy = estimate_rate_coverage(heavier, bias)
        veh = UserClass.VEHICULAR
        assert cov_heavy.per_class_coverage[veh] <= cov_light.per_class_coverage[veh]
        # untouched classes see identical realizations and demand
        assert (
            cov_heavy.per_class_coverage[UserClass.STATIONARY]
            == cov_light.per_class_coverage[UserClass.STATIONARY]
        )

    def test_deterministic_reports(self, tiny_config):
        bias = BiasVector(1.0, 2.0, 4.0)
        assert estimate_rate_coverage(tiny_config, bias) == estimate_rate_coverage(
            tiny_config, bias
        )

    def test_evaluation_order_does_not_matter(self, tiny_config):
        first = estimator_for(tiny_config)
        first.evaluate(BiasVector.uniform(100.0))
        first.evaluate(BiasVector(1.0, 1.0, 16.0))
        mixed = first.evaluate(BiasVector.uniform(1.0))
        fresh = estimator_for(tiny_config).evaluate(BiasVector.uniform(1.0))
        assert mixed == fresh

    def test_zero_user_class_rejected(self):
        # 5 users at the default fractions floor walking and vehicular to zero
        with pytest.raises(EstimationError, match="walking"):
            estimator_for(NetworkConfig(user_count=5, trials=1))

    def test_with_bandwidth_validation_and_isolation(self, tiny_config):
        estimator = estimator_for(tiny_config)
        bias = BiasVector.uniform(1.0)
        before = estimator.evaluate(bias)
        clone = estimator.with_bandwidth(2e6)
        assert clone.config.bandwidth == 2e6
        assert estimator.evaluate(bias) == before  # original untouched
        for bandwidth in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth must be"):
                estimator.with_bandwidth(bandwidth)

    def test_rebind_does_not_reuse_parts_across_bandwidths(self, tiny_config):
        biases = [BiasVector(b, 1.0, v) for b in (1.0, 3.0) for v in (1.0, 9.9)]
        narrow = estimator_for(dataclasses.replace(tiny_config, bandwidth=2e6))
        before = [narrow.evaluate(bias) for bias in biases]
        wide = narrow.with_bandwidth(4e7)
        fresh = estimator_for(dataclasses.replace(tiny_config, bandwidth=4e7))
        after = [wide.evaluate(bias) for bias in biases]
        assert after == [fresh.evaluate(bias) for bias in biases]
        assert after != before  # the bandwidth matters for these biases
        assert [narrow.evaluate(bias) for bias in biases] == before


class TestTrialGeometry:
    BIASES = [
        BiasVector.uniform(1.0),
        BiasVector(3.0, 1.0, 9.9),
        BiasVector(1.37, 17.3, 2.5),
    ]

    def test_shared_geometry_matches_fresh_estimators(self, tiny_config):
        geometry = TrialGeometry(tiny_config)
        seen = []
        for volumes in ([20.0, 5.0, 10.0], [120.0, 30.0, 200.0]):
            config = tiny_config.with_volumes(volumes)
            shared = CoverageEstimator(config, geometry)
            fresh = estimator_for(config)
            reports = [shared.evaluate(bias) for bias in self.BIASES]
            assert reports == [fresh.evaluate(bias) for bias in self.BIASES]
            wide, wide_fresh = shared.with_bandwidth(4e7), fresh.with_bandwidth(4e7)
            assert [wide.evaluate(bias) for bias in self.BIASES] == [
                wide_fresh.evaluate(bias) for bias in self.BIASES
            ]
            assert wide.geometry is geometry
            seen.append(reports)
        assert seen[0] != seen[1]  # the demand binding matters

    def test_demand_and_link_fields_bind_without_rebuilding(self, tiny_config):
        geometry = TrialGeometry(tiny_config)
        config = dataclasses.replace(
            tiny_config, bandwidth=2e6, handover_delay=3.0, demand_peak_factor=9.0
        )
        shared = CoverageEstimator(config, geometry)
        fresh = estimator_for(config)
        assert [shared.evaluate(b) for b in self.BIASES] == [
            fresh.evaluate(b) for b in self.BIASES
        ]

    @pytest.mark.parametrize("field", [{"seed": 8}, {"user_count": 61}])
    def test_other_deployment_config_rejected(self, tiny_config, field):
        geometry = TrialGeometry(tiny_config)
        with pytest.raises(ValueError, match="geometry"):
            CoverageEstimator(dataclasses.replace(tiny_config, **field), geometry)

    def test_arrays_are_read_only(self, tiny_config):
        geometry = TrialGeometry(tiny_config)
        with pytest.raises(ValueError):
            geometry.pw_macro[0] = 0.0

    def test_per_user_arrays_hold_48_bytes_per_user_trial(self, tiny_config):
        """Seven read-only arrays of one entry per user-trial: five float64
        and two int32."""
        geometry = TrialGeometry(tiny_config)
        size = tiny_config.user_count * tiny_config.trials
        per_user = {
            name: array
            for name, array in vars(geometry).items()
            if isinstance(array, np.ndarray) and array.shape == (size,)
        }
        assert sorted(per_user) == sorted([
            "pw_macro", "pw_small", "gid_macro", "gid_step",
            "sig_macro", "sig_small", "total_inst",
        ])
        assert sum(array.nbytes for array in per_user.values()) == 48 * size
        assert not any(array.flags.writeable for array in per_user.values())

    # (config, links per block): blocks of 97 links hold 6 users of the tiny
    # config's ~15 stations, blocks of 1 link hold one user, 3000 users of
    # the default window span several blocks at the module's size, and 333
    # users in the tiny config's window give uneven class counts (299, 16,
    # 18), with blocks of 5 to 12 users that straddle class boundaries
    BLOCKED = {
        "97-link-blocks": (None, 97),
        "one-user-blocks": (None, 1),
        "default-blocks": (NetworkConfig(user_count=3000, trials=3, seed=5), None),
        "uneven-counts": (
            NetworkConfig(
                area_side=1000.0, macro_density=3.0, small_density=12.0,
                user_count=333, trials=7, seed=3,
            ),
            97,
        ),
    }

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("case", BLOCKED)
    def test_matches_serial_whole_trial_oracle(
        self, tiny_config, monkeypatch, case, workers
    ):
        config, block_links = self.BLOCKED[case]
        config = config or dataclasses.replace(tiny_config, trials=5)
        if block_links is not None:
            monkeypatch.setattr(coverage, "BLOCK_LINKS", block_links)
        monkeypatch.setattr(coverage, "_worker_count", lambda trials: workers)
        blocks = []
        monkeypatch.setattr(
            coverage, "mean_power_matrix",
            lambda *args, **kw: blocks.append(1) or mean_power_matrix(*args, **kw),
        )
        # the workers write disjoint slots of the same arrays; frequent
        # thread switches interleave their blocks' writes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            geometry = TrialGeometry(config)
        finally:
            sys.setswitchinterval(interval)
        assert len(blocks) >= 3 * config.trials  # every trial spans blocks
        sizes = [users.stop - users.start for users in geometry.class_slices]
        assert sizes == list(config.class_counts() * config.trials)
        deployments = [sample_deployment(config, t) for t in range(config.trials)]
        assert_geometry_equal(geometry, reference_trial_geometry(config, deployments))

    # without noise, and with 20 users: class counts (18, 1, 1), one walking
    # and one vehicular user per trial
    DISTANCE_CASES = {
        "tiny": None,
        "default-blocks": BLOCKED["default-blocks"][0],
        "noise-free": NetworkConfig(noise_power=0.0, trials=3, seed=11),
        "one-user-classes": NetworkConfig(user_count=20, trials=20, seed=13),
    }

    @pytest.mark.parametrize("case", DISTANCE_CASES)
    def test_integer_geometry_matches_hypot_distances(self, tiny_config, case):
        """Best stations are those of max(d, 1) ** -alpha over the sqrt and
        the hypot distances.

        The package's max(dx*dx + dy*dy, 1) ** (-alpha/2) differs from both
        in the last bit of some powers, and sqrt from hypot in the last bit
        of some distances; no best macro or best small station may move.
        """
        config = self.DISTANCE_CASES[case] or tiny_config
        geometry = TrialGeometry(config)
        deployments = [sample_deployment(config, t) for t in range(config.trials)]
        for distances in (reference_link_distances, hypot_link_distances):
            expected = reference_trial_geometry(
                config, deployments, distance_mean_power(distances)
            )
            for name in ("gid_macro", "gid_step"):
                assert getattr(geometry, name).tobytes() == expected[name].tobytes(), (
                    distances.__name__, name,
                )

    def test_blocks_bound_link_memory(self, monkeypatch):
        """No block has more links than BLOCK_LINKS or one user's row, and
        no sampled trial holds a whole (users, stations) array."""
        config = NetworkConfig(user_count=3000, trials=3, seed=5)
        trials = []
        blocks = []
        sample = coverage.sample_deployment

        def sampled(config, trial):
            trials.append(sample(config, trial))
            return trials[-1]

        def measured(block, config, **buffers):
            blocks.append((block.n_users * block.n_stations, block.n_stations))
            return mean_power_matrix(block, config, **buffers)

        monkeypatch.setattr(coverage, "sample_deployment", sampled)
        monkeypatch.setattr(coverage, "mean_power_matrix", measured)
        TrialGeometry(config)
        assert len(trials) == config.trials
        assert len(blocks) > 3 * config.trials
        assert all(links <= max(coverage.BLOCK_LINKS, n) for links, n in blocks)
        for deployment in trials:
            whole = (deployment.n_users, deployment.n_stations)
            arrays = [
                getattr(deployment, item.name)
                for item in dataclasses.fields(deployment)
            ]
            assert not any(getattr(a, "shape", None) == whole for a in arrays)

    def test_a_worker_holds_two_blocks_of_links(self, monkeypatch):
        """A one-worker build holds the arrays it keeps, its two block
        buffers and per-user arrays, but no third block of links: each
        tier's argmax reads a copy of its columns in the spent offsets
        buffer, not one numpy makes of a column slice. The 4000 users of
        the one trial are one block here, about 6 MB of links."""
        monkeypatch.setattr(coverage, "_worker_count", lambda trials: 1)
        monkeypatch.setattr(coverage, "BLOCK_LINKS", 1 << 20)
        config = NetworkConfig(user_count=4000, trials=1)
        # a first build outside the trace, so no first-use cost is counted
        TrialGeometry(dataclasses.replace(config, user_count=100))
        geometry, peak = traced_peak(lambda: TrialGeometry(config))
        assert geometry.n_station_ids * config.user_count <= coverage.BLOCK_LINKS
        kept = 48 * config.user_count
        buffers = 2 * 8 * coverage.BLOCK_LINKS
        block = 8 * geometry.n_station_ids * config.user_count
        assert peak - kept - buffers < block / 4

    def test_hand_built_trials_match_oracle(self, tiny_config, monkeypatch):
        """Given deployments, one without a small tier, build like the oracle."""
        monkeypatch.setattr(coverage, "BLOCK_LINKS", 97)
        first, second = (sample_deployment(tiny_config, t) for t in range(2))
        macros_only = GivenDeployment(
            station_positions=second.station_positions[: second.n_macro],
            n_macro=second.n_macro,
            user_positions=second.user_positions,
            fading_state=None,
            fading=reference_fading(second)[:, : second.n_macro],
        )
        deployments = [first, macros_only, second]
        geometry = given_geometry(tiny_config, deployments)
        expected = reference_trial_geometry(tiny_config, deployments)
        assert_geometry_equal(geometry, expected)
        assert geometry.trials == 3
        users = tiny_config.user_count
        # class order interleaves the trials, so find the middle trial's users
        middle = geometry.gid_macro - first.n_stations < macros_only.n_stations
        middle &= geometry.gid_macro >= first.n_stations
        assert np.count_nonzero(middle) == users
        assert not geometry.pw_small[middle].any()
        assert not geometry.gid_step[middle].any()

    def test_failed_trial_surfaces_and_threads_end(self, tiny_config, monkeypatch):
        config = dataclasses.replace(tiny_config, trials=6)
        sample = coverage.sample_deployment

        def fail_on_trial_3(config, trial):
            if trial == 3:
                raise RuntimeError("trial 3 failed")
            return sample(config, trial)

        monkeypatch.setattr(coverage, "sample_deployment", fail_on_trial_3)
        monkeypatch.setattr(coverage, "_worker_count", lambda trials: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="trial 3 failed"):
            TrialGeometry(config)
        assert threading.active_count() == before

    def test_interleaved_estimators_match_fresh(self, tiny_config):
        """Estimators sharing a geometry keep their own working arrays."""
        geometry = TrialGeometry(tiny_config)
        heavy = tiny_config.with_volumes([120.0, 30.0, 200.0])
        shared = [
            CoverageEstimator(tiny_config, geometry),
            CoverageEstimator(heavy, geometry),
        ]
        shared += [estimator.with_bandwidth(4e7) for estimator in shared]
        biases = [
            BiasVector(*values)
            for values in itertools.product((1.0, 3.0), (1.0, 17.3), (1.0, 9.9))
        ]
        interleaved = [[] for _ in shared]
        for bias in biases:
            for estimator, reports in zip(shared, interleaved):
                reports.append(estimator.evaluate(bias))
        for estimator, reports in zip(shared, interleaved):
            fresh = estimator_for(estimator.config)
            assert reports == [fresh.evaluate(bias) for bias in biases]
        # demand and bandwidth both move these reports, so a mixed-up
        # working array would show
        assert interleaved[0] != interleaved[1] != interleaved[3]


def assert_geometry_equal(geometry, expected):
    """Every array of the geometry is bitwise the expected one, and so is
    each user's class as the geometry's class slices give it."""
    expected = dict(expected)
    assert geometry.n_station_ids == expected.pop("n_station_ids")
    assert geometry_classes(geometry).tobytes() == expected.pop("cls").tobytes()
    for name, array in expected.items():
        actual = getattr(geometry, name)
        assert actual.dtype == array.dtype, name
        assert actual.shape == array.shape, name
        assert actual.tobytes() == array.tobytes(), name


# MB/day whose rate requirement at peak factor 1 is half the 10 MHz width
HALF_WIDTH_MB = 0.5e7 * 86400.0 / 8e6

# (macro, small and user positions, bias, tied user, bias factor on station
# 1): one user per class in class order, unit fading. The tied user's mean
# power from station 1 times the factor equals that from station 0.
TIE_CASES = {
    # both stations within the 1 m floor: mean powers 4 and 1, walking bias 4
    "bias-times-small-equals-macro": (
        ([[100.0, 100.0]], [[100.0, 101.0]], [[100.0, 100.5]] * 3),
        BiasVector(1.0, 4.0, 1.0), 1, 4.0,
    ),
    # the stationary user is midway between two macros; the others load the first
    "equidistant-macros": (
        ([[97.0, 100.0], [103.0, 100.0]], [], [[100.0, 100.0]] + [[97.0, 100.0]] * 2),
        BiasVector.uniform(1.0), 0, 1.0,
    ),
}


@pytest.mark.parametrize("case", TIE_CASES)
def test_ties_break_alike_in_estimator_and_oracle(case):
    """Equal biased mean powers go to the lowest station id on both paths."""
    positions, bias, tied, factor = TIE_CASES[case]
    deployment = make_deployment(*positions, np.ones((3, 2)))
    volumes = [0.0, 0.0, 0.0]
    volumes[tied] = HALF_WIDTH_MB
    config = NetworkConfig(
        macro_power=4.0, small_power=1.0, handover_delay=0.0,
        demand_peak_factor=1.0, user_count=3, trials=1,
        profiles=_uniform_profiles(volumes),
    )
    powers = mean_power_matrix(deployment, config)[tied]
    assert powers[0] == factor * powers[1]  # scenario sanity: an exact tie

    estimator = CoverageEstimator(config, given_geometry(config, [deployment]))
    oracle, _, _ = reference_rate_coverage(config, [deployment], bias)
    assert estimator.evaluate(bias).per_class_coverage == oracle

    # serving the tied user from station 1 instead flips its class's
    # coverage, so the equality above pins the tie rule
    serving = associate(deployment, bias, config)
    assert serving[tied] == 0
    serving[tied] = 1
    loads = np.bincount(serving, minlength=2)
    rate = user_rate(tied, serving, loads, deployment, config)
    assert float(rate >= rate_requirement(HALF_WIDTH_MB, 1.0)) != oracle[tied]


# tiny_config of conftest with demand heavy enough that coverage moves with W
MONOTONE_CONFIG = NetworkConfig(
    area_side=1000.0,
    macro_density=3.0,
    small_density=12.0,
    user_count=60,
    trials=3,
    seed=7,
).with_volumes([120.0, 30.0, 80.0])
MONOTONE_GEOMETRY = TrialGeometry(MONOTONE_CONFIG)


@given(
    st.tuples(*[st.floats(1.0, 200.0)] * 3),
    st.floats(1e5, 1e8),
    st.floats(1.5, 100.0),
)
def test_coverage_monotone_in_bandwidth_per_candidate(bias, width, ratio):
    """The monotonicity the bandwidth bisection relies on, per bias vector."""
    estimator = CoverageEstimator(MONOTONE_CONFIG, MONOTONE_GEOMETRY)
    candidate = BiasVector(*bias)
    narrow = estimator.with_bandwidth(width).evaluate(candidate)
    wide = estimator.with_bandwidth(width * ratio).evaluate(candidate)
    for low, high in zip(narrow.per_class_coverage, wide.per_class_coverage):
        assert high >= low


# every triple of the default 11-value grid
DEFAULT_TRIPLES = [
    BiasVector(*triple)
    for triple in itertools.product(BiasGrid.from_db(DEFAULT_GRID_DB), repeat=3)
]


@pytest.fixture(scope="module")
def default_geometry():
    """The default config's geometry at seed 42."""
    return TrialGeometry(NetworkConfig())


@pytest.mark.parametrize("bandwidth", [1e6, 1e7, 1e8])
def test_default_grid_matches_float_kernel(default_geometry, bandwidth):
    """Caps and decided users give the float kernel's reports, bit for bit."""
    config = dataclasses.replace(NetworkConfig(), bandwidth=bandwidth)
    estimator = CoverageEstimator(config, default_geometry)
    reports = [estimator.evaluate(bias) for bias in DEFAULT_TRIPLES]
    assert reports == reference_float_coverage(estimator, DEFAULT_TRIPLES)
    assert len({report.per_class_coverage for report in reports}) > 100


@pytest.mark.parametrize("bandwidth", [1e6, 1e7, 1e8])
def test_rate_factors_match_reference(default_geometry, bandwidth):
    """A class's rate factors, and so its caps, are the oracle's bit for bit.

    The report comparisons rarely see a one-ulp change in a rate factor;
    this pins the operation order directly.
    """
    geo = default_geometry
    config = dataclasses.replace(NetworkConfig(), bandwidth=bandwidth)
    macro, small, _ = reference_rate_factors(geo, config)
    for users, profile in zip(geo.class_slices, config.profiles):
        for signal, density, expected in (
            (geo.sig_macro, config.macro_density, macro),
            (geo.sig_small, config.small_density, small),
        ):
            eff = handover_efficiency(profile.velocity, density, config)
            factors = coverage._rate_factors(geo, users, signal, eff, config)
            assert np.array_equal(factors, expected[users])


# tiny configs whose rate factors or requirements sit on the edges of the
# cap arithmetic: no noise, a zero requirement, and zero handover efficiency
# (the moving classes lose every second to handover), alone and together
EDGE_CONFIGS = {
    "noise-free": {"noise_power": 0.0},
    "zero-walking-volume": {"volumes": [20.0, 0.0, 10.0]},
    "zero-efficiency": {"handover_delay": 1e3},
    "all-three": {"noise_power": 0.0, "handover_delay": 1e3, "volumes": [20.0, 5.0, 0.0]},
    # no small tier: every small station power and signal is zero
    "no-small-tier": {"small_density": 0.0},
    "no-small-tier-noise-free": {
        "small_density": 0.0, "noise_power": 0.0, "volumes": [20.0, 0.0, 10.0]
    },
    # one station per trial and no noise: every SINR is infinite, and the
    # moving classes' zero efficiency makes their rate factors NaN
    "one-station-always-in-handover": {
        "noise_power": 0.0, "small_density": 0.0, "macro_density": 1e-9,
        "handover_delay": 1e9,
    },
}


# 1.7e308 overflows the rate factors of noise-free links to +inf
@pytest.mark.parametrize("bandwidth", [1e6, 1e7, 1e8, 1.7e308])
@pytest.mark.parametrize("case, block_links", at_two_chunk_sizes(EDGE_CONFIGS))
def test_edge_configs_match_float_kernel(
    tiny_config, monkeypatch, case, block_links, bandwidth
):
    if block_links is not None:
        monkeypatch.setattr(coverage, "BLOCK_LINKS", block_links)
    fields = dict(EDGE_CONFIGS[case])
    config = tiny_config.with_volumes(fields.pop("volumes", [20.0, 5.0, 10.0]))
    config = dataclasses.replace(config, bandwidth=bandwidth, **fields)
    estimator = estimator_for(config)
    reports = [estimator.evaluate(bias) for bias in DEFAULT_TRIPLES]
    assert reports == reference_float_coverage(estimator, DEFAULT_TRIPLES)


SUBNORMALS = st.floats(min_value=5e-324, max_value=2.2250738585072009e-308)
CAP_SCALED = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, math.nan]),
    SUBNORMALS,
    # negative normals only: a negative subnormal over a zero requirement
    # rounds to -0.0 at some loads and not others, which no cap expresses;
    # rate factors are never negative
    st.floats(max_value=-2.2250738585072014e-308),
    st.floats(min_value=0.0, allow_nan=False),
)


@given(
    st.lists(CAP_SCALED, min_size=1, max_size=8),
    st.one_of(st.just(0.0), SUBNORMALS, st.floats(min_value=0.0)),
    st.one_of(st.integers(1, 300), st.just(100_000)),
)
def test_rate_caps_match_float_test(scaled, requirement, max_load):
    """For every load L in 1..max_load: L <= cap iff scaled / L >= req.

    Caps are int16 up to 32767 users per trial and int32 above."""
    scaled = np.array(scaled)
    caps = coverage._rate_caps(scaled, requirement, max_load)
    assert caps.dtype == (np.int32 if max_load == 100_000 else np.int16)
    loads = np.arange(1, max_load + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for value, cap in zip(scaled, caps):
            assert np.array_equal(loads <= cap, value / loads >= requirement)


@pytest.mark.parametrize("requirement", [3.0, 0.1, 1e-300, 7e5, 1e300])
def test_rate_caps_at_the_boundaries(requirement):
    """Rate factors one ulp either side of requirement * L, where the floor
    of their ratio may land on either side of the cap."""
    exact = requirement * np.arange(1.0, 400.0)
    scaled = np.concatenate(
        [exact, np.nextafter(exact, 0.0), np.nextafter(exact, math.inf)]
    )
    caps = coverage._rate_caps(scaled, requirement, 500)
    loads = np.arange(1, 501)
    expected = scaled[:, None] / loads[None, :] >= requirement
    assert np.array_equal(loads[None, :] <= caps[:, None], expected)


def test_tight_bound_matches_oracles():
    """Other-class load equal to the bound, and slacks at and below it.

    One macro (station 0) and one small cell. Stationary users a and b
    and one walking and one vehicular user all have station 0 as their
    best macro and station 1 as their best small. The requirement puts
    a's cap at 4 loads and b's at 3, so with the two stationary users on
    station 0 their slacks are 2 and 1 against a bound of 2, and unbiased,
    the moving users load station 0 with exactly that bound.
    """
    deployment = make_deployment(
        [[100.0, 100.0]],
        [[100.0, 140.0]],
        [[100.0, 104.0], [100.0, 106.0], [100.0, 110.0], [100.0, 112.0]],
        np.ones((4, 2)),
    )
    # 27e6 bit/s at peak factor 1 lies between a's rate at 5 and 4 loads and
    # between b's at 4 and 3
    config = NetworkConfig(
        macro_power=4.0, small_power=1.0, handover_delay=0.0,
        demand_peak_factor=1.0, user_count=4, trials=1,
        profiles=_uniform_profiles([27e6 * 86400.0 / 8e6, 100.0, 0.0]),
    )
    geometry = given_geometry(config, [deployment])
    estimator = CoverageEstimator(config, geometry)

    stationary = geometry.association(UserClass.STATIONARY, 1.0)
    # both stationary users' gap at station 0: the two moving users
    assert geometry.gaps[UserClass.STATIONARY][0].tolist() == [2, 2]
    for cls in (UserClass.WALKING, UserClass.VEHICULAR):
        assert geometry.association(cls, 1.0).loads[0] == 1  # the bound is met
    scaled_macro, _, requirements = reference_rate_factors(geometry, config)
    caps = coverage._rate_caps(scaled_macro[:2], requirements[0], config.user_count)
    slack = caps - stationary.loads[0]
    assert slack.tolist() == [2, 1]

    biases = [
        BiasVector.uniform(1.0),
        BiasVector(1.0, 1e3, 1e3),  # the moving users move to the small cell
        BiasVector(1.0, 1e3, 1.0),
        BiasVector(1e3, 1.0, 1.0),
    ]
    reports = [estimator.evaluate(bias) for bias in biases]
    assert reports[0].per_class_coverage[UserClass.STATIONARY] == 0.5
    assert reports[1].per_class_coverage[UserClass.STATIONARY] == 1.0
    assert reports == reference_float_coverage(estimator, biases)
    for bias, report in zip(biases, reports):
        per_class, average, feasible = reference_rate_coverage(
            config, [deployment], bias
        )
        assert report.per_class_coverage == per_class
        assert report.average_coverage == pytest.approx(average, abs=1e-12)
        assert report.feasible == feasible


def test_bisection_keeps_one_read_only_association_per_grid_value(tiny_config):
    """Every probe and scheme shares the geometry's associations."""
    grid = BiasGrid.from_db([0.0, 4.0, 8.0, 12.0])
    config = tiny_config.with_volumes([120.0, 30.0, 80.0])
    estimator = estimator_for(dataclasses.replace(config, bandwidth=1e9))
    for scheme in (Scheme.THREE_STAGE, Scheme.CRE):
        required_bandwidth(estimator, grid, scheme, 1e5, 1e5)
    associations = estimator.geometry._associations
    assert 0 < len(associations) <= 3 * len(grid.values)
    for association in associations.values():
        for array in association:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


# a tiny config bound at two bandwidths, without noise, and without a small tier
PART_CONFIGS = {
    "bandwidth-1e6": {"bandwidth": 1e6},
    "bandwidth-1e8": {"bandwidth": 1e8},
    "noise-free": {"noise_power": 0.0},
    "no-small-tier": {"small_density": 0.0},
}


@pytest.mark.parametrize("case, block_links", at_two_chunk_sizes(PART_CONFIGS))
def test_parts_match_gathered_slack_and_bound(
    tiny_config, monkeypatch, case, block_links
):
    """Each part's always-covered count, undecided ids and caps are those of
    the per-user slack (cap minus the class's own station load) against the
    bound (the station's other-class candidates), gathered by station id,
    and each coverage bound is the share of users with no negative slack.
    The association's ``own`` and the geometry's gaps are those gathers. The
    volumes leave some users of every case undecided."""
    if block_links is not None:
        monkeypatch.setattr(coverage, "BLOCK_LINKS", block_links)
    config = tiny_config.with_volumes([3000.0, 1000.0, 2000.0])
    estimator = estimator_for(dataclasses.replace(config, **PART_CONFIGS[case]))
    geo = estimator.geometry
    scaled_macro, scaled_small, requirements = reference_rate_factors(
        geo, estimator.config
    )
    values = BiasGrid.from_db([0.0, 4.0, 8.0, 12.0]).values
    # per class and station id, the users with it as best macro or best small
    candidates = []
    for users in geo.class_slices:
        macro, step = geo.gid_macro[users], geo.gid_step[users]
        candidates.append(
            np.bincount(macro, minlength=geo.n_station_ids)
            + np.bincount((macro + step)[step != 0], minlength=geo.n_station_ids)
        )
    undecided_users = 0
    for cls, users in enumerate(geo.class_slices):
        other_candidates = sum(candidates) - candidates[cls]
        for value in values:
            on_small = value * geo.pw_small[users] > geo.pw_macro[users]
            # the best small station's id is the best macro's plus the step
            best_small = geo.gid_macro[users] + geo.gid_step[users]
            gid = np.where(on_small, best_small, geo.gid_macro[users])
            loads = np.bincount(gid, minlength=geo.n_station_ids)
            scaled = np.where(on_small, scaled_small[users], scaled_macro[users])
            cap = coverage._rate_caps(scaled, requirements[cls], config.user_count)
            slack = cap - loads[gid]
            bound = other_candidates[gid]
            undecided = np.flatnonzero((slack >= 0) & (slack < bound))

            association = geo.association(cls, value)
            assert np.array_equal(association.on_small, on_small)
            assert np.array_equal(association.own, loads[gid])
            gap_macro, gap_step = geo.gaps[cls]
            gap = np.where(on_small, gap_macro + gap_step, gap_macro)
            assert np.array_equal(gap, bound)
            part_loads, always, part_gid, part_cap = estimator._part(cls, value)
            assert np.array_equal(part_loads, loads)
            assert always == np.count_nonzero(slack >= bound)
            assert part_gid.dtype == np.int32
            assert part_cap.dtype == part_loads.dtype == geo.load_dtype == np.int16
            assert np.array_equal(part_gid, gid[undecided])
            assert np.array_equal(part_cap, cap[undecided])
            # always covered or undecided: the cap admits the class's own load
            n_users = users.stop - users.start
            share = np.count_nonzero(slack >= 0) / n_users
            assert estimator.coverage_bound(cls, value) == share
            undecided_users += undecided.size
    assert undecided_users > 0


@pytest.mark.parametrize("case", PART_CONFIGS)
def test_coverage_bounds_need_no_parts(tiny_config, case):
    """Every (class, value) bound is counted from the caps and the
    association without building a part, and once the part is built the
    bound is its always-covered plus undecided users over the class."""
    config = tiny_config.with_volumes([3000.0, 1000.0, 2000.0])
    estimator = estimator_for(dataclasses.replace(config, **PART_CONFIGS[case]))
    values = BiasGrid.from_db(DEFAULT_GRID_DB).values
    keys = list(itertools.product(range(3), values))
    bounds = {key: estimator.coverage_bound(*key) for key in keys}
    assert estimator._parts == {}
    for (cls, value), bound in bounds.items():
        _, always, gid, _ = estimator._part(cls, value)
        users = estimator.geometry.class_slices[cls]
        assert bound == (always + gid.size) / (users.stop - users.start)
        assert estimator.coverage_bound(cls, value) == bound


@pytest.mark.parametrize("case", PART_CONFIGS)
def test_coverage_bounds_hold_for_every_triple(tiny_config, case):
    """No triple's coverage of a class exceeds the bound of its value."""
    config = tiny_config.with_volumes([3000.0, 1000.0, 2000.0])
    estimator = estimator_for(dataclasses.replace(config, **PART_CONFIGS[case]))
    values = BiasGrid.from_db(DEFAULT_GRID_DB).values
    for triple in itertools.product(values, repeat=3):
        report = estimator.evaluate(BiasVector(*triple))
        for cls, value in enumerate(triple):
            assert report.per_class_coverage[cls] <= estimator.coverage_bound(cls, value)


def test_association_holds_three_bytes_per_user(tiny_config):
    """An association keeps a bool and an int16 load per user of its class,
    and one int16 load per station id; the geometry keeps each user's two
    int16 gaps once. All are read-only."""
    geo = TrialGeometry(tiny_config)
    for cls, users in enumerate(geo.class_slices):
        n_users = users.stop - users.start
        gaps = geo.gaps[cls]
        assert [array.dtype for array in gaps] == [np.int16, np.int16]
        assert sum(array.nbytes for array in gaps) == 4 * n_users
        assert not any(array.flags.writeable for array in gaps)
        for value in (1.0, 10.0):
            association = geo.association(cls, value)
            on_small, loads, own = association
            assert [array.dtype for array in association] == [
                np.bool_, np.int16, np.int16
            ]
            assert loads.shape == (geo.n_station_ids,)
            assert loads.nbytes == 2 * geo.n_station_ids
            assert on_small.nbytes + own.nbytes == 3 * n_users
            for array in association:
                assert not array.flags.writeable


def test_caps_hold_four_bytes_per_user_trial(default_geometry):
    """At the defaults a binding keeps two int16 caps per user-trial."""
    config = NetworkConfig()
    estimator = CoverageEstimator(config, default_geometry)
    caps = [array for pair in estimator._user_caps for array in pair]
    assert all(array.dtype == np.int16 for array in caps)
    assert sum(array.nbytes for array in caps) == 4 * config.user_count * config.trials


def traced_peak(make):
    """make()'s result and the traced peak of what it allocated.

    tracemalloc sees numpy's buffers as well as Python objects.
    """
    tracemalloc.start()
    try:
        made = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, peak


@pytest.fixture(scope="module")
def wide_geometries():
    """{trials: (config, geometry)} for 4000 users at 10 and 40 trials.

    At 10 trials the stationary class (35890 users) spans two chunks of
    the per-user kernels, at 40 trials five.
    """
    configs = [NetworkConfig(user_count=4000, trials=trials) for trials in (10, 40)]
    return {config.trials: (config, TrialGeometry(config)) for config in configs}


def test_binding_memory_does_not_grow_with_trials(wide_geometries):
    """A binding's working memory beyond the caps it keeps is that of one
    chunk: four times the users take no more of it."""
    extra = {}
    for trials, (config, geometry) in wide_geometries.items():
        estimator = CoverageEstimator(config, geometry)
        clone, peak = traced_peak(lambda: estimator.with_bandwidth(2 * config.bandwidth))
        caps = [array for pair in clone._user_caps for array in pair]
        extra[trials] = peak - sum(array.nbytes for array in caps)
    assert extra[40] < 1.25 * extra[10]


def test_association_memory_does_not_grow_with_trials(wide_geometries):
    """An association's working memory beyond the arrays it keeps is that
    of one chunk: four times the users take no more of it."""
    extra = {}
    for trials, (_, geometry) in wide_geometries.items():
        association, peak = traced_peak(
            lambda: geometry.association(UserClass.STATIONARY, 4.0)
        )
        extra[trials] = peak - sum(array.nbytes for array in association)
    assert extra[40] < 1.25 * extra[10]


@pytest.mark.parametrize("users, dtype", [(32767, np.int16), (32768, np.int32)])
def test_one_station_serving_every_user_at_the_dtype_boundary(users, dtype):
    """The largest loads of each dtype give the float kernel's reports.

    One trial without a small tier at a macro density whose Poisson mean is
    far below one: the one forced macro serves every user, so every user's
    own load plus its gap, the summed load of ``evaluate`` and the
    zero-volume walking class's caps all equal the user count.
    """
    config = NetworkConfig(
        user_count=users, trials=1, small_density=0.0, macro_density=1e-9
    ).with_volumes([12.0, 0.0, 14.0])
    estimator = estimator_for(config)
    geo = estimator.geometry
    assert geo.n_station_ids == 1
    assert geo.load_dtype is dtype
    for cls, count in enumerate(config.class_counts()):
        association = geo.association(cls, 1.0)
        gap_macro, gap_step = geo.gaps[cls]
        gap = gap_macro + association.on_small * gap_step
        assert [array.dtype for array in association[1:]] == [dtype] * 2
        assert gap.dtype == dtype
        assert association.loads.tolist() == [count]
        assert np.all(association.own == count)
        assert np.all(association.own + gap == users)
    assert np.all(estimator._user_caps[UserClass.WALKING][0] == users)
    biases = [BiasVector.uniform(1.0), BiasVector.from_db(12.0, 6.0, 0.0)]
    reports = [estimator.evaluate(bias) for bias in biases]
    parts = [estimator._part(cls, 1.0) for cls in UserClass]
    assert [loads.dtype for loads, *_ in parts] == [dtype] * 3
    assert sum(loads for loads, *_ in parts).tolist() == [users]
    assert reports == reference_float_coverage(estimator, biases)
    stationary, walking, vehicular = reports[0].per_class_coverage
    assert 0.0 < stationary < 1.0 and walking == 1.0 and 0.0 < vehicular < 1.0
