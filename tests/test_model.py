"""Network model: config validation, sampling, propagation; the oracle's SINR."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcell import (
    ClassProfile,
    ConfigError,
    NetworkConfig,
    UserClass,
    default_profiles,
    largest_remainder_counts,
    link_distances,
    mean_power_matrix,
    sample_deployment,
)
from convexcell.coverage import BLOCK_LINKS
from convexcell.model import POISSON_MEAN_MAX
from helpers import make_deployment, reference_fading, reference_link_distances, sinr

# Config fuzz: each field is omitted, set near its default (the value
# itself, as int or float, or scaled), or set to a JSON-style value of
# any type, including bools, NaN, infinity and integers beyond the float
# range.
FUZZ_JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.integers(10**300, 10**400),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=3,
)


def fuzz_field(default):
    near = st.one_of(
        st.sampled_from([default, float(default), int(default)]),
        st.floats(0.0, 2.0).map(lambda k: default * k),
    )
    return near | FUZZ_JUNK


def fuzz_mapping(defaults):
    return st.fixed_dictionaries(
        {}, optional={name: fuzz_field(value) for name, value in defaults.items()}
    )


_DEFAULTS = NetworkConfig().to_dict()
FUZZ_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{
            name: fuzz_field(value)
            for name, value in _DEFAULTS.items()
            if name != "profiles"
        },
        "profiles": st.fixed_dictionaries(
            {},
            optional={
                label: fuzz_mapping(fields) | FUZZ_JUNK
                for label, fields in _DEFAULTS["profiles"].items()
            },
        )
        | FUZZ_JUNK,
    },
)


class TestConfig:
    def test_defaults_are_valid(self):
        config = NetworkConfig()
        assert config.area_km2 == pytest.approx(4.0)
        assert (config.macro_density, config.small_density) == (2.0, 40.0)
        assert config.macro_power == 40.0
        assert config.bandwidth == 10e6
        assert list(config.class_counts()) == [449, 23, 28]

    def test_default_profiles_sum_to_one(self):
        total = sum(p.density_fraction for p in default_profiles())
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("area_side", 0.0),
            ("area_side", 1e200),  # its area overflows
            ("macro_density", 0.0),
            ("small_density", -1.0),
            ("macro_power", 0.0),
            ("small_power", -0.1),
            ("path_loss_exponent", 2.0),
            ("reference_loss", 0.0),
            ("reference_loss", 1e308),  # macro_power * reference_loss overflows
            ("noise_power", -1e-21),
            ("bandwidth", 0.0),
            ("user_count", 0),
            ("handover_delay", -0.5),
            ("crossing_coefficient", -1.0),
            ("demand_peak_factor", 0.9),
            ("trials", 0),
            ("seed", -1),
            ("profiles", default_profiles()[:2]),
            ("noise_power", 1e302),  # noise_power * bandwidth overflows
            ("macro_density", 1e300),  # beyond numpy's largest Poisson mean
            ("small_density", 1e300),
        ],
    )
    def test_field_validation(self, field, value):
        with pytest.raises(ConfigError, match=field.split("_")[0]):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize("name", ["macro_density", "small_density"])
    def test_station_density_up_to_the_largest_poisson_mean(self, name):
        limit = POISSON_MEAN_MAX
        rng = np.random.default_rng(0)
        rng.poisson(limit)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(math.nextafter(limit, math.inf))
        # a 1 km window: the Poisson mean is the density itself
        NetworkConfig(area_side=1000.0, **{name: limit})
        with pytest.raises(ConfigError, match=name):
            NetworkConfig(area_side=1000.0, **{name: math.nextafter(limit, math.inf)})

    @pytest.mark.parametrize("name", ["user_count", "trials"])
    def test_counts_up_to_the_largest_index(self, name):
        # constructed only: a geometry would submit every trial at once
        NetworkConfig(**{name: sys.maxsize})
        with pytest.raises(ConfigError, match=name):
            NetworkConfig(**{name: sys.maxsize + 1})

    def test_weakest_mean_power_must_be_a_normal_float(self):
        # at the defaults the power across the 2 km window's diagonal falls
        # below the least normal float between exponents 88 and 89 for a
        # small station, and between 89 and 90 for a macro
        NetworkConfig(path_loss_exponent=88.0)
        with pytest.raises(ConfigError, match="path_loss_exponent .* area_side"):
            NetworkConfig(path_loss_exponent=89.0)
        NetworkConfig(path_loss_exponent=89.0, small_density=0.0)
        with pytest.raises(ConfigError, match="path_loss_exponent .* area_side"):
            NetworkConfig(path_loss_exponent=90.0, small_density=0.0)
        with pytest.raises(ConfigError, match="path_loss_exponent .* area_side"):
            NetworkConfig(area_side=1e120, macro_density=1e-230, small_density=0.0)

    def test_two_tier_power_ordering(self):
        with pytest.raises(ConfigError, match="macro_power must exceed"):
            NetworkConfig(macro_power=1.0, small_power=2.0)

    def test_profile_velocity_constraints(self):
        with pytest.raises(ConfigError, match="stationary.velocity"):
            ClassProfile(UserClass.STATIONARY, 0.5, 1.0, 1.0, 0.8)
        with pytest.raises(ConfigError, match="walking.velocity"):
            ClassProfile(UserClass.WALKING, 0.5, 1.0, 12.0, 0.8)
        with pytest.raises(ConfigError, match="vehicular.velocity"):
            ClassProfile(UserClass.VEHICULAR, 0.5, 1.0, 5.0, 0.8)

    def test_profile_fraction_sum_enforced(self):
        profiles = (
            ClassProfile(UserClass.STATIONARY, 0.5, 1.0, 0.0, 0.8),
            ClassProfile(UserClass.WALKING, 0.1, 1.0, 2.58, 0.8),
            ClassProfile(UserClass.VEHICULAR, 0.1, 1.0, 31.9, 0.8),
        )
        with pytest.raises(ConfigError, match="sum to 1"):
            NetworkConfig(profiles=profiles)

    def test_profile_order_enforced(self):
        p = default_profiles()
        with pytest.raises(ConfigError, match="ordered"):
            NetworkConfig(profiles=(p[1], p[0], p[2]))

    def test_round_trip_through_dict(self):
        config = NetworkConfig(small_density=25.0, seed=9)
        assert NetworkConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            NetworkConfig.from_dict({"macro_densty": 2.0})

    def test_from_dict_partial_profile_override(self):
        config = NetworkConfig.from_dict(
            {"profiles": {"vehicular": {"traffic_volume": 50.0}}}
        )
        assert config.profiles[UserClass.VEHICULAR].traffic_volume == 50.0
        assert config.profiles[UserClass.STATIONARY].traffic_volume == 88.58

    def test_from_dict_rejects_unknown_profile_entries(self):
        with pytest.raises(ConfigError, match="unknown profile class"):
            NetworkConfig.from_dict({"profiles": {"cycling": {}}})
        with pytest.raises(ConfigError, match="unknown profile field"):
            NetworkConfig.from_dict({"profiles": {"walking": {"speed": 3.0}}})

    @pytest.mark.parametrize(
        "data,field",
        [
            ({"area_side": "abc"}, "area_side"),
            ({"area_side": math.nan}, "area_side"),
            ({"area_side": 10**400}, "area_side"),
            ({"bandwidth": math.inf}, "bandwidth"),
            ({"small_power": None}, "small_power"),
            ({"trials": 1.7}, "trials"),
            ({"trials": 2.0}, "trials"),
            ({"user_count": True}, "user_count"),
            ({"seed": "42"}, "seed"),
            ({"profiles": {"walking": {"velocity": math.nan}}}, "walking.velocity"),
            ({"profiles": {"vehicular": {"traffic_volume": "1"}}}, "traffic_volume"),
            ({"profiles": {"stationary": {"min_coverage": False}}}, "min_coverage"),
            ({"profiles": {"walking": 3.0}}, "profiles.walking"),
            ([["area_side", 1.0]], "config"),
            ({"profiles": {"walking": {"density_fraction": 1.5}}}, "walking.density_fraction"),
            ({"profiles": {"vehicular": {"traffic_volume": -1.0}}}, "vehicular.traffic_volume"),
            ({"profiles": {"walking": {"velocity": -1.0}}}, "walking.velocity must be >= 0"),
            ({"profiles": {"stationary": {"min_coverage": 1.5}}}, "stationary.min_coverage"),
            ({"noise_power": 1e300, "bandwidth": 1e10, "trials": 2}, "noise_power"),
            ({"macro_density": 1e300, "trials": 1}, "macro_density"),
            ({"demand_peak_factor": 1e308, "trials": 2}, "demand_peak_factor"),
            (
                {"profiles": {"vehicular": {"traffic_volume": 1e305}}, "trials": 2},
                "vehicular.traffic_volume",
            ),
        ],
    )
    def test_from_dict_rejects_bad_values(self, data, field):
        with pytest.raises(ConfigError, match=field):
            NetworkConfig.from_dict(data)

    @settings(max_examples=200)
    @given(FUZZ_CONFIGS)
    def test_from_dict_fuzz_raises_or_is_valid(self, data):
        try:
            config = NetworkConfig.from_dict(data)
        except ConfigError:
            return
        for name in NetworkConfig._INTEGER_FIELDS:
            assert type(getattr(config, name)) is int
        reals = [
            getattr(config, item.name)
            for item in dataclasses.fields(config)
            if item.name not in ("profiles", *NetworkConfig._INTEGER_FIELDS)
        ]
        reals += [
            getattr(profile, name)
            for profile in config.profiles
            for name in NetworkConfig._PROFILE_FIELDS
        ]
        assert all(not isinstance(v, bool) and math.isfinite(v) for v in reals)
        assert config.user_count > 0 and config.trials > 0
        assert NetworkConfig.from_dict(config.to_dict()) == config

    def test_config_hash_tracks_content(self):
        a = NetworkConfig()
        b = NetworkConfig()
        c = NetworkConfig(seed=43)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 64

    def test_with_volumes(self):
        config = NetworkConfig().with_volumes([10.0, 2.0, 30.0])
        assert [p.traffic_volume for p in config.profiles] == [10.0, 2.0, 30.0]
        with pytest.raises(ConfigError):
            NetworkConfig().with_volumes([1.0, 2.0])


class TestLargestRemainder:
    def test_measured_fractions_1000_users(self):
        counts = largest_remainder_counts([0.8972, 0.0470, 0.0558], 1000)
        assert list(counts) == [897, 47, 56]

    def test_measured_fractions_500_users(self):
        counts = largest_remainder_counts([0.8972, 0.0470, 0.0558], 500)
        assert list(counts) == [449, 23, 28]

    def test_exact_fractions_unchanged(self):
        assert list(largest_remainder_counts([0.5, 0.25, 0.25], 8)) == [4, 2, 2]

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        st.integers(1, 2000),
    )
    def test_counts_conserve_total(self, weights, total):
        s = sum(weights)
        fractions = [w / s for w in weights]
        counts = largest_remainder_counts(fractions, total)
        assert counts.sum() == total
        assert (counts >= 0).all()


class TestSampleDeployment:
    def test_deterministic_per_trial(self):
        config = NetworkConfig(user_count=50, trials=1)
        a = sample_deployment(config, 3)
        b = sample_deployment(config, 3)
        assert np.array_equal(a.macro_positions, b.macro_positions)
        assert np.array_equal(a.small_positions, b.small_positions)
        assert np.array_equal(a.user_positions, b.user_positions)
        assert np.array_equal(reference_fading(a), reference_fading(b))

    def test_trials_differ(self):
        config = NetworkConfig(user_count=50)
        a = sample_deployment(config, 0)
        b = sample_deployment(config, 1)
        assert not np.array_equal(a.user_positions, b.user_positions)

    def test_degenerate_small_tier(self):
        config = NetworkConfig(small_density=0.0, user_count=20)
        deployment = sample_deployment(config, 0)
        assert deployment.n_small == 0
        assert deployment.n_macro >= 1
        assert reference_fading(deployment).shape == (20, deployment.n_macro)

    def test_geometry_inside_window(self, tiny_config):
        deployment = sample_deployment(tiny_config, 2)
        for positions in (
            deployment.macro_positions,
            deployment.small_positions,
            deployment.user_positions,
        ):
            assert (positions >= 0.0).all()
            assert (positions <= tiny_config.area_side).all()
        assert (reference_fading(deployment) > 0.0).all()

    def test_class_counts_match_config(self, tiny_config):
        deployment = sample_deployment(tiny_config, 0)
        counts = np.bincount(deployment.user_classes, minlength=3)
        assert list(counts) == list(tiny_config.class_counts())

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="trial_index"):
            sample_deployment(NetworkConfig(), -1)


class TestFadingBlocks:
    """Gains drawn per block equal one whole-matrix draw from the same state."""

    # (config, rows per block given the station count): one user; 97 links,
    # as the reducer sizes them; 7 users, which leave a last block of 4 of
    # the tiny config's 60; BLOCK_LINKS links over 3000 users of the default
    # window, which span several blocks
    CASES = {
        "one-user": (None, lambda stations: 1),
        "97-links": (None, lambda stations: max(1, 97 // stations)),
        "seven-users": (None, lambda stations: 7),
        "block-links": (
            NetworkConfig(user_count=3000, trials=1, seed=5),
            lambda stations: max(1, BLOCK_LINKS // stations),
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("trial", [0, 1])
    def test_blocks_concatenate_to_the_whole_draw(self, tiny_config, case, trial):
        config, rows_of = self.CASES[case]
        deployment = sample_deployment(config or tiny_config, trial)
        rows = rows_of(deployment.n_stations)
        blocks = list(deployment.fading_blocks(rows))
        assert len(blocks) == -(-deployment.n_users // rows) > 1
        *full, last = [block.shape[0] for block in blocks]
        assert full == [rows] * len(full)
        assert last == deployment.n_users - rows * len(full)
        whole = reference_fading(deployment)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_drawing_twice_gives_the_same_bits(self, tiny_config):
        deployment = sample_deployment(tiny_config, 2)
        first = list(deployment.fading_blocks(5))
        second = list(deployment.fading_blocks(5))
        assert [a.tobytes() for a in first] == [b.tobytes() for b in second]
        # a drawn block is the caller's: writing to it changes no later draw
        for block in first:
            block[:] = 0.0
        third = np.concatenate(list(deployment.fading_blocks(5)))
        assert third.tobytes() == reference_fading(deployment).tobytes()

    def test_given_matrix_is_sliced(self):
        fading = np.arange(10.0).reshape(5, 2)
        deployment = make_deployment(
            [[0.0, 0.0]], [[1.0, 1.0]], np.zeros((5, 2)), [0] * 5, fading
        )
        blocks = list(deployment.fading_blocks(2))
        assert [b.tolist() for b in blocks] == [
            fading[0:2].tolist(), fading[2:4].tolist(), fading[4:].tolist()
        ]
        assert all(np.shares_memory(b, deployment.fading) for b in blocks)

    def test_exactly_one_gain_source(self, tiny_config):
        sampled = sample_deployment(tiny_config, 0)
        with pytest.raises(ValueError, match="exactly one"):
            dataclasses.replace(sampled, fading=reference_fading(sampled))
        with pytest.raises(ValueError, match="exactly one"):
            dataclasses.replace(sampled, fading_state=None)


def received_power(power, distance, config):
    """Mean power of a single link: one macro of the given power, one user."""
    config = dataclasses.replace(config, macro_power=power, small_power=power / 2.0)
    deployment = make_deployment(
        [[0.0, 0.0]], np.empty((0, 2)), [[distance, 0.0]], [0], [[1.0]]
    )
    return float(mean_power_matrix(deployment, config)[0, 0])


class TestReceivedPower:
    def test_unit_distance(self):
        config = NetworkConfig()
        assert received_power(40.0, 1.0, config) == pytest.approx(40.0)

    def test_power_law_decade(self):
        config = NetworkConfig(path_loss_exponent=4.0)
        assert received_power(5.0, 10.0, config) == pytest.approx(5.0e-4)

    def test_distance_floor(self):
        config = NetworkConfig()
        at_floor = received_power(7.0, 1.0, config)
        assert received_power(7.0, 0.5, config) == at_floor
        assert received_power(7.0, 0.0, config) == at_floor

    @given(st.floats(1e-3, 1e3), st.floats(1.0, 1e4))
    def test_linear_in_transmit_power(self, power, distance):
        config = NetworkConfig()
        one = received_power(power, distance, config)
        two = received_power(2.0 * power, distance, config)
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestSinr:
    def test_single_station_is_signal_over_noise(self):
        config = NetworkConfig(user_count=1, noise_power=1e-15)
        deployment = make_deployment(
            [[100.0, 100.0]], np.empty((0, 2)), [[100.0, 103.0]], [0], [[2.0]]
        )
        # d = 3 m, fading 2: S = 40 * 2 * 3^-alpha, N*W = 1e-15 * 1e7
        signal = 40.0 * 2.0 * 3.0 ** (-config.path_loss_exponent)
        expected = signal / (1e-15 * config.bandwidth)
        assert sinr(0, 0, deployment, config) == pytest.approx(expected, rel=1e-12)

    def test_two_station_arithmetic(self):
        # macro inst power 2, small inst power 1, noise*W = 1 -> SINR = 1
        config = NetworkConfig(
            small_power=1.0, noise_power=1e-6, bandwidth=1e6, user_count=1
        )
        deployment = make_deployment(
            [[10.0, 10.0]], [[10.0, 12.0]], [[10.0, 11.0]], [0], [[0.05, 1.0]]
        )
        assert sinr(0, 0, deployment, config) == pytest.approx(1.0, rel=1e-12)
        # serving the small cell instead: 1 / (2 + 1)
        assert sinr(0, 1, deployment, config) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_positive_on_sampled_deployment(self, tiny_config):
        deployment = sample_deployment(tiny_config, 0)
        for user in (0, deployment.n_users - 1):
            assert sinr(user, 0, deployment, tiny_config) > 0.0

    def test_bandwidth_override_scales_noise(self):
        config = NetworkConfig(user_count=1, noise_power=1e-12)
        deployment = make_deployment(
            [[0.0, 0.0]], np.empty((0, 2)), [[30.0, 40.0]], [0], [[1.0]]
        )
        wide = sinr(0, 0, deployment, config, bandwidth=1e8)
        narrow = sinr(0, 0, deployment, config, bandwidth=1e6)
        assert narrow == pytest.approx(100.0 * wide, rel=1e-9)

    def test_unknown_ids_rejected(self, tiny_config):
        deployment = sample_deployment(tiny_config, 0)
        with pytest.raises(IndexError):
            sinr(deployment.n_users, 0, deployment, tiny_config)
        with pytest.raises(IndexError):
            sinr(0, deployment.n_stations, deployment, tiny_config)


class TestGeometryHelpers:
    def test_link_distances_hand_values(self):
        deployment = make_deployment(
            [[0.0, 0.0]], [[3.0, 4.0]], [[0.0, 0.0], [3.0, 0.0]],
            [0, 0],
            np.ones((2, 2)),
        )
        distances = link_distances(deployment)
        assert distances.shape == (2, 2)
        assert distances[0] == pytest.approx([0.0, 5.0])
        assert distances[1] == pytest.approx([3.0, 4.0])

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_link_distances_match_broadcast_hypot(self, tiny_config, trial):
        """Bitwise the broadcast oracle; both are sqrt(dx*dx + dy*dy), not hypot."""
        deployment = sample_deployment(tiny_config, trial)
        distances = link_distances(deployment)
        expected = reference_link_distances(deployment)
        assert distances.flags.c_contiguous
        assert distances.shape == expected.shape
        assert distances.tobytes() == expected.tobytes()

    def test_mean_power_uses_unit_fading(self, tiny_config):
        deployment = sample_deployment(tiny_config, 1)
        mean_power = mean_power_matrix(deployment, tiny_config)
        distances = link_distances(deployment)
        powers = deployment.station_powers(tiny_config)
        path_loss = np.maximum(distances, 1.0) ** (-tiny_config.path_loss_exponent)
        expected = powers[None, :] * tiny_config.reference_loss * path_loss
        assert mean_power.tobytes() == expected.tobytes()
        assert mean_power.shape == (deployment.n_users, deployment.n_stations)

    def test_deployment_shape_validation(self):
        with pytest.raises(ValueError, match="fading"):
            make_deployment(
                [[0.0, 0.0]], np.empty((0, 2)), [[1.0, 1.0]], [0], np.ones((2, 1))
            )
        with pytest.raises(ValueError, match="user_classes"):
            make_deployment(
                [[0.0, 0.0]], np.empty((0, 2)), [[1.0, 1.0]], [0, 1], np.ones((1, 1))
            )

    def test_immutability(self):
        config = NetworkConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1


def test_thermal_noise_constant():
    # -174 dBm/Hz in watts
    assert NetworkConfig().noise_power == pytest.approx(
        10 ** (-174.0 / 10.0) * 1e-3, rel=1e-9
    )


def test_crossing_coefficient_default():
    assert NetworkConfig().crossing_coefficient == pytest.approx(4.0 / math.pi)
