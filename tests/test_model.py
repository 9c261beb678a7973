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
    mean_power_matrix,
    sample_deployment,
)
from convexcell.coverage import BLOCK_LINKS
from convexcell.model import POISSON_MEAN_MAX
from helpers import (
    distance_mean_power,
    make_deployment,
    reference_fading,
    reference_link_distances,
    reference_positions,
    reference_squared_distances,
    sinr,
    station_powers,
)

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

    def test_window_whose_squared_diagonal_overflows_is_refused(self):
        """2 * area_side**2 beyond the float range: the squared distance of a
        corner-to-corner link is inf and its power 0.0, refused in one line,
        though the distance itself, and its power, are normal floats."""
        fields = dict(
            area_side=1e154, macro_density=1e-290, small_density=0.0,
            path_loss_exponent=2.0001, reference_loss=1e10,
        )
        assert 40.0 * 1e10 * (1e154 * math.sqrt(2.0)) ** -2.0001 >= sys.float_info.min
        with pytest.raises(ConfigError) as refused:
            NetworkConfig(**fields)
        assert str(refused.value) == (
            "the mean power across the window's diagonal is 0.0; it must be finite "
            "and in [2.2250738585072014e-308, inf] (got macro_power 40.0, "
            "reference_loss 10000000000.0, path_loss_exponent 2.0001, area_side 1e+154)"
        )

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
            # a crossing rate that overflows would zero the efficiency even
            # when a crossing costs nothing (inf * 0)
            (
                {"crossing_coefficient": 1e308, "handover_delay": 0,
                 "profiles": {"vehicular": {"velocity": 1e308}}, "trials": 2},
                "crossing_coefficient 1e.308, profiles.vehicular.velocity 1e.308, "
                "small_density 40.0",
            ),
            # each derived quantity's refusal names every field it is made of
            ({"user_count": 2**63}, r"\(got user_count 9223372036854775808\)"),
            ({"trials": 2**63}, r"\(got trials 9223372036854775808\)"),
            ({"macro_density": 1e300, "small_density": 0.0},
             r"got macro_density 1e\+300, area_side 2000.0\)"),
            ({"area_side": 1e200}, r"got small_density 40.0, area_side 1e\+200\)"),
            ({"reference_loss": 1e308}, r"got macro_power 40.0, reference_loss 1e\+308\)"),
            (
                {"path_loss_exponent": 90, "small_density": 0},
                r"got macro_power 40.0, reference_loss 1.0, path_loss_exponent 90, "
                r"area_side 2000.0\)",
            ),
            ({"noise_power": 1e300, "bandwidth": 1e10},
             r"got noise_power 1e\+300, bandwidth 10000000000.0\)"),
            (
                {"profiles": {"walking": {"traffic_volume": 1e306}}},
                r"got profiles.walking.traffic_volume 1e\+306, demand_peak_factor 5.4\)",
            ),
            (
                {"crossing_coefficient": 1e308, "macro_density": 50.0},
                r"got crossing_coefficient 1e\+308, profiles.vehicular.velocity 31.9, "
                r"macro_density 50.0\)",
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
        assert a.n_macro == b.n_macro
        assert np.array_equal(a.station_positions, b.station_positions)
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
        for positions in (deployment.station_positions, deployment.user_positions):
            assert (positions >= 0.0).all()
            assert (positions <= tiny_config.area_side).all()
        assert (reference_fading(deployment) > 0.0).all()

    @pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
    @pytest.mark.parametrize("small_density", [0.0, 12.0, 400.0])
    def test_one_station_draw_equals_the_tier_draws(self, seed, small_density):
        """Both tiers drawn in one call give the positions and generator
        state of one call per tier, macros first."""
        config = NetworkConfig(
            area_side=1000.0, small_density=small_density, user_count=30, seed=seed
        )
        for trial in (0, 3):
            deployment = sample_deployment(config, trial)
            macros, smalls, users, state = reference_positions(config, trial)
            assert deployment.n_macro == len(macros)
            assert deployment.n_small == len(smalls)
            stations = np.concatenate([macros, smalls])
            assert deployment.station_positions.tobytes() == stations.tobytes()
            assert deployment.user_positions.tobytes() == users.tobytes()
            assert deployment.fading_state == state

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="trial_index"):
            sample_deployment(NetworkConfig(), -1)


def drawn_blocks(deployment, rows):
    """Copies of the blocks ``fading_blocks`` draws into a stale buffer of
    ``rows`` rows, each checked to be a view of that buffer."""
    out = np.full((rows, deployment.n_stations), np.nan)
    blocks = []
    for block in deployment.fading_blocks(out):
        assert np.shares_memory(block, out)
        blocks.append(block.copy())
    return blocks


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
        blocks = drawn_blocks(deployment, rows)
        assert len(blocks) == -(-deployment.n_users // rows) > 1
        *full, last = [block.shape[0] for block in blocks]
        assert full == [rows] * len(full)
        assert last == deployment.n_users - rows * len(full)
        whole = reference_fading(deployment)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_drawing_twice_gives_the_same_bits(self, tiny_config):
        deployment = sample_deployment(tiny_config, 2)
        first = drawn_blocks(deployment, 5)
        second = drawn_blocks(deployment, 5)
        assert [a.tobytes() for a in first] == [b.tobytes() for b in second]
        # the buffer is the caller's: writing to it changes no later draw
        out = np.empty((5, deployment.n_stations))
        third = []
        for block in deployment.fading_blocks(out):
            third.append(block.copy())
            out[:] = 0.0
        assert np.concatenate(third).tobytes() == reference_fading(deployment).tobytes()


class TestBlockBuffers:
    """Blocks computed into caller buffers equal fresh arrays bit for bit."""

    # (config, rows per block given the station count): 7 users of the tiny
    # config, which leave a last block of 4; more stations than BLOCK_LINKS,
    # so each block is one user's row
    CASES = {
        "short-last-block": (None, lambda stations: 7),
        "one-user-blocks": (
            NetworkConfig(small_density=20000.0, user_count=3, trials=1),
            lambda stations: max(1, BLOCK_LINKS // stations),
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_out_matches_fresh_arrays(self, tiny_config, case):
        config, rows_of = self.CASES[case]
        config = config or tiny_config
        deployment = sample_deployment(config, 0)
        n_stations = deployment.n_stations
        rows = rows_of(n_stations)
        links = max(BLOCK_LINKS, n_stations)
        assert (n_stations > BLOCK_LINKS) == (case == "one-user-blocks")
        # stale values in every buffer: each result must overwrite them
        out, scratch, fading_out = (np.full(links, np.nan) for _ in range(3))
        fading_rows = fading_out[: rows * n_stations].reshape(rows, n_stations)
        whole = reference_fading(deployment)
        starts = range(0, deployment.n_users, rows)
        blocks = zip(starts, deployment.fading_blocks(fading_rows))
        sizes = []
        for start, fading in blocks:
            assert np.shares_memory(fading, fading_out)
            assert fading.tobytes() == whole[start : start + rows].tobytes()
            positions = deployment.user_positions[start : start + rows]
            block = dataclasses.replace(deployment, user_positions=positions)
            count = block.n_users
            sizes.append(count)
            out_rows, scratch_rows = (
                buffer[: count * n_stations].reshape(count, n_stations)
                for buffer in (out, scratch)
            )
            power = mean_power_matrix(block, config, out=out_rows, scratch=scratch_rows)
            assert power is out_rows
            assert power.tobytes() == mean_power_matrix(block, config).tobytes()
        assert sum(sizes) == deployment.n_users
        if case == "short-last-block":
            assert 0 < sizes[-1] < rows


def received_power(power, distance, config):
    """Mean power of a single link: one macro of the given power, one user."""
    config = dataclasses.replace(config, macro_power=power, small_power=power / 2.0)
    deployment = make_deployment(
        [[0.0, 0.0]], np.empty((0, 2)), [[distance, 0.0]], [[1.0]]
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

    # at exponent 3.07 and the 2 km window's diagonal, numpy's SIMD power
    # (AVX-512 builds) and Python's ** differ in the last bit
    @pytest.mark.parametrize("exponent", [3.1, 3.07])
    @pytest.mark.parametrize("small_density", [40.0, 0.0], ids=["small-tier", "macro-only"])
    @pytest.mark.parametrize("corner", [1.0, 2000.0], ids=["1m", "diagonal"])
    def test_config_mean_power_is_the_matrix_bit_for_bit(
        self, exponent, small_density, corner
    ):
        """The one-link helper the config checks equals mean_power_matrix on
        a one-link deployment: the weaker tier's station at (corner, 0) for
        1 m, or at (corner, corner) across the window's diagonal."""
        config = NetworkConfig(path_loss_exponent=exponent, small_density=small_density)
        power = config.small_power if small_density else config.macro_power
        station = [[corner, 0.0 if corner == 1.0 else corner]]
        none = np.empty((0, 2))
        deployment = make_deployment(
            none if small_density else station, station if small_density else none,
            [[0.0, 0.0]], [[1.0]],
        )
        side = config.area_side
        squared = 1.0 if corner == 1.0 else side * side + side * side
        assert reference_squared_distances(deployment)[0, 0] == squared
        matrix = mean_power_matrix(deployment, config)[0, 0]
        assert config.mean_power(power, squared).hex() == float(matrix).hex()

    @given(st.floats(0.01, 1e8), st.floats(2.0, 10.0, exclude_min=True))
    def test_config_diagonal_power_is_the_matrix_at_any_window(self, side, exponent):
        """The config's diagonal row is the matrix's corner-to-corner link,
        bit for bit, at every window and exponent."""
        config = NetworkConfig(area_side=side, path_loss_exponent=exponent)
        deployment = make_deployment(
            np.empty((0, 2)), [[side, side]], [[0.0, 0.0]], [[1.0]]
        )
        matrix = mean_power_matrix(deployment, config)[0, 0]
        diagonal = config.mean_power(config.small_power, side * side + side * side)
        assert diagonal.hex() == float(matrix).hex()

    @pytest.mark.parametrize("exponent", [3.1, 3.07])
    @pytest.mark.parametrize("trial", [0, 1])
    def test_within_ulps_of_the_distance_formula(self, tiny_config, exponent, trial):
        """max(dx*dx + dy*dy, 1) ** (-alpha/2) stays within a few ulps of
        max(d, 1) ** -alpha over d = sqrt(dx*dx + dy*dy): the sqrt's half-ulp
        rounding, raised to alpha, is up to 3.1 ulps, and each side rounds
        its power and its product once more."""
        for config in (tiny_config, NetworkConfig(user_count=200, seed=trial)):
            config = dataclasses.replace(config, path_loss_exponent=exponent)
            deployment = sample_deployment(config, trial)
            power = mean_power_matrix(deployment, config)
            before = distance_mean_power(reference_link_distances)(config, deployment)
            assert before.min() >= sys.float_info.min
            assert np.all(np.abs(power - before) <= 6 * np.spacing(before))

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
            [[100.0, 100.0]], np.empty((0, 2)), [[100.0, 103.0]], [[2.0]]
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
            [[10.0, 10.0]], [[10.0, 12.0]], [[10.0, 11.0]], [[0.05, 1.0]]
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
            [[0.0, 0.0]], np.empty((0, 2)), [[30.0, 40.0]], [[1.0]]
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
    def test_mean_power_matrix_hand_values(self):
        """A 3-4-5 triangle at exponent 4: the 5 m link gives 25**-2, and a
        user at a station gets the 1 m floor."""
        config = NetworkConfig(macro_power=2.0, small_power=1.0, path_loss_exponent=4.0)
        deployment = make_deployment(
            [[0.0, 0.0]], [[3.0, 4.0]], [[0.0, 0.0], [3.0, 0.0]], np.ones((2, 2))
        )
        power = mean_power_matrix(deployment, config)
        assert power.shape == (2, 2)
        assert power[0, 0] == 2.0
        assert power[0, 1] == pytest.approx(25.0**-2, rel=1e-15)
        assert power[1] == pytest.approx([2.0 * 9.0**-2, 16.0**-2], rel=1e-15)

    @pytest.mark.parametrize(
        "powers",
        [{}, {"macro_power": 40, "small_power": 1}],
        ids=["float-powers", "integer-powers"],
    )
    def test_mean_power_uses_unit_fading(self, tiny_config, powers):
        """Each tier scaled in place equals the broadcast per-station scale."""
        config = dataclasses.replace(tiny_config, **powers)
        deployment = sample_deployment(config, 1)
        mean_power = mean_power_matrix(deployment, config)
        squared = reference_squared_distances(deployment)
        path_loss = np.maximum(squared, 1.0) ** (-0.5 * config.path_loss_exponent)
        scale = station_powers(deployment, config)[None, :] * config.reference_loss
        expected = scale * path_loss
        assert mean_power.tobytes() == expected.tobytes()
        assert mean_power.shape == (deployment.n_users, deployment.n_stations)
        assert mean_power.flags.c_contiguous

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
