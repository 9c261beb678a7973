"""Bias vectors, dB conversions, and the loop oracle's association and loads."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexcell import (
    BiasVector,
    NetworkConfig,
    UserClass,
    linear_from_db,
    mean_power_matrix,
    sample_deployment,
)
from helpers import associate, make_deployment, reference_fading, user_classes


@given(st.floats(0.0, 40.0))
def test_db_linear_round_trip(db):
    assert 10.0 * math.log10(linear_from_db(db)) == pytest.approx(db, abs=1e-9)


def test_db_anchors():
    assert linear_from_db(0.0) == 1.0
    assert linear_from_db(10.0) == pytest.approx(10.0)
    assert linear_from_db(3.0) == pytest.approx(1.995262, rel=1e-6)


def test_db_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="4000"):
        linear_from_db(4000.0)


class TestBiasVector:
    def test_rejects_sub_unity(self):
        with pytest.raises(ValueError, match="walking_bias"):
            BiasVector(1.0, 0.5, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="vehicular_bias must be finite"):
            BiasVector(1.0, 1.0, value)

    def test_uniform_and_from_db(self):
        assert BiasVector.uniform(2.0) == BiasVector(2.0, 2.0, 2.0)
        from_db = BiasVector.from_db(0.0, 10.0, 20.0)
        assert from_db.stationary_bias == 1.0
        assert from_db.walking_bias == pytest.approx(10.0)
        assert from_db.vehicular_bias == pytest.approx(100.0)

    def test_class_lookup(self):
        # positional order is UserClass order, which the estimator relies on
        bias = BiasVector(1.0, 2.0, 3.0)
        by_class = [getattr(bias, f"{cls.label}_bias") for cls in UserClass]
        assert by_class == [1.0, 2.0, 3.0]


class TestAssociate:
    def test_unit_bias_is_plain_argmax(self, tiny_config):
        deployment = sample_deployment(tiny_config, 0)
        serving = associate(deployment, BiasVector.uniform(1.0), tiny_config)
        expected = np.argmax(mean_power_matrix(deployment, tiny_config), axis=1)
        assert np.array_equal(serving, expected)

    def test_no_small_cells_means_strongest_macro(self):
        config = NetworkConfig(small_density=0.0, user_count=30)
        deployment = sample_deployment(config, 0)
        serving = associate(deployment, BiasVector(8.0, 8.0, 8.0), config)
        assert (serving < deployment.n_macro).all()
        mean_power = mean_power_matrix(deployment, config)
        assert np.array_equal(serving, np.argmax(mean_power, axis=1))

    def test_per_class_bias_moves_only_that_class(self):
        # macro mean power 4, small mean power 1 at both users (1 m links);
        # walking bias 5 flips the walking user only: 5 * 1 > 4. Half the
        # users are stationary and half walking, so user 0 is stationary
        # and user 1 walking.
        config = NetworkConfig.from_dict({
            "macro_power": 4.0, "small_power": 1.0, "user_count": 2,
            "profiles": {
                "stationary": {"density_fraction": 0.5},
                "walking": {"density_fraction": 0.5},
                "vehicular": {"density_fraction": 0.0},
            },
        })
        assert list(user_classes(config)) == [UserClass.STATIONARY, UserClass.WALKING]
        deployment = make_deployment(
            [[101.0, 100.0]],
            [[100.0, 101.0]],
            [[100.0, 100.0], [100.0, 100.0]],
            np.ones((2, 2)),
        )
        serving = associate(deployment, BiasVector(1.0, 5.0, 1.0), config)
        assert list(serving) == [0, 1]  # station 0 is the macro, 1 the small

    def test_tie_breaks_to_lowest_station_id(self):
        config = NetworkConfig(user_count=1)
        deployment = make_deployment(
            [[97.0, 100.0], [103.0, 100.0]],
            np.empty((0, 2)),
            [[100.0, 100.0]],
            np.ones((1, 2)),
        )
        serving = associate(deployment, BiasVector.uniform(1.0), config)
        assert serving[0] == 0

    @given(st.floats(1e-3, 1e3), st.integers(0, 4))
    def test_argmax_scale_invariance(self, scale, trial):
        base = NetworkConfig(
            area_side=800.0, macro_density=3.0, small_density=15.0,
            macro_power=40.0, small_power=1.0, user_count=40, trials=1,
        )
        scaled = dataclasses.replace(
            base, macro_power=40.0 * scale, small_power=1.0 * scale
        )
        deployment = sample_deployment(base, trial)
        bias = BiasVector(1.0, 3.0, 6.0)
        assert np.array_equal(
            associate(deployment, bias, base),
            associate(deployment, bias, scaled),
        )

    @given(st.sampled_from([1.0, 2.0, 4.0, 10.0, 100.0]), st.integers(0, 3))
    def test_cre_diagonal_equivalence(self, common_bias, trial):
        """Equal per-class biases reproduce single-bias range expansion."""
        config = NetworkConfig(
            area_side=800.0, macro_density=3.0, small_density=15.0,
            user_count=40, trials=1,
        )
        deployment = sample_deployment(config, trial)
        serving = associate(deployment, BiasVector.uniform(common_bias), config)
        effective = mean_power_matrix(deployment, config)
        effective[:, deployment.n_macro :] *= common_bias
        assert np.array_equal(serving, np.argmax(effective, axis=1))

    @given(
        st.sampled_from(list(UserClass)),
        st.sampled_from([(1.0, 2.0), (2.0, 6.0), (1.0, 100.0)]),
        st.integers(0, 3),
    )
    def test_raising_bias_never_returns_to_macro(self, cls, pair, trial):
        low, high = pair
        config = NetworkConfig(
            area_side=800.0, macro_density=3.0, small_density=15.0,
            user_count=40, trials=1,
        )
        deployment = sample_deployment(config, trial)
        biases = [1.0, 1.0, 1.0]
        biases[cls] = low
        before = associate(deployment, BiasVector(*biases), config)
        biases[cls] = high
        after = associate(deployment, BiasVector(*biases), config)
        of_class = user_classes(config) == cls
        was_small = (before >= deployment.n_macro) & of_class
        assert (after[was_small] >= deployment.n_macro).all()


class TestCellLoads:
    def test_conservation(self, tiny_config):
        deployment = sample_deployment(tiny_config, 0)
        serving = associate(deployment, BiasVector(2.0, 1.0, 4.0), tiny_config)
        loads = np.bincount(serving, minlength=deployment.n_stations)
        assert loads.sum() == deployment.n_users
        assert loads.shape == (deployment.n_stations,)

    def test_single_station_takes_everyone(self):
        config = NetworkConfig(small_density=0.0, user_count=25)
        deployment = sample_deployment(config, 0)
        if deployment.n_macro > 1:
            deployment = make_deployment(
                deployment.station_positions[:1],
                np.empty((0, 2)),
                deployment.user_positions,
                reference_fading(deployment)[:, :1],
            )
        serving = associate(deployment, BiasVector.uniform(1.0), config)
        loads = np.bincount(serving, minlength=deployment.n_stations)
        assert loads[0] == 25
        assert loads.sum() == 25

    def test_hand_counted_assignment(self):
        config = NetworkConfig(macro_power=4.0, small_power=1.0, user_count=3)
        # users at 1 m from the macro, 1 m from the small, and 10 m from both
        deployment = make_deployment(
            [[100.0, 100.0]],
            [[120.0, 100.0]],
            [[101.0, 100.0], [119.0, 100.0], [110.0, 100.0]],
            np.ones((3, 2)),
        )
        serving = associate(deployment, BiasVector.uniform(1.0), config)
        # third user: macro 4*10^-a vs small 1*10^-a -> macro
        assert list(serving) == [0, 1, 0]
        assert list(np.bincount(serving, minlength=2)) == [2, 1]
