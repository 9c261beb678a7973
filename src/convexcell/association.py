"""Biased cell association and per-station load accounting.

Association is quasi-static: each user attaches to the station with the
highest fading-averaged received power, after multiplying small-cell powers
by the bias of the user's mobility class. Biasing on mean power keeps the
serving map fixed across fading draws, as a real network configures it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Deployment, NetworkConfig, Tier, UserClass, mean_power_matrix


def linear_from_db(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows as a linear factor") from None


def db_from_linear(linear: float) -> float:
    return 10.0 * np.log10(linear)


@dataclass(frozen=True)
class BiasVector:
    """Per-class small-cell association bias, linear factors >= 1.

    1.0 means unbiased max-power association for that class; values above 1
    expand the small-cell footprint for the class. Values below 1 are not
    representable; keep a class at 1 and raise the others instead. NaN and
    infinity are rejected too.
    """

    stationary_bias: float = 1.0
    walking_bias: float = 1.0
    vehicular_bias: float = 1.0

    def __post_init__(self) -> None:
        for name in ("stationary_bias", "walking_bias", "vehicular_bias"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 1.0):
                raise ValueError(f"{name} must be finite and >= 1 (linear)")

    @classmethod
    def uniform(cls, bias: float) -> "BiasVector":
        """Common bias for all classes (cell range expansion)."""
        return cls(bias, bias, bias)

    @classmethod
    def from_db(cls, stationary_db: float, walking_db: float, vehicular_db: float) -> "BiasVector":
        return cls(
            linear_from_db(stationary_db),
            linear_from_db(walking_db),
            linear_from_db(vehicular_db),
        )

    def as_array(self) -> np.ndarray:
        """Linear biases indexed by UserClass value."""
        return np.array([self.stationary_bias, self.walking_bias, self.vehicular_bias])

    def for_class(self, user_class: UserClass) -> float:
        return float(self.as_array()[user_class])


@dataclass(frozen=True)
class AssociationMap:
    """Serving station id and tier per user."""

    serving: np.ndarray
    tier: np.ndarray

    @property
    def n_users(self) -> int:
        return self.serving.shape[0]


def associate(
    deployment: Deployment, bias: BiasVector, config: NetworkConfig
) -> AssociationMap:
    """Assign each user the station maximizing bias-scaled mean power.

    Small-cell mean received power is multiplied by the bias of the user's
    class; macro power is never scaled. Ties resolve to the lowest station
    id, which favors macros since they occupy the low ids.
    """
    if deployment.n_macro == 0:
        raise ValueError("deployment must contain at least one macro station")
    mean_power = mean_power_matrix(deployment, config)
    user_bias = bias.as_array()[deployment.user_classes]
    effective = mean_power.copy()
    effective[:, deployment.n_macro:] *= user_bias[:, None]
    serving = np.argmax(effective, axis=1)  # first max -> lowest station id
    tier = np.where(serving >= deployment.n_macro, Tier.SMALL, Tier.MACRO).astype(np.int8)
    return AssociationMap(serving=serving, tier=tier)


def cell_loads(assoc: AssociationMap, deployment: Deployment) -> np.ndarray:
    """User count per station id; unused stations report 0."""
    if assoc.n_users != deployment.n_users:
        raise ValueError("association map does not match deployment user count")
    if assoc.serving.size and (
        assoc.serving.min() < 0 or assoc.serving.max() >= deployment.n_stations
    ):
        raise ValueError("association map references unknown station ids")
    return np.bincount(assoc.serving, minlength=deployment.n_stations)
