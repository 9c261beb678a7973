"""Per-class small-cell association bias and its dB conversions.

Association is quasi-static: each user attaches to the station with the
highest fading-averaged received power, after multiplying small-cell powers
by the bias of the user's mobility class. Biasing on mean power keeps the
serving map fixed across fading draws, as a real network configures it.
:class:`~convexcell.coverage.TrialGeometry` and
:class:`~convexcell.coverage.CoverageEstimator` apply that rule; this
module holds only the bias itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
