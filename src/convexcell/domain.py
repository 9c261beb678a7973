"""The numpy-free vocabulary shared by the simulator and the trace analytics.

User classes, units, demand scenarios, scheme names, the default grid and
convexity values, and the errors the command line reports. The trace
analytics and the argument parser need nothing else, so ``analyze`` runs
without importing numpy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

SECONDS_PER_DAY = 86400.0
BITS_PER_MB = 8e6  # 1 MB = 1e6 bytes

DEFAULT_GRID_DB = tuple(float(db) for db in range(0, 21, 2))
DEFAULT_CONVEXITY_VALUES = (1.0, 2.0, 3.04, 4.0, 5.0, 6.0, 7.0, 8.0)


class UserClass(enum.IntEnum):
    """Mobility state of a user. Values index per-class arrays."""

    STATIONARY = 0
    WALKING = 1
    VEHICULAR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


class EstimationError(RuntimeError):
    """Raised when a coverage estimate cannot be formed."""


class UnsatisfiableRequirementError(RuntimeError):
    """No bandwidth in the search interval satisfies every class threshold."""


class Scheme(enum.Enum):
    THREE_STAGE = "three-stage"
    CRE = "cre"
    FULL_SEARCH = "full"


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
