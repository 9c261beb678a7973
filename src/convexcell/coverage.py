"""Rate requirements, handover loss, and Monte-Carlo rate-coverage estimation.

Rate coverage of a class is the fraction of (user, trial) pairs whose
achieved rate meets the class's demand-derived requirement. All bias
vectors evaluated against one config see identical deployments and fading
(common random numbers), so candidate comparisons are paired and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .association import BiasVector
from .model import (
    Deployment,
    NetworkConfig,
    Tier,
    UserClass,
    mean_power_matrix,
    sample_deployment,
)

SECONDS_PER_DAY = 86400.0
BITS_PER_MB = 8e6  # 1 MB = 1e6 bytes


class EstimationError(RuntimeError):
    """Raised when a coverage estimate cannot be formed."""


@dataclass(frozen=True)
class CoverageReport:
    """Rate coverage of one bias vector under one config.

    average_coverage is the density-weighted mean of the per-class values;
    feasible means every class meets its min_coverage threshold.
    """

    per_class_coverage: tuple[float, float, float]
    average_coverage: float
    feasible: bool
    trials_used: int


def rate_requirement(volume_mb_per_day: float, peak_factor: float) -> float:
    """Busy-period rate requirement in bits/s for a mean daily volume.

    The mean daily volume is spread over 86400 s and concentrated by
    peak_factor into the busy period a user must actually be served in.
    """
    if volume_mb_per_day < 0.0:
        raise ValueError("volume must be >= 0")
    if peak_factor < 1.0:
        raise ValueError("peak_factor must be >= 1")
    return volume_mb_per_day * BITS_PER_MB / SECONDS_PER_DAY * peak_factor


def handover_efficiency(
    velocity_kmh: float, tier_density_per_km2: float, config: NetworkConfig
) -> float:
    """Fraction of time a user moving at the given speed is not in handover.

    Handover rate is the Poisson-Voronoi boundary-crossing rate
    c * v * sqrt(density) with v in m/s and density in stations/m^2; each
    crossing costs handover_delay seconds, floored at zero efficiency.
    """
    if velocity_kmh < 0.0:
        raise ValueError("velocity must be >= 0")
    if tier_density_per_km2 < 0.0:
        raise ValueError("tier density must be >= 0")
    v_ms = velocity_kmh / 3.6
    density_m2 = tier_density_per_km2 * 1e-6
    rate = config.crossing_coefficient * v_ms * math.sqrt(density_m2)
    return max(0.0, 1.0 - rate * config.handover_delay)


# NetworkConfig fields a trial's deployment and mean powers depend on; the
# profiles' density_fraction values are part of the key as well
GEOMETRY_FIELDS = (
    "area_side",
    "macro_density",
    "small_density",
    "macro_power",
    "small_power",
    "path_loss_exponent",
    "reference_loss",
    "user_count",
    "trials",
    "seed",
)


def _geometry_key(config: NetworkConfig) -> tuple:
    """The config values a :class:`TrialGeometry` is built from."""
    return (
        *(getattr(config, name) for name in GEOMETRY_FIELDS),
        tuple(p.density_fraction for p in config.profiles),
    )


class TrialGeometry:
    """Per-(user, trial) link quantities of every trial, built once.

    Samples each trial and keeps, per user, the best macro and best small
    station by mean power with their instantaneous signal terms and the
    total instantaneous power, with users grouped by mobility class so each
    class is one contiguous slice. It depends only on the deployment fields
    of the config (``GEOMETRY_FIELDS`` and each profile's
    ``density_fraction``), not on bandwidth, noise, velocities, handover
    parameters, volumes, ``min_coverage`` or ``demand_peak_factor``. So one
    geometry serves every demand mix and bandwidth of a command: a sweep's
    convexity points and a bandwidth run's (volume, scheme) pairs each bind
    their own :class:`CoverageEstimator` to it. Its arrays cost 49 bytes
    per user-trial, about 5 MB at the defaults (500 users, 200 trials), and
    are read-only. ``deployments`` replaces the sampled trials, for example
    with hand-built ones; the key is still taken from ``config``.
    """

    def __init__(
        self,
        config: NetworkConfig,
        deployments: Iterable[Deployment] | None = None,
    ) -> None:
        self.key = _geometry_key(config)
        if deployments is None:
            deployments = (
                sample_deployment(config, t) for t in range(config.trials)
            )

        counts = config.class_counts()
        for cls, count in zip(UserClass, counts):
            if count == 0:
                raise EstimationError(
                    f"class {cls.label} has zero users in every trial; "
                    "increase user_count or its density_fraction"
                )

        parts: dict[str, list[np.ndarray]] = {}
        station_offset = 0
        for deployment in deployments:
            for name, array in self._reduce(config, deployment, station_offset).items():
                parts.setdefault(name, []).append(array)
            station_offset += deployment.n_stations
        if not parts:
            raise EstimationError("at least one trial is required")

        self.trials = len(parts["cls"])
        self.n_station_ids = station_offset
        # users grouped by class, so each class is one contiguous slice
        order = np.argsort(np.concatenate(parts["cls"]), kind="stable")
        for name in list(parts):  # pop frees each name's per-trial arrays early
            array = np.concatenate(parts.pop(name))[order]
            array.flags.writeable = False
            setattr(self, name, array)
        ends = np.cumsum(np.bincount(self.cls, minlength=3))
        self.class_slices = [
            slice(int(start), int(end)) for start, end in zip((0, *ends), ends)
        ]

    @staticmethod
    def _reduce(
        config: NetworkConfig, deployment: Deployment, station_offset: int
    ) -> dict[str, np.ndarray]:
        """Collapse one trial to per-user best-of-tier link quantities.

        Each key names the geometry attribute its array is concatenated into.
        """
        mean_power = mean_power_matrix(deployment, config)
        inst_power = mean_power * deployment.fading
        n_users = deployment.n_users
        n_macro = deployment.n_macro
        rows = np.arange(n_users)

        best_macro = np.argmax(mean_power[:, :n_macro], axis=1)
        if deployment.n_small > 0:
            best_small = np.argmax(mean_power[:, n_macro:], axis=1) + n_macro
            pw_small = mean_power[rows, best_small]
            sig_small = inst_power[rows, best_small]
        else:
            # no small tier: zero power is never selected by the bias compare
            best_small = best_macro
            pw_small = np.zeros(n_users)
            sig_small = np.zeros(n_users)

        return {
            "cls": deployment.user_classes.astype(np.int8),
            "pw_macro": mean_power[rows, best_macro],
            "pw_small": pw_small,
            # int32 ids halve the part memo; the step turns the per-user choice
            # of serving id into arithmetic instead of a much slower np.where
            "gid_macro": (best_macro + station_offset).astype(np.int32),
            "gid_step": (best_small - best_macro).astype(np.int32),
            "sig_macro": inst_power[rows, best_macro],
            "sig_small": sig_small,
            "total_inst": inst_power.sum(axis=1),
        }


class CoverageEstimator:
    """Shared-realization evaluator of rate coverage for many bias vectors.

    Binds the demand (per-class rate requirements and coverage thresholds),
    handover efficiencies and bandwidth of ``config`` to a
    :class:`TrialGeometry`. The geometry is built from ``config`` when none
    is given; a given geometry must have been built from a config with the
    same deployment fields (see ``GEOMETRY_FIELDS``), else ``ValueError``.
    Binding costs milliseconds where building costs seconds, so a command
    builds one geometry and binds each demand mix to it.

    A user's serving station depends only on its own class's bias, and
    station loads add up across classes, so each (class, bias value) pair
    is reduced once per bandwidth to a part: the class's serving ids, its
    rate factors times the bandwidth, and its per-station loads. A bias
    triple then costs the sum of three load vectors and one rate comparison
    per user, and grid searches over n values per class build 3n parts
    instead of n^3 associations. Reports are cached by bias triple;
    identical inputs give identical reports regardless of evaluation order.
    """

    def __init__(
        self,
        config: NetworkConfig,
        geometry: TrialGeometry | None = None,
    ) -> None:
        if geometry is None:
            geometry = TrialGeometry(config)
        elif geometry.key != _geometry_key(config):
            raise ValueError(
                "geometry was built from a config with other deployment fields "
                f"({', '.join(GEOMETRY_FIELDS)} or density_fraction)"
            )
        self._bind(config, geometry)

    def _bind(self, config: NetworkConfig, geometry: TrialGeometry) -> None:
        """Attach the demand and bandwidth of config to the geometry."""
        self.config = config
        self.geometry = geo = geometry
        self._requirements = np.array(
            [
                rate_requirement(p.traffic_volume, config.demand_peak_factor)
                for p in config.profiles
            ]
        )
        self._min_coverage = np.array([p.min_coverage for p in config.profiles])
        self._fractions = config.density_fractions()

        eff = np.empty((3, 2))
        for cls in UserClass:
            velocity = config.profiles[cls].velocity
            eff[cls, Tier.MACRO] = handover_efficiency(
                velocity, config.macro_density, config
            )
            eff[cls, Tier.SMALL] = handover_efficiency(
                velocity, config.small_density, config
            )

        # bandwidth-dependent per-user rate factors
        bandwidth = config.bandwidth
        noise = config.noise_power * bandwidth
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr_macro = geo.sig_macro / (geo.total_inst - geo.sig_macro + noise)
            sinr_small = np.where(
                geo.pw_small > 0.0,
                geo.sig_small / (geo.total_inst - geo.sig_small + noise),
                0.0,
            )
        # efficiency * log2(1 + SINR) * W; division by the load applied later
        eff_macro = eff[geo.cls, Tier.MACRO]
        eff_small = eff[geo.cls, Tier.SMALL]
        self._scaled_macro = eff_macro * np.log1p(sinr_macro) / math.log(2.0) * bandwidth
        self._scaled_small = eff_small * np.log1p(sinr_small) / math.log(2.0) * bandwidth
        self._cache: dict[tuple[float, float, float], CoverageReport] = {}
        self._parts: dict[tuple[int, float], tuple[np.ndarray, ...]] = {}

    def with_bandwidth(self, bandwidth: float) -> "CoverageEstimator":
        """Estimator bound to the same geometry and demand at another bandwidth."""
        if bandwidth <= 0.0:
            raise ValueError("bandwidth must be > 0")
        clone = object.__new__(CoverageEstimator)
        clone._bind(replace(self.config, bandwidth=bandwidth), self.geometry)
        return clone

    def evaluate(self, bias: BiasVector) -> CoverageReport:
        """Rate coverage of one bias vector over the shared realizations."""
        key = (bias.stationary_bias, bias.walking_bias, bias.vehicular_bias)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        parts = [self._part(cls, value) for cls, value in enumerate(key)]
        # float loads hold exact counts and spare the divide a conversion
        loads = (parts[0][2] + parts[1][2] + parts[2][2]).astype(np.float64)
        per_class = [
            # take gathers with int32 ids without first copying them to intp
            np.count_nonzero(scaled / loads.take(gid) >= requirement) / gid.size
            for (gid, scaled, _), requirement in zip(parts, self._requirements)
        ]
        average = float(np.dot(self._fractions, per_class))
        feasible = bool(np.all(np.asarray(per_class) >= self._min_coverage))
        report = CoverageReport(
            per_class_coverage=tuple(per_class),
            average_coverage=average,
            feasible=feasible,
            trials_used=self.geometry.trials,
        )
        self._cache[key] = report
        return report

    def _part(self, cls: int, bias: float) -> tuple[np.ndarray, ...]:
        """Serving ids, bandwidth-scaled rate factors and loads of one class."""
        key = (cls, bias)
        part = self._parts.get(key)
        if part is None:
            geo = self.geometry
            users = geo.class_slices[cls]
            on_small = bias * geo.pw_small[users] > geo.pw_macro[users]
            gid = geo.gid_macro[users] + on_small * geo.gid_step[users]
            scaled = np.where(
                on_small, self._scaled_small[users], self._scaled_macro[users]
            )
            # int32 loads halve the memo's per-station cost
            loads = np.bincount(gid, minlength=geo.n_station_ids).astype(np.int32)
            part = (gid, scaled, loads)
            self._parts[key] = part
        return part


def estimate_rate_coverage(config: NetworkConfig, bias: BiasVector) -> CoverageReport:
    """Monte-Carlo rate coverage of one bias vector under one config."""
    return CoverageEstimator(config).evaluate(bias)
