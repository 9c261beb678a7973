"""Association bias, handover loss and Monte-Carlo rate-coverage estimation.

Rate coverage of a class is the fraction of (user, trial) pairs whose
achieved rate meets the class's demand-derived requirement. All bias
vectors evaluated against one config see identical deployments and fading
(common random numbers), so candidate comparisons are paired and exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from .model import (
    Deployment,
    NetworkConfig,
    UserClass,
    mean_power_matrix,
    rate_requirement,
    sample_deployment,
)


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


# links per user block of a trial's reduction: a block's distance, power and
# instantaneous-power matrices (8 bytes per link each) then fit in L2
BLOCK_LINKS = 1 << 16

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


def _worker_count(trials: int) -> int:
    """Usable CPUs, at most one per trial."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, trials))


def linear_from_db(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows as a linear factor") from None


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


class Association(NamedTuple):
    """Serving stations of one class under one bias value (read-only arrays)."""

    on_small: np.ndarray  # bool per user of the class, True where a small cell serves it
    loads: np.ndarray  # int32 users of the class per station id
    own: np.ndarray  # int32 per user: its serving station's load from its own class
    full: np.ndarray  # int32 per user: own plus the station's other_candidates


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

    ``other_candidates[cls]`` counts, per station id, the users of the
    other two classes that have the station as their best macro or best
    small station: whatever their biases, at most that many of them are
    served there. ``association(cls, bias)`` keeps, per class and bias
    value and for the life of the geometry, which users a small cell
    serves, the class's load per station id, and each user's serving
    station load from its own class alone and with those other-class
    candidates added: 9 bytes per user of the class plus 4 per
    station-trial. A grid value used by all three classes costs about
    1.3 MB at the defaults, the 11-value grid about 14 MB.

    Trials are sampled and reduced on one thread per usable CPU, each trial
    in blocks of about ``BLOCK_LINKS`` links whose fading is drawn per
    block, so the build holds about workers x one block of link data at a
    time, whatever the user count. Each
    trial is a pure function of ``(seed, trial)`` and is collected in trial
    order, so the arrays do not depend on the number of threads. A trial
    whose squared distances or instantaneous powers overflow a float raises
    EstimationError instead of carrying infinities into the rates.
    """

    def __init__(
        self,
        config: NetworkConfig,
        deployments: Iterable[Deployment] | None = None,
    ) -> None:
        self.key = _geometry_key(config)
        jobs = range(config.trials) if deployments is None else list(deployments)
        if not jobs:
            raise EstimationError("at least one trial is required")
        if deployments is None:
            counts = config.class_counts()
        else:
            counts = sum(np.bincount(d.user_classes, minlength=3) for d in jobs)
        for cls, count in zip(UserClass, counts):
            if count == 0:
                raise EstimationError(
                    f"class {cls.label} has zero users in every trial; "
                    "increase user_count or its density_fraction"
                )

        def reduce_trial(job: int | Deployment) -> tuple[dict[str, np.ndarray], int]:
            deployment = sample_deployment(config, job) if deployments is None else job
            # numpy's error state is per thread, so each worker sets its own
            try:
                with np.errstate(over="raise"):
                    return self._reduce(config, deployment)
            except FloatingPointError:
                raise EstimationError(
                    "link distances or received powers overflow a float: "
                    "area_side, macro_power or reference_loss is too large"
                ) from None

        # imported here, not at module level: the import takes about 8 ms,
        # which commands that build no geometry (analyze) need not pay
        from concurrent.futures import ThreadPoolExecutor

        # numpy's ufuncs and fading draws release the GIL; map yields in
        # trial order and cancels the trials not yet started if one raises
        with ThreadPoolExecutor(_worker_count(len(jobs))) as pool:
            reduced = list(pool.map(reduce_trial, jobs))

        parts = []
        station_offset = 0
        for arrays, n_stations in reduced:
            arrays["gid_macro"] += station_offset
            station_offset += n_stations
            parts.append(arrays)
        self.trials = len(parts)
        self.n_station_ids = station_offset
        # users grouped by class, so each class is one contiguous slice
        order = np.argsort(np.concatenate([p["cls"] for p in parts]), kind="stable")
        for name in list(parts[0]):
            # pop frees each name's per-trial arrays early
            array = np.concatenate([p.pop(name) for p in parts])[order]
            array.flags.writeable = False
            setattr(self, name, array)
        ends = np.cumsum(np.bincount(self.cls, minlength=3))
        self.class_slices = [
            slice(int(start), int(end)) for start, end in zip((0, *ends), ends)
        ]
        # a user is served by its best macro or its best small station
        # whatever its bias, so the users of the other classes that have a
        # station among those two bound the load they can put on it
        candidates = np.empty((3, self.n_station_ids), dtype=np.int32)
        has_small = self.gid_step != 0
        for cls, users in enumerate(self.class_slices):
            macro = self.gid_macro[users]
            small = (macro + self.gid_step[users])[has_small[users]]
            candidates[cls] = np.bincount(macro, minlength=self.n_station_ids)
            candidates[cls] += np.bincount(small, minlength=self.n_station_ids)
        self.other_candidates = candidates.sum(axis=0, dtype=np.int32) - candidates
        self.other_candidates.flags.writeable = False
        self._associations: dict[tuple[int, float], Association] = {}

    def association(self, cls: int, bias: float) -> Association:
        """Serving stations of one class's users under one bias value.

        A user is served by its best small station when the bias times its
        power beats the best macro's, ties going to the macro. Besides that
        choice and the class's per-station loads, it keeps each user's
        station load as gathered by station id: ``own`` from the class
        alone, ``full`` with the station's ``other_candidates`` added. The
        serving ids themselves are not kept. The result depends on neither
        demand nor bandwidth, so it is computed once and kept, read-only,
        for the life of the geometry: every estimator, scheme and bandwidth
        bound to this geometry shares it. Biasing on mean power keeps the
        serving map fixed across fading draws, as a real network configures
        it.
        """
        key = (cls, bias)
        found = self._associations.get(key)
        if found is None:
            users = self.class_slices[cls]
            on_small = bias * self.pw_small[users] > self.pw_macro[users]
            # the int32 step keeps the ids int32 and avoids a slower np.where
            gid = self.gid_macro[users] + on_small * self.gid_step[users]
            loads = np.bincount(gid, minlength=self.n_station_ids).astype(np.int32)
            own = loads.take(gid)
            full = own + self.other_candidates[cls].take(gid)
            found = Association(on_small, loads, own, full)
            for array in found:
                array.flags.writeable = False
            self._associations[key] = found
        return found

    @staticmethod
    def _reduce(
        config: NetworkConfig, deployment: Deployment
    ) -> tuple[dict[str, np.ndarray], int]:
        """Collapse one trial to per-user best-of-tier link quantities.

        Returns the arrays, each keyed by the geometry attribute it is
        concatenated into, with trial-local station ids in ``gid_macro``,
        and the trial's station count. Users are reduced in row blocks of
        about ``BLOCK_LINKS`` links (at least one user), each with its rows
        of the deployment's fading.
        """
        n_users = deployment.n_users
        n_macro = deployment.n_macro
        has_small = deployment.n_small > 0
        out = {
            "cls": deployment.user_classes.astype(np.int8),
            "pw_macro": np.empty(n_users),
            # no small tier: zero power is never selected by the bias compare
            "pw_small": np.zeros(n_users),
            # int32 ids halve the part memo; the step turns the per-user
            # choice of serving id into arithmetic instead of a much slower
            # np.where
            "gid_macro": np.empty(n_users, dtype=np.int32),
            "gid_step": np.zeros(n_users, dtype=np.int32),
            "sig_macro": np.empty(n_users),
            "sig_small": np.zeros(n_users),
            "total_inst": np.empty(n_users),
        }
        step = max(1, BLOCK_LINKS // deployment.n_stations)
        starts = range(0, n_users, step)
        for start, fading in zip(starts, deployment.fading_blocks(step)):
            users = slice(start, start + step)
            block = Deployment(
                macro_positions=deployment.macro_positions,
                small_positions=deployment.small_positions,
                user_positions=deployment.user_positions[users],
                user_classes=deployment.user_classes[users],
                fading=fading,
            )
            mean_power = mean_power_matrix(block, config)
            rows = np.arange(block.n_users)
            best_macro = np.argmax(mean_power[:, :n_macro], axis=1)
            out["pw_macro"][users] = mean_power[rows, best_macro]
            out["gid_macro"][users] = best_macro
            if has_small:
                best_small = np.argmax(mean_power[:, n_macro:], axis=1) + n_macro
                out["pw_small"][users] = mean_power[rows, best_small]
                out["gid_step"][users] = best_small - best_macro
            # the instantaneous powers overwrite the mean powers, so the
            # block's links stay in one buffer while they are in cache
            inst_power = np.multiply(mean_power, fading, out=mean_power)
            out["sig_macro"][users] = inst_power[rows, best_macro]
            if has_small:
                out["sig_small"][users] = inst_power[rows, best_small]
            inst_power.sum(axis=1, out=out["total_inst"][users])
        return out, deployment.n_stations


def _rate_factors(
    geo: TrialGeometry,
    users: slice,
    signal: np.ndarray,
    eff: float,
    config: NetworkConfig,
) -> np.ndarray:
    """efficiency * log2(1 + SINR) * W per user of a class for one tier's signal.

    SINR is signal / (total - signal + noise * W). Computed in place in one
    new array, in the operation order of the formula; the division by the
    load is left to the rate caps.
    """
    bandwidth = config.bandwidth
    factor = np.subtract(geo.total_inst[users], signal[users])
    factor += config.noise_power * bandwidth
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(signal[users], factor, out=factor)
    np.log1p(factor, out=factor)
    # both outcomes are meant: a factor that overflows is +inf, a user
    # covered at every load, and an infinite SINR (no noise, no interferer)
    # times zero efficiency (always in handover) is NaN, which the rate caps
    # read as never covered
    with np.errstate(over="ignore", invalid="ignore"):
        factor *= eff
        factor /= math.log(2.0)
        factor *= bandwidth
    return factor


def _rate_caps(
    scaled: np.ndarray, requirement: float, max_load: int
) -> np.ndarray:
    """Largest station load at which each user still meets the requirement.

    Returns int32 caps in 0..max_load such that, for every integer L in
    1..max_load, ``L <= cap`` exactly when ``scaled / L >= requirement``
    holds in float arithmetic. IEEE division is monotone in the divisor, so
    for a non-negative or NaN ``scaled`` and ``requirement >= 0`` the loads
    that pass are a prefix of 1..max_load. The floor of
    ``scaled / requirement`` lands within a step or two of its end; each
    cap then steps to it with that same float test. (A negative subnormal
    ``scaled`` with a zero requirement passes once ``scaled / L`` rounds to
    -0.0, which no cap can express; rate factors are never negative.)
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cap = np.divide(scaled, requirement)
        np.floor(cap, out=cap)
        undefined = np.isnan(cap)
        if undefined.any():  # 0/0 or inf/inf: every load passes or none
            passes_all = scaled[undefined] / max_load >= requirement
            cap[undefined] = np.where(passes_all, max_load, 0)
        np.clip(cap, 0, max_load, out=cap)
        # lower the caps whose load misses, then raise those whose next
        # load still passes; few users take either step
        users = np.flatnonzero(~(scaled / cap >= requirement))
        users = users[cap[users] >= 1]
        while users.size:
            cap[users] -= 1
            below = ~(scaled[users] / cap[users] >= requirement)
            users = users[(cap[users] >= 1) & below]
        following = cap + 1
        np.divide(scaled, following, out=following)
        users = np.flatnonzero(following >= requirement)
        users = users[cap[users] < max_load]
        while users.size:
            cap[users] += 1
            above = scaled[users] / (cap[users] + 1) >= requirement
            users = users[(cap[users] < max_load) & above]
    return cap.astype(np.int32)


class CoverageEstimator:
    """Shared-realization evaluator of rate coverage for many bias vectors.

    Binds the demand (per-class rate requirements and coverage thresholds),
    handover efficiencies and bandwidth of ``config`` to a
    :class:`TrialGeometry`, which must have been built from a config with
    the same deployment fields (see ``GEOMETRY_FIELDS``), else
    ``ValueError``. Binding costs milliseconds where building costs
    seconds, so a command builds one geometry and binds each demand mix to
    it.

    A user's serving station depends only on its own class's bias, and
    station loads add up across classes. The geometry keeps each (class,
    bias value) association; the estimator reduces it, once per binding,
    to a part. At binding, each user's rate factor and requirement give
    an exact integer cap, the largest load of its station at which it is
    still covered; the estimator keeps only these caps, 8 bytes per
    user-trial. Users whose own class alone already loads the station past
    the cap (the association's ``own``) are never covered; users whose cap
    also holds when every other-class user that could be served there is
    (its ``full``) are always covered. The association gathers both loads
    once, so a part is two integer compares per user against its caps. A
    part keeps the count of the always-covered users and the station ids
    and caps of the rest, the undecided users, so a bias triple costs the
    sum of three load vectors and one gather and integer compare per
    undecided user. Grid searches over n values per class build 3n parts
    instead of n^3 associations. Every request is computed; identical
    inputs give identical reports regardless of evaluation order.
    """

    def __init__(self, config: NetworkConfig, geometry: TrialGeometry) -> None:
        if geometry.key != _geometry_key(config):
            raise ValueError(
                "geometry was built from a config with other deployment fields "
                f"({', '.join(GEOMETRY_FIELDS)} or density_fraction)"
            )
        self._bind(config, geometry)

    def _bind(self, config: NetworkConfig, geometry: TrialGeometry) -> None:
        """Attach the demand and bandwidth of config to the geometry."""
        self.config = config
        self.geometry = geo = geometry
        self._min_coverage = np.array([p.min_coverage for p in config.profiles])
        self._fractions = config.density_fractions()
        # each class's rate caps at its users' best macro station, and the
        # step to their caps at their best small station; a user without a
        # small station never takes the step, as its small power is zero
        max_load = geo.cls.size  # no station serves more users than that
        self._user_caps = []
        for cls, users in zip(UserClass, geo.class_slices):
            profile = config.profiles[cls]
            requirement = rate_requirement(
                profile.traffic_volume, config.demand_peak_factor
            )
            caps = []
            for signal, density in (
                (geo.sig_macro, config.macro_density),
                (geo.sig_small, config.small_density),
            ):
                eff = handover_efficiency(profile.velocity, density, config)
                scaled = _rate_factors(geo, users, signal, eff, config)
                caps.append(_rate_caps(scaled, requirement, max_load))
            macro, step = caps
            step -= macro
            self._user_caps.append((macro, step))
        self._parts: dict[tuple[int, float], tuple] = {}
        # evaluate's station loads
        self._loads = np.empty(geo.n_station_ids, dtype=np.int32)

    def with_bandwidth(self, bandwidth: float) -> "CoverageEstimator":
        """Estimator bound to the same geometry and demand at another bandwidth.

        A bandwidth the config refuses raises its ConfigError, a ValueError.
        """
        clone = object.__new__(CoverageEstimator)
        clone._bind(replace(self.config, bandwidth=bandwidth), self.geometry)
        return clone

    def evaluate(self, bias: BiasVector) -> CoverageReport:
        """Rate coverage of one bias vector over the shared realizations."""
        values = (bias.stationary_bias, bias.walking_bias, bias.vehicular_bias)
        parts = [self._part(cls, value) for cls, value in enumerate(values)]
        loads = self._loads
        np.add(parts[0][0], parts[1][0], out=loads)
        np.add(loads, parts[2][0], out=loads)
        per_class = []
        for (_, always, gid, cap), users in zip(parts, self.geometry.class_slices):
            # take gathers with int32 ids without first copying them to intp;
            # ids are always in range, so mode="clip" changes none of them
            count = always + np.count_nonzero(loads.take(gid, mode="clip") <= cap)
            per_class.append(count / (users.stop - users.start))
        average = float(np.dot(self._fractions, per_class))
        feasible = bool(np.all(np.asarray(per_class) >= self._min_coverage))
        return CoverageReport(
            per_class_coverage=tuple(per_class),
            average_coverage=average,
            feasible=feasible,
            trials_used=self.geometry.trials,
        )

    def _part(self, cls: int, bias: float) -> tuple:
        """Station loads, always-covered count and undecided users of a class.

        Returns ``(loads, always, gid, cap)``: the class's per-station loads,
        the number of its users covered whatever the other classes' biases,
        and the serving ids and caps of the users that depend on them. The
        serving ids are recomputed for those users only, with the
        association's arithmetic.
        """
        key = (cls, bias)
        part = self._parts.get(key)
        if part is None:
            geo = self.geometry
            on_small, loads, own, full = geo.association(cls, bias)
            cap_macro, cap_step = self._user_caps[cls]
            cap = cap_macro + on_small * cap_step
            # below its class's own load the user is never covered, at or
            # above the full load (own plus every other-class candidate)
            # always; in between it depends on the other classes' biases
            always = np.count_nonzero(cap >= full)
            undecided = np.flatnonzero((cap >= own) & (cap < full))
            # the serving ids of the undecided users, with association's arithmetic
            users = geo.class_slices[cls]
            gid = geo.gid_macro[users].take(undecided)
            gid += on_small.take(undecided) * geo.gid_step[users].take(undecided)
            part = (loads, always, gid, cap.take(undecided))
            self._parts[key] = part
        return part


def estimate_rate_coverage(config: NetworkConfig, bias: BiasVector) -> CoverageReport:
    """Monte-Carlo rate coverage of one bias vector under one config."""
    return CoverageEstimator(config, TrialGeometry(config)).evaluate(bias)
