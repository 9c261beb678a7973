"""Association bias, handover loss and Monte-Carlo rate-coverage estimation.

Rate coverage of a class is the fraction of (user, trial) pairs whose
achieved rate meets the class's demand-derived requirement. All bias
vectors evaluated against one config see identical deployments and fading
(common random numbers), so candidate comparisons are paired and exact.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .domain import EstimationError
from .model import (
    Deployment,
    NetworkConfig,
    UserClass,
    mean_power_matrix,
    rate_requirement,
    sample_deployment,
)


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

    Each of the ``config.crossing_rate`` cell crossings per second costs
    handover_delay seconds; the efficiency is floored at zero.
    """
    if velocity_kmh < 0.0:
        raise ValueError("velocity must be >= 0")
    if tier_density_per_km2 < 0.0:
        raise ValueError("tier density must be >= 0")
    rate = config.crossing_rate(velocity_kmh, tier_density_per_km2)
    return max(0.0, 1.0 - rate * config.handover_delay)


# links per user block of a trial's reduction: a block's distance, power and
# instantaneous-power matrices (8 bytes per link each) then fit in L2
BLOCK_LINKS = 1 << 16


def _load_dtype(user_count: int) -> type:
    """Integer type of every count of a trial's users at a station.

    Station loads, their sums over classes, other-class candidates and rate
    caps all lie in 0..user_count, and cap steps in -user_count..user_count,
    so the narrowest of int16 and int32 that holds user_count holds them all.
    """
    return np.int16 if user_count <= np.iinfo(np.int16).max else np.int32


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
    # the rest are of the geometry's load dtype, int16 up to 32767 users per trial
    loads: np.ndarray  # users of the class per station id
    own: np.ndarray  # per user: its serving station's load from its own class
    full: np.ndarray  # per user: own plus the station's other_candidates


class TrialGeometry:
    """Per-(user, trial) link quantities of every trial, built once.

    Samples each trial and keeps, per user, the best macro and best small
    station by mean power with their instantaneous signal terms and the
    total instantaneous power, with users grouped by mobility class so each
    class is one contiguous slice; users take their classes by index from
    ``config.class_counts()``. It depends only on the deployment fields of
    the config (``GEOMETRY_FIELDS`` and each profile's
    ``density_fraction``), not on bandwidth, noise, velocities, handover
    parameters, volumes, ``min_coverage`` or ``demand_peak_factor``. So one
    geometry serves every demand mix and bandwidth of a command: a sweep's
    convexity points and a bandwidth run's (volume, scheme) pairs each bind
    their own :class:`CoverageEstimator` to it. Its arrays cost 48 bytes
    per user-trial, about 5 MB at the defaults (500 users, 200 trials), and
    are read-only.

    ``other_candidates[cls]`` counts, per station id, the users of the
    other two classes that have the station as their best macro or best
    small station: whatever their biases, at most that many of them are
    served there. ``association(cls, bias)`` keeps, per class and bias
    value and for the life of the geometry, which users a small cell
    serves, the class's load per station id, and each user's serving
    station load from its own class alone and with those other-class
    candidates added. Every count of users at a station is stored as
    ``load_dtype``, int16 unless a trial has more than 32767 users (then
    int32); no count or sum of them exceeds ``user_count``. So an
    association costs 5 bytes per user of the class plus 2 per
    station-trial; a grid value used by all three classes costs about
    0.7 MB at the defaults, the 11-value grid about 7.7 MB.

    Trials are sampled and reduced on one thread per usable CPU, each trial
    in blocks of about ``BLOCK_LINKS`` links whose fading is drawn per
    block. Each worker draws, computes and fades every block in three
    float64 buffers of its own, reused from block to block and trial to
    trial, so the build holds workers x three blocks of link data, whatever
    the user count. Each trial is a pure function of
    ``(seed, trial)`` and writes its users to slots fixed by their class,
    trial and index, so the arrays do not depend on the number of threads
    or the order trials finish in. A trial whose squared distances or
    instantaneous powers overflow a float raises EstimationError instead of
    carrying infinities into the rates.
    """

    def __init__(self, config: NetworkConfig) -> None:
        self.key = _geometry_key(config)
        counts = config.class_counts()
        for cls, count in zip(UserClass, counts):
            if count == 0:
                raise EstimationError(
                    f"class {cls.label} has zero users in every trial; "
                    "increase user_count or its density_fraction"
                )
        self.trials = trials = config.trials
        self.load_dtype = _load_dtype(config.user_count)
        # each class is one contiguous slice, its users in trial order: the
        # r-th user of class c in trial t is at class_slices[c].start +
        # t * counts[c] + r, so trial t's users go to firsts + t * strides
        ends = np.cumsum(counts * trials)
        starts = ends - counts * trials
        self.class_slices = [slice(int(a), int(b)) for a, b in zip(starts, ends)]
        firsts = np.arange(config.user_count)
        firsts += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        strides = np.repeat(counts, counts)
        size = config.user_count * trials
        arrays = {
            "pw_macro": np.empty(size),
            # no small tier: zero power is never selected by the bias compare
            "pw_small": np.zeros(size),
            # int32 ids halve the part memo; the step turns the per-user
            # choice of serving id into arithmetic instead of a much slower
            # np.where
            "gid_macro": np.empty(size, dtype=np.int32),
            "gid_step": np.zeros(size, dtype=np.int32),
            "sig_macro": np.empty(size),
            "sig_small": np.zeros(size),
            "total_inst": np.empty(size),
        }
        vars(self).update(arrays)

        # each worker's block buffers, grown when a trial has more stations
        # than one buffer's links
        local = threading.local()

        def reduce_trial(trial: int) -> int:
            deployment = sample_deployment(config, trial)
            links = max(BLOCK_LINKS, deployment.n_stations)
            buffers = getattr(local, "buffers", None)
            if buffers is None or buffers[0].size < links:
                buffers = local.buffers = [np.empty(links) for _ in range(3)]
            # numpy's error state is per thread, so each worker sets its own
            try:
                with np.errstate(over="raise"):
                    self._reduce(config, deployment, firsts + trial * strides, buffers)
            except FloatingPointError:
                raise EstimationError(
                    "link distances or received powers overflow a float: "
                    "area_side, macro_power or reference_loss is too large"
                ) from None
            return deployment.n_stations

        # imported here, not at module level: the import takes about 8 ms,
        # which commands that build no geometry (analyze) need not pay
        from concurrent.futures import ThreadPoolExecutor

        # numpy's ufuncs and fading draws release the GIL; map yields in
        # trial order and cancels the trials not yet started if one raises
        with ThreadPoolExecutor(_worker_count(trials)) as pool:
            n_stations = list(pool.map(reduce_trial, range(trials)))

        # each trial's station ids follow those of the trials before it
        offsets = np.cumsum([0, *n_stations[:-1]])
        for users, count in zip(self.class_slices, counts):
            ids = self.gid_macro[users].reshape(trials, count)
            ids += offsets[:, None]
        self.n_station_ids = sum(n_stations)
        for array in arrays.values():
            array.flags.writeable = False
        # a user is served by its best macro or its best small station
        # whatever its bias, so the users of the other classes that have a
        # station among those two bound the load they can put on it
        candidates = np.empty((3, self.n_station_ids), dtype=self.load_dtype)
        has_small = self.gid_step != 0
        for cls, users in enumerate(self.class_slices):
            macro = self.gid_macro[users]
            small = (macro + self.gid_step[users])[has_small[users]]
            candidates[cls] = np.bincount(macro, minlength=self.n_station_ids)
            candidates[cls] += np.bincount(small, minlength=self.n_station_ids)
        total = candidates.sum(axis=0, dtype=self.load_dtype)
        self.other_candidates = total - candidates
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
            loads = np.bincount(gid, minlength=self.n_station_ids)
            loads = loads.astype(self.load_dtype)
            own = loads.take(gid)
            full = own + self.other_candidates[cls].take(gid)
            found = Association(on_small, loads, own, full)
            for array in found:
                array.flags.writeable = False
            self._associations[key] = found
        return found

    def _reduce(
        self,
        config: NetworkConfig,
        deployment: Deployment,
        slots: np.ndarray,
        buffers: Sequence[np.ndarray],
    ) -> None:
        """Write one trial's per-user best-of-tier link quantities.

        User u of the deployment goes to position ``slots[u]`` of each
        array, with its trial-local station ids in ``gid_macro``. Users are
        reduced in row blocks of about ``BLOCK_LINKS`` links (at least one
        user), each with its rows of the deployment's fading. A block's
        powers, y offsets and fading go to the leading links of the three
        float64 ``buffers``, each of at least one block's links.
        """
        n_macro = deployment.n_macro
        n_stations = deployment.n_stations
        has_small = deployment.n_small > 0
        step = max(1, BLOCK_LINKS // n_stations)
        power_rows, offset_rows, fading_rows = (
            buffer[: step * n_stations].reshape(step, n_stations) for buffer in buffers
        )
        starts = range(0, deployment.n_users, step)
        fading_blocks = deployment.fading_blocks(step, out=fading_rows)
        for start, fading in zip(starts, fading_blocks):
            users = slots[start : start + step]
            block = replace(
                deployment, user_positions=deployment.user_positions[start : start + step]
            )
            count = block.n_users
            # looked up per block, as a module global, so a patch reaches it
            mean_power = mean_power_matrix(
                block, config, out=power_rows[:count], scratch=offset_rows[:count]
            )
            rows = np.arange(count)
            best_macro = np.argmax(mean_power[:, :n_macro], axis=1)
            self.pw_macro[users] = mean_power[rows, best_macro]
            self.gid_macro[users] = best_macro
            if has_small:
                best_small = np.argmax(mean_power[:, n_macro:], axis=1) + n_macro
                self.pw_small[users] = mean_power[rows, best_small]
                self.gid_step[users] = best_small - best_macro
            # the instantaneous powers overwrite the mean powers, so the
            # block's links stay in one buffer while they are in cache
            inst_power = np.multiply(mean_power, fading, out=mean_power)
            self.sig_macro[users] = inst_power[rows, best_macro]
            if has_small:
                self.sig_small[users] = inst_power[rows, best_small]
            self.total_inst[users] = inst_power.sum(axis=1)


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
    factor += config.noise
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

    Returns caps of ``_load_dtype(max_load)`` in 0..max_load such that,
    for every integer L in 1..max_load, ``L <= cap`` exactly when
    ``scaled / L >= requirement`` holds in float arithmetic. IEEE division
    is monotone in the divisor, so for a non-negative or NaN ``scaled``
    and ``requirement >= 0`` the loads that pass are a prefix of
    1..max_load. The floor of ``scaled / requirement`` lands within a step
    or two of its end; each cap then steps to it with that same float
    test. (A negative subnormal ``scaled`` with a zero requirement passes
    once ``scaled / L`` rounds to -0.0, which no cap can express; rate
    factors are never negative.)
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
    return cap.astype(_load_dtype(max_load))


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
    bias value) association; the estimator reduces it, once per binding, to
    a part. At binding, each user's rate factor and requirement give an
    exact integer cap, the largest load of its station at which it is still
    covered; the estimator keeps only these caps, in the geometry's
    ``load_dtype``: 4 bytes per user-trial at int16. Users whose own class
    alone already loads the station past the cap (the association's ``own``)
    are never covered; users whose cap also holds when every other-class
    user that could be served there is (its ``full``) are always covered.
    The association gathers both loads once, so a part is two integer
    compares per user against its caps. A part keeps the count of the
    always-covered users and the station ids and caps of the rest, the
    undecided users, so a bias triple costs the sum of three load vectors
    and one gather and integer compare per undecided user. Grid searches
    over n values per class build 3n parts instead of n^3 associations.
    Every request is computed; identical inputs give identical reports
    regardless of evaluation order.
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
        max_load = config.user_count  # no station serves more than its trial's users
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
        # evaluate's station loads; the three classes' loads sum to at most
        # user_count, so they fit the load dtype
        self._loads = np.empty(geo.n_station_ids, dtype=geo.load_dtype)

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

    def coverage_bounds(self, values: Sequence[float]) -> np.ndarray:
        """Each class's highest coverage under each bias value, a (3, n) array.

        Row k, column i bounds class k's coverage when its bias is
        ``values[i]``, whatever the other classes' biases: its always-covered
        users plus its undecided users, over its users. ``evaluate`` counts
        at most those users and divides by the same count, so no per-class
        coverage it reports exceeds the bound of its value.
        """
        bounds = np.empty((3, len(values)))
        for cls, users in enumerate(self.geometry.class_slices):
            for i, value in enumerate(values):
                _, always, gid, _ = self._part(cls, value)
                bounds[cls, i] = (always + gid.size) / (users.stop - users.start)
        return bounds

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
