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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

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


# links per user block of a trial's reduction: a block's offset-then-fading
# and power matrices (8 bytes per link each) then fit in L2; the per-user
# kernels take chunks of BLOCK_LINKS // 2 users
BLOCK_LINKS = 1 << 16


def _chunks(users: slice) -> Iterator[tuple[slice, slice]]:
    """A class's users in consecutive chunks of at most BLOCK_LINKS // 2.

    Yields each chunk as a slice of the geometry's per-user arrays and as
    the same users' slice of the class's own arrays, so a kernel that walks
    them holds a constant working set, whatever the class's size.
    """
    size = max(1, BLOCK_LINKS // 2)
    for start in range(users.start, users.stop, size):
        stop = min(start + size, users.stop)
        yield slice(start, stop), slice(start - users.start, stop - users.start)


def _add_counts(out: np.ndarray, ids: np.ndarray) -> None:
    """Add to ``out[i]`` the number of times ``i`` occurs in ``ids``.

    The count runs only up to the largest id: a chunk holds consecutive
    trials, so a count over every station id would be mostly zeros.
    """
    counts = np.bincount(ids)
    out[: counts.size] += counts


def _serving(macro: np.ndarray, step: np.ndarray, on_small: np.ndarray) -> np.ndarray:
    """Per user, its value at its best macro, plus the step to its best
    small station's where a small cell serves it."""
    # an integer step keeps the dtype, and the product is far faster than
    # np.where: on 89,800 users, 20 µs against 330 µs at int16 and 43 µs
    # against 370 µs at int32 (2 vCPUs, numpy 2.4)
    return macro + on_small * step


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
    """Serving stations of one class under one bias value (read-only arrays).

    3 bytes per user of the class and 2 per station id at int16.
    """

    on_small: np.ndarray  # bool per user of the class, True where a small cell serves it
    # the rest are of the geometry's load dtype, int16 up to 32767 users per trial
    loads: np.ndarray  # users of the class per station id
    own: np.ndarray  # per user: its serving station's load from its own class


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

    A station's other-class candidates for class ``cls`` are the users of
    the other two classes that have it as their best macro or best small
    station: whatever their biases, at most that many of them are served
    there. ``gaps[cls]`` gathers that count once per user of the class, as
    the count at its best macro and the step from there to the count at its
    best small station (zero without one), so ``_serving`` gives a user's gap
    under either choice of station; the per-station counts are not kept.
    ``association(cls, bias)`` keeps, per class and bias value and for the
    life of the geometry, which users a small cell serves, the class's load
    per station id, and each user's serving station load from its own
    class. Every count of users at a
    station is stored as ``load_dtype``, int16 unless a trial has more than
    32767 users (then int32); no count or sum of them exceeds
    ``user_count``. So the gaps cost 4 bytes per user-trial once, and an
    association 3 bytes per user of the class plus 2 per station-trial; a
    grid value used by all three classes costs about 0.5 MB at the
    defaults, the 11-value grid about 5.5 MB. Gaps and associations are
    computed in chunks of at most ``BLOCK_LINKS // 2`` users, so their
    working memory does not grow with the class.

    Trials are sampled and reduced on one thread per usable CPU, each trial
    in blocks of about ``BLOCK_LINKS`` links whose fading is drawn per
    block. Each worker computes and fades every block in two float64
    buffers of its own, reused from block to block and trial to trial: the
    mean powers go to one, and a block's fading is drawn into the other
    once the mean powers no longer need its offsets. So the build holds
    workers x two blocks of link data, whatever the user count. Each trial
    is a pure function of ``(seed, trial)`` and writes its users to slots
    fixed by their class, trial and index, so the arrays do not depend on
    the number of threads or the order trials finish in. A trial whose
    squared distances or instantaneous powers overflow a float raises
    EstimationError instead of carrying infinities into the rates.
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
            # int32 ids halve the part memo; the step is _serving's
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
                buffers = local.buffers = [np.empty(links) for _ in range(2)]
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

        # numpy's ufuncs and fading draws release the GIL; map yields in
        # trial order and cancels the trials not yet started if one raises
        with ThreadPoolExecutor(_worker_count(trials)) as pool:
            n_stations = list(pool.map(reduce_trial, range(trials)))

        # each trial's station ids follow those of the trials before it
        offsets = np.cumsum([0, *n_stations[:-1]])
        for users, count in zip(self.class_slices, counts):
            ids = self.gid_macro[users].reshape(trials, count)
            ids += offsets[:, None]
        self.n_station_ids = n_ids = sum(n_stations)
        for array in arrays.values():
            array.flags.writeable = False
        # a user is served by its best macro or its best small station
        # whatever its bias, so the users of the other classes that have a
        # station among those two bound the load they can put on it
        candidates = np.zeros((3, n_ids), dtype=self.load_dtype)
        for cls, users in enumerate(self.class_slices):
            for chunk, _ in _chunks(users):
                macro = self.gid_macro[chunk]
                step = self.gid_step[chunk]
                _add_counts(candidates[cls], macro)
                _add_counts(candidates[cls], (macro + step)[step != 0])
        other_candidates = candidates.sum(axis=0, dtype=self.load_dtype) - candidates
        self.gaps = []
        for other, users in zip(other_candidates, self.class_slices):
            gap_macro = np.empty(users.stop - users.start, dtype=self.load_dtype)
            gap_step = np.empty_like(gap_macro)
            for chunk, rows in _chunks(users):
                # ids are always in range, so mode="clip" changes none of
                # them and lets take write to out without a buffer
                macro = self.gid_macro[chunk]
                other.take(macro, out=gap_macro[rows], mode="clip")
                small = macro + self.gid_step[chunk]
                other.take(small, out=gap_step[rows], mode="clip")
            gap_step -= gap_macro
            for array in (gap_macro, gap_step):
                array.flags.writeable = False
            self.gaps.append((gap_macro, gap_step))
        self._associations: dict[tuple[int, float], Association] = {}

    def association(self, cls: int, bias: float) -> Association:
        """Serving stations of one class's users under one bias value.

        A user is served by its best small station when the bias times its
        power beats the best macro's, ties going to the macro. Besides that
        choice and the class's per-station loads, it keeps each user's
        station load from the class alone (``own``), as gathered by station
        id. The serving ids themselves are not kept: each chunk's are
        computed once for the loads and once more to gather ``own``. The
        result depends on neither demand nor bandwidth, so it is computed
        once and kept, read-only, for the life of the geometry: every
        estimator, scheme and bandwidth bound to this geometry shares it.
        Biasing on mean power keeps the serving map fixed across fading
        draws, as a real network configures it.
        """
        key = (cls, bias)
        found = self._associations.get(key)
        if found is None:
            users = self.class_slices[cls]
            on_small = np.empty(users.stop - users.start, dtype=bool)
            loads = np.zeros(self.n_station_ids, dtype=self.load_dtype)
            own = np.empty_like(on_small, dtype=self.load_dtype)
            macro, step = self.gid_macro, self.gid_step
            for chunk, rows in _chunks(users):
                biased = np.multiply(bias, self.pw_small[chunk])
                np.greater(biased, self.pw_macro[chunk], out=on_small[rows])
                _add_counts(loads, _serving(macro[chunk], step[chunk], on_small[rows]))
            for chunk, rows in _chunks(users):
                gid = _serving(macro[chunk], step[chunk], on_small[rows])
                loads.take(gid, out=own[rows], mode="clip")
            found = Association(on_small, loads, own)
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
        powers go to the leading links of the first of the two float64
        ``buffers``, each of at least one block's links; its y offsets go to
        the second, then each tier's columns of its powers for the argmax,
        and then its fading, drawn once the powers are done.
        """
        n_macro = deployment.n_macro
        n_stations = deployment.n_stations
        has_small = deployment.n_small > 0
        step = max(1, BLOCK_LINKS // n_stations)
        power_rows, offset_rows = (
            buffer[: step * n_stations].reshape(step, n_stations) for buffer in buffers
        )
        fading_blocks = deployment.fading_blocks(offset_rows)

        def argmax(columns: np.ndarray) -> np.ndarray:
            # numpy copies a column slice before an argmax along its rows;
            # the copy goes to the spent offsets, which the fading has not
            # yet overwritten, so a worker holds no third block
            spare = buffers[1][: columns.size].reshape(columns.shape)
            np.copyto(spare, columns)
            return np.argmax(spare, axis=1)

        for start in range(0, deployment.n_users, step):
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
            best_macro = argmax(mean_power[:, :n_macro])
            self.pw_macro[users] = mean_power[rows, best_macro]
            self.gid_macro[users] = best_macro
            if has_small:
                best_small = argmax(mean_power[:, n_macro:]) + n_macro
                self.pw_small[users] = mean_power[rows, best_small]
                self.gid_step[users] = best_small - best_macro
            # the offsets are spent, so the block's fading overwrites them,
            # and the instantaneous powers the mean powers, so the block's
            # links stay in two buffers while they are in cache
            fading = next(fading_blocks)
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
    """efficiency * log2(1 + SINR) * W per user of a chunk for one tier's signal.

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
    ``load_dtype``: 4 bytes per user-trial at int16. They are computed a
    chunk of at most ``BLOCK_LINKS // 2`` users at a time, so a binding's
    working memory does not grow with the users. A user's slack is its cap
    minus its own class's load at its station (the association's ``own``):
    below zero it is never covered, and at or above its gap to every
    other-class user that could be served there (the geometry's ``gaps``)
    it is always covered. So a part is a few integer operations per user.
    A part keeps the count of the always-covered users and the station ids
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
        self._thresholds = [p.min_coverage for p in config.profiles]
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
            macro = np.empty(users.stop - users.start, dtype=geo.load_dtype)
            step = np.empty_like(macro)
            for signal, density, caps in (
                (geo.sig_macro, config.macro_density, macro),
                (geo.sig_small, config.small_density, step),
            ):
                eff = handover_efficiency(profile.velocity, density, config)
                for chunk, rows in _chunks(users):
                    scaled = _rate_factors(geo, chunk, signal, eff, config)
                    caps[rows] = _rate_caps(scaled, requirement, max_load)
            step -= macro
            self._user_caps.append((macro, step))
        self._parts: dict[tuple[int, float], tuple] = {}
        self._bounds: dict[tuple[int, float], float] = {}

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
        # the three classes' loads sum to at most user_count, so they fit
        # the load dtype
        loads = np.add(parts[0][0], parts[1][0])
        loads += parts[2][0]
        per_class = []
        for (_, always, gid, cap), users in zip(parts, self.geometry.class_slices):
            # take gathers with int32 ids without first copying them to intp;
            # ids are always in range, so mode="clip" changes none of them
            count = always + np.count_nonzero(loads.take(gid, mode="clip") <= cap)
            per_class.append(count / (users.stop - users.start))
        return self.report(per_class)

    def report(self, per_class: Sequence[float]) -> CoverageReport:
        """The report of three per-class coverages: their average and feasibility.

        Every report, of a bias vector or of its classes' coverage bounds,
        is formed here. Raising any coverage lowers neither the average nor
        the feasibility: the average is one ``np.dot`` over three
        non-negative values, a fixed sequence of rounded products and sums,
        each non-decreasing in its inputs, and feasibility is a per-class
        ``>=``. So the report of a bias vector's bounds is an exact upper
        report of the vector, with no margin.
        """
        return CoverageReport(
            per_class_coverage=tuple(per_class),
            average_coverage=float(np.dot(self._fractions, per_class)),
            feasible=all(c >= t for c, t in zip(per_class, self._thresholds)),
            trials_used=self.geometry.trials,
        )

    def coverage_bound(self, cls: int, bias: float) -> float:
        """Class ``cls``'s highest coverage under one bias value.

        Whatever the other classes' biases: the share of its users whose
        cap at their serving station reaches their own class's load there
        (``cap >= own``), the always-covered and undecided users of the
        value's part. ``evaluate`` counts at most those users and divides
        by the same count, so no coverage of the class it reports exceeds
        the bound of its value. The count needs the association and the
        caps only, not the part, and is kept for the life of the binding.
        """
        key = (cls, bias)
        bound = self._bounds.get(key)
        if bound is None:
            on_small, _, own = self.geometry.association(cls, bias)
            covered = np.count_nonzero(_serving(*self._user_caps[cls], on_small) >= own)
            bound = self._bounds[key] = covered / own.size
        return bound

    def _part(self, cls: int, bias: float) -> tuple:
        """Station loads, always-covered count and undecided users of a class.

        Returns ``(loads, always, gid, cap)``: the class's per-station loads,
        the number of its users covered whatever the other classes' biases,
        and the serving ids and caps of the users that depend on them. Only
        their serving ids are recomputed.
        """
        key = (cls, bias)
        part = self._parts.get(key)
        if part is None:
            geo = self.geometry
            on_small, loads, own = geo.association(cls, bias)
            cap = _serving(*self._user_caps[cls], on_small)
            slack = cap - own
            gap = _serving(*geo.gaps[cls], on_small)
            # below its class's own load (a negative slack) the user is never
            # covered, at or above the full load (a slack of at least the gap
            # to every other-class candidate) always; in between it depends
            # on the other classes' biases. Slack and gap lie in
            # -user_count..user_count and 0..user_count, so as unsigned
            # integers a negative slack exceeds every gap.
            always = np.count_nonzero(slack >= gap)
            unsigned = f"u{own.itemsize}"
            undecided = np.flatnonzero(slack.view(unsigned) < gap.view(unsigned))
            users = geo.class_slices[cls]
            gid = _serving(
                geo.gid_macro[users].take(undecided),
                geo.gid_step[users].take(undecided),
                on_small.take(undecided),
            )
            part = (loads, always, gid, cap.take(undecided))
            self._parts[key] = part
        return part


def estimate_rate_coverage(config: NetworkConfig, bias: BiasVector) -> CoverageReport:
    """Monte-Carlo rate coverage of one bias vector under one config."""
    return CoverageEstimator(config, TrialGeometry(config)).evaluate(bias)
