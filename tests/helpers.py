"""Hand-built deployments and slow reference implementations.

The loop oracle here (``associate``, ``sinr``, ``user_rate`` and
``reference_rate_coverage``) recomputes association, loads, SINR and rate
per user over full link rows, independently of the per-user best-of-tier
reductions of TrialGeometry and the CoverageEstimator fast path. The
``reference_*`` optimizer functions rerun the selection rules with plain
loops, so tests can cross-check the package against both.

``reference_float_coverage`` is the estimator's earlier kernel: it
associates every class from the geometry's best-of-tier arrays, sums the
station loads and compares each user's rate, its rate factor divided by
the float load, with the requirement. ``reference_rate_factors`` computes
those rate factors and requirements from the geometry and the config. The
estimator's integer caps and decided users must give the same reports.

``reference_trial_geometry`` is the serial whole-trial assembly that
TrialGeometry's threaded, user-blocked build replaced, with the broadcast
distance and mean-power arithmetic it used; the geometry must match it
bit for bit. Its distances are ``sqrt(dx*dx + dy*dy)``, the package's
formula; ``hypot_link_distances`` keeps the ``np.hypot`` distances the
package used before, which differ in the last bit for some links, so
tests can check that the integer geometry does not depend on the formula.
``reference_fading`` draws a sampled deployment's whole gain matrix in
one call, as sampling once did, where the package draws it per block.

The trace oracle (``TraceSample``, ``MobilitySegment``, ``haversine_m``,
``classify_mobility``, ``compute_velocity`` and the ``reference_*`` trace
functions) is the per-sample object pipeline the package's column-wise
``UserTrace`` path replaced: one validated record per row, one distance,
speed and state per segment and per-segment aggregation, with the same
arithmetic; ``build_segments`` must match it term for term. ``OVERFLOWING_TRACES`` holds trace rows both must refuse.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from convexcell import (
    DEFAULT_STATIONARY_CUTOFF_KMH,
    EARTH_RADIUS_M,
    MIN_PATH_DISTANCE_M,
    SECONDS_PER_DAY,
    TRACE_CSV_HEADER,
    BiasVector,
    CoverageEstimator,
    CoverageReport,
    Deployment,
    InsufficientDataError,
    TraceFormatError,
    TrialGeometry,
    UserClass,
    VEHICULAR_CUTOFF_KMH,
    aggregate_population,
    handover_efficiency,
    link_distances,
    mean_power_matrix,
    rate_requirement,
)
from convexcell.traces import BYTES_PER_MB, _parse_timestamp, check_stationary_cutoff


def estimator_for(config):
    """An estimator bound to a geometry built from config itself."""
    return CoverageEstimator(config, TrialGeometry(config))


def make_deployment(macro_xy, small_xy, user_xy, classes, fading):
    """Deployment from plain lists; fading is (n_users, n_stations)."""
    return Deployment(
        macro_positions=np.asarray(macro_xy, dtype=float).reshape(-1, 2),
        small_positions=np.asarray(small_xy, dtype=float).reshape(-1, 2),
        user_positions=np.asarray(user_xy, dtype=float).reshape(-1, 2),
        user_classes=np.asarray(classes, dtype=np.int8),
        fading=np.asarray(fading, dtype=float),
    )


def associate(deployment, bias, config):
    """Serving station id per user: argmax of the class-biased mean power.

    Small-cell columns are scaled by the bias of the user's class. argmax
    keeps the first maximum, so ties go to the lowest id, a macro.
    """
    biases = np.array([bias.stationary_bias, bias.walking_bias, bias.vehicular_bias])
    effective = mean_power_matrix(deployment, config)
    effective[:, deployment.n_macro:] *= biases[deployment.user_classes][:, None]
    return np.argmax(effective, axis=1)


def sinr(user, station, deployment, config, bandwidth=None):
    """Instantaneous SINR of one user against every other station's power."""
    width = config.bandwidth if bandwidth is None else bandwidth
    distance = np.maximum(link_distances(deployment)[user], MIN_PATH_DISTANCE_M)
    inst = (
        deployment.station_powers(config)
        * config.reference_loss
        * reference_fading(deployment)[user]
        * distance ** (-config.path_loss_exponent)
    )
    signal = inst[station]
    interference = inst.sum() - signal
    return float(signal / (interference + config.noise_power * width))


def user_rate(user, serving, loads, deployment, config, bandwidth=None):
    """Handover efficiency times an equal share of the serving station's width."""
    width = config.bandwidth if bandwidth is None else bandwidth
    station = int(serving[user])
    on_small = station >= deployment.n_macro
    density = config.small_density if on_small else config.macro_density
    velocity = config.profiles[deployment.user_classes[user]].velocity
    efficiency = handover_efficiency(velocity, density, config)
    snr = sinr(user, station, deployment, config, bandwidth=width)
    return efficiency * (width / loads[station]) * math.log2(1.0 + snr)


def reference_rate_coverage(config, deployments, bias):
    """Loop-based coverage: associate, user_rate, indicator per class.

    Returns (per_class tuple, average, feasible) computed without the
    estimator's precomputed link reductions.
    """
    requirements = [
        rate_requirement(p.traffic_volume, config.demand_peak_factor)
        for p in config.profiles
    ]
    passed = [0, 0, 0]
    totals = [0, 0, 0]
    for deployment in deployments:
        serving = associate(deployment, bias, config)
        loads = np.bincount(serving, minlength=deployment.n_stations)
        for u in range(deployment.n_users):
            cls = int(deployment.user_classes[u])
            rate = user_rate(u, serving, loads, deployment, config)
            totals[cls] += 1
            if rate >= requirements[cls]:
                passed[cls] += 1
    per_class = tuple(p / t for p, t in zip(passed, totals))
    fractions = config.density_fractions()
    average = float(np.dot(fractions, per_class))
    feasible = all(
        c >= p.min_coverage for c, p in zip(per_class, config.profiles)
    )
    return per_class, average, feasible


def reference_rate_factors(geo, config):
    """Per-user rate factors at the best macro and best small station, and
    the per-class rate requirements.

    A rate factor is efficiency * log2(1 + SINR) * W, the user's rate at a
    load of one, in the estimator's operation order; the efficiency is that
    of the user's class at the tier's density.
    """
    requirements = [
        rate_requirement(p.traffic_volume, config.demand_peak_factor)
        for p in config.profiles
    ]
    width = config.bandwidth
    factors = []
    for signal, density in (
        (geo.sig_macro, config.macro_density),
        (geo.sig_small, config.small_density),
    ):
        eff = np.array(
            [handover_efficiency(p.velocity, density, config) for p in config.profiles]
        )
        # an infinite SINR times zero efficiency is NaN, and a factor may
        # overflow to +inf, as in the estimator
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sinr = signal / (geo.total_inst - signal + config.noise_power * width)
            factors.append(np.log1p(sinr) * eff[geo.cls] / math.log(2.0) * width)
    return factors[0], factors[1], requirements


def reference_float_coverage(estimator, biases):
    """Reports of the gather, divide and compare kernel, one per bias vector.

    Uses the estimator's geometry and config, and keeps each (class, bias
    value) association for the call.
    """
    geo = estimator.geometry
    config = estimator.config
    scaled_macro, scaled_small, requirements = reference_rate_factors(geo, config)
    served = {}

    def serve(cls, value):
        if (cls, value) not in served:
            users = geo.class_slices[cls]
            on_small = value * geo.pw_small[users] > geo.pw_macro[users]
            gid = geo.gid_macro[users] + on_small * geo.gid_step[users]
            scaled = np.where(on_small, scaled_small[users], scaled_macro[users])
            loads = np.bincount(gid, minlength=geo.n_station_ids)
            served[cls, value] = (gid, scaled, loads)
        return served[cls, value]

    min_coverage = np.array([p.min_coverage for p in config.profiles])
    reports = []
    for bias in biases:
        values = (bias.stationary_bias, bias.walking_bias, bias.vehicular_bias)
        parts = [serve(cls, value) for cls, value in enumerate(values)]
        loads = sum(part[2] for part in parts).astype(float)
        per_class = []
        for (gid, scaled, _), requirement in zip(parts, requirements):
            with np.errstate(divide="ignore", invalid="ignore"):
                covered = scaled / loads[gid] >= requirement
            per_class.append(np.count_nonzero(covered) / gid.size)
        reports.append(
            CoverageReport(
                per_class_coverage=tuple(per_class),
                average_coverage=float(np.dot(config.density_fractions(), per_class)),
                feasible=bool(np.all(np.asarray(per_class) >= min_coverage)),
                trials_used=geo.trials,
            )
        )
    return reports


def reference_fading(deployment):
    """The whole (n_users, n_stations) gain matrix of a deployment.

    A given matrix is returned as is; a sampled deployment's is drawn in one
    ``exponential(1.0, (n_users, n_stations))`` call from a generator set
    to its saved state.
    """
    if deployment.fading is not None:
        return deployment.fading
    bit_generator = np.random.PCG64()
    bit_generator.state = deployment.fading_state
    shape = (deployment.n_users, deployment.n_stations)
    return np.random.Generator(bit_generator).exponential(1.0, shape)


def _broadcast_delta(deployment):
    """(U, S, 2) user-minus-station offsets."""
    stations = deployment.station_positions()
    return deployment.user_positions[:, None, :] - stations[None, :, :]


def reference_link_distances(deployment):
    """User-to-station distances, sqrt(dx*dx + dy*dy) over a broadcast delta."""
    delta = _broadcast_delta(deployment)
    dx, dy = delta[..., 0], delta[..., 1]
    return np.sqrt(dx * dx + dy * dy)


def hypot_link_distances(deployment):
    """User-to-station distances by hypot over a broadcast delta."""
    delta = _broadcast_delta(deployment)
    return np.hypot(delta[..., 0], delta[..., 1])


def reference_trial_geometry(config, deployments, distances=reference_link_distances):
    """TrialGeometry's arrays, one whole trial at a time on one thread.

    Returns a name -> array mapping with the geometry's attribute names,
    plus ``n_station_ids``. ``distances`` maps a deployment to its link
    distances.
    """
    parts = {}
    station_offset = 0
    for deployment in deployments:
        powers = deployment.station_powers(config)
        floored = np.maximum(distances(deployment), MIN_PATH_DISTANCE_M)
        path_loss = floored ** (-config.path_loss_exponent)
        mean_power = powers[None, :] * config.reference_loss * path_loss
        inst_power = mean_power * reference_fading(deployment)
        rows = np.arange(deployment.n_users)
        n_macro = deployment.n_macro
        best_macro = np.argmax(mean_power[:, :n_macro], axis=1)
        if deployment.n_small > 0:
            best_small = np.argmax(mean_power[:, n_macro:], axis=1) + n_macro
            pw_small = mean_power[rows, best_small]
            sig_small = inst_power[rows, best_small]
        else:
            best_small = best_macro
            pw_small = np.zeros(deployment.n_users)
            sig_small = np.zeros(deployment.n_users)
        trial = {
            "cls": deployment.user_classes.astype(np.int8),
            "pw_macro": mean_power[rows, best_macro],
            "pw_small": pw_small,
            "gid_macro": (best_macro + station_offset).astype(np.int32),
            "gid_step": (best_small - best_macro).astype(np.int32),
            "sig_macro": inst_power[rows, best_macro],
            "sig_small": sig_small,
            "total_inst": inst_power.sum(axis=1),
        }
        for name, array in trial.items():
            parts.setdefault(name, []).append(array)
        station_offset += deployment.n_stations
    order = np.argsort(np.concatenate(parts["cls"]), kind="stable")
    arrays = {name: np.concatenate(chunks)[order] for name, chunks in parts.items()}
    return {**arrays, "n_station_ids": station_offset}


def select_best(entries, feasible_first=True):
    """Optimizer selection rule: feasible first, then average coverage.

    entries are (bias_key, report) in grid order; the grid order itself is
    the tie-break (first strictly-better wins), matching the package's
    scan direction.
    """
    best_feasible = None
    best_any = None
    for key, report in entries:
        if best_any is None or report.average_coverage > best_any[1].average_coverage:
            best_any = (key, report)
        if report.feasible and (
            best_feasible is None
            or report.average_coverage > best_feasible[1].average_coverage
        ):
            best_feasible = (key, report)
    if feasible_first and best_feasible is not None:
        return best_feasible
    return best_any


def reference_cre(estimator, grid):
    entries = [
        (b, estimator.evaluate(BiasVector.uniform(b))) for b in grid
    ]
    return select_best(entries)


def reference_full_search(estimator, grid):
    entries = [
        (triple, estimator.evaluate(BiasVector(*triple)))
        for triple in itertools.product(grid, repeat=3)
    ]
    return select_best(entries)


def reference_stage1(estimator, grid):
    best = None
    for b in grid:
        report = estimator.evaluate(BiasVector(b, 1.0, 1.0))
        cov = report.per_class_coverage[UserClass.STATIONARY]
        if best is None or cov > best[1]:
            best = (b, cov)
    return best[0]


def reference_stage3(estimator, grid, b_s, b_w):
    best = None
    for b in grid:
        report = estimator.evaluate(BiasVector(b_s, b_w, b))
        cov = report.per_class_coverage[UserClass.VEHICULAR]
        if best is None or cov > best[1]:
            best = (b, cov, report)
    return best


def reference_stage2(estimator, grid, b_s):
    """Scan-rule reference: smallest walking bias whose stage-3 completion
    meets the vehicular threshold, else the best-effort candidate."""
    threshold = estimator.config.profiles[UserClass.VEHICULAR].min_coverage
    fallback = None
    for b_w in grid:
        b_v, cov, report = reference_stage3(estimator, grid, b_s, b_w)
        if cov >= threshold:
            return b_w, b_v, report
        if fallback is None or cov > fallback[3]:
            fallback = (b_w, b_v, report, cov)
    return fallback[0], fallback[1], fallback[2]


@dataclass(frozen=True)
class TraceSample:
    """One measurement: position and bytes downloaded since the previous one."""

    user_id: str
    timestamp: datetime
    latitude: float
    longitude: float
    rx_bytes: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError("latitude must be in [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError("longitude must be in [-180, 180]")
        if self.rx_bytes < 0.0:
            raise ValueError("rx_bytes must be >= 0")
        if not math.isfinite(self.rx_bytes):
            raise ValueError("rx_bytes is not a number")


@dataclass(frozen=True)
class MobilitySegment:
    """Interval between two consecutive samples of one user."""

    user_id: str
    start: datetime
    end: datetime
    state: UserClass
    velocity: float  # km/h
    rx_bytes: float


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance between two coordinates in meters."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    # rounding can push a just above 1 for near-antipodal points
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(min(a, 1.0)))


def classify_mobility(velocity_kmh, stationary_cutoff=DEFAULT_STATIONARY_CUTOFF_KMH):
    """Map a speed to a mobility state.

    Vehicular above 10 km/h (strict), stationary at or below the cutoff,
    walking in between. Every finite speed maps to exactly one state.
    """
    if velocity_kmh < 0.0:
        raise ValueError("velocity must be >= 0")
    check_stationary_cutoff(stationary_cutoff)
    if velocity_kmh > VEHICULAR_CUTOFF_KMH:
        return UserClass.VEHICULAR
    if velocity_kmh <= stationary_cutoff:
        return UserClass.STATIONARY
    return UserClass.WALKING


def compute_velocity(previous, current):
    """Average speed between two consecutive samples of one user, in km/h."""
    if previous.user_id != current.user_id:
        raise ValueError("samples belong to different users")
    elapsed_s = (current.timestamp - previous.timestamp).total_seconds()
    if elapsed_s <= 0.0:
        raise ValueError(
            f"timestamps must be strictly increasing for user {current.user_id}"
        )
    meters = haversine_m(
        previous.latitude, previous.longitude, current.latitude, current.longitude
    )
    return (meters / 1000.0) / (elapsed_s / 3600.0)


def reference_build_segments(samples, stationary_cutoff):
    """One MobilitySegment per consecutive sample pair, in time order."""
    segments = []
    for previous, current in zip(samples, samples[1:]):
        velocity = compute_velocity(previous, current)
        segments.append(
            MobilitySegment(
                user_id=current.user_id,
                start=previous.timestamp,
                end=current.timestamp,
                state=classify_mobility(velocity, stationary_cutoff),
                velocity=velocity,
                rx_bytes=current.rx_bytes,
            )
        )
    return segments


def reference_aggregate_user(segments):
    """Per-state MB/day of one user, summed segment by segment.

    A volume that overflows is refused, naming the user.
    """
    if not segments:
        raise InsufficientDataError(
            "at least two samples are required to aggregate a user"
        )
    state_bytes = [0.0, 0.0, 0.0]
    for segment in segments:
        state_bytes[segment.state] += segment.rx_bytes
    span_days = (segments[-1].end - segments[0].start).total_seconds()
    span_days /= SECONDS_PER_DAY
    volumes = tuple(b / BYTES_PER_MB / span_days for b in state_bytes)
    if not all(math.isfinite(v) for v in volumes):
        raise TraceFormatError(
            f"user {segments[0].user_id} has a per-state volume that is not finite"
        )
    return volumes


# Trace data rows whose volumes or convexity overflow a float, with what
# the refusal must name. One user: two stationary one-minute segments carry
# 1e308 bytes each, so their sum is infinite. Two users: each one's single
# 1 ms stationary segment gives a finite 1.296e308 MB/day, but the sum
# over users that their mean divides is infinite. Convexity: 1e10
# vehicular bytes over 1e-300 walking bytes.
OVERFLOWING_TRACES = {
    "one-user": (
        [
            "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
            "u1,2015-06-01T00:01:00Z,0.0,0.0,1e308\n",
            "u1,2015-06-01T00:02:00Z,0.0,0.0,1e308\n",
            "u1,2015-06-01T00:03:00Z,0.0,0.0,0\n",
            "u1,2015-06-01T00:04:00Z,0.0,0.0,0\n",
        ],
        "user u1",
    ),
    "mean-over-users": (
        [
            "u1,2015-06-01T00:00:00.000Z,0.0,0.0,0\n",
            "u1,2015-06-01T00:00:00.001Z,0.0,0.0,1.5e306\n",
            "u2,2015-06-01T00:00:00.000Z,0.0,0.0,0\n",
            "u2,2015-06-01T00:00:00.001Z,0.0,0.0,1.5e306\n",
        ],
        "averaged over users",
    ),
    "convexity": (
        [
            "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
            "u1,2015-06-01T00:05:00Z,0.0005,0.0,1e-300\n",
            "u1,2015-06-01T00:10:00Z,0.01,0.0,1e10\n",
        ],
        "user convexity overflows",
    ),
}


def reference_read_trace_csv(path, strict=True):
    """Per-user TraceSample lists and (line, reason) pairs of skipped rows."""
    samples = {}
    bad = []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise TraceFormatError(f"unreadable header: {exc}") from None
        if header is None or tuple(h.strip() for h in header) != TRACE_CSV_HEADER:
            raise TraceFormatError(
                f"expected header {','.join(TRACE_CSV_HEADER)!r}, got {header!r}"
            )
        while True:
            line_no = reader.line_num + 1
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                bad.append((line_no, str(exc)))
                continue
            if not row:
                continue
            try:
                if len(row) != 5:
                    raise ValueError(f"expected 5 fields, got {len(row)}")
                sample = TraceSample(
                    user_id=row[0].strip(),
                    timestamp=_parse_timestamp(row[1]),
                    latitude=float(row[2]),
                    longitude=float(row[3]),
                    rx_bytes=float(row[4]),
                )
                previous = samples.get(sample.user_id)
                if previous is None:
                    if not sample.user_id:
                        raise ValueError("user_id is empty")
                    try:
                        sample.user_id.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ValueError(
                            f"user_id {sample.user_id!r} is not valid UTF-8"
                        ) from None
                elif sample.timestamp <= previous[-1].timestamp:
                    raise ValueError(
                        f"timestamp not increasing for user {sample.user_id}"
                    )
            except ValueError as exc:
                bad.append((line_no, str(exc)))
                continue
            samples.setdefault(sample.user_id, []).append(sample)
    if bad and strict:
        lines = ", ".join(str(line) for line, _ in bad)
        first = bad[0]
        raise TraceFormatError(
            f"{len(bad)} malformed row(s) at line(s) {lines}; "
            f"first: line {first[0]}: {first[1]}"
        )
    return samples, bad


def reference_analyze_trace(samples_by_user, stationary_cutoff, strict=True):
    """Report and the flat MobilitySegment list, users in sorted order."""
    triples = []
    segments = []
    for user_id in sorted(samples_by_user):
        user_samples = samples_by_user[user_id]
        if len(user_samples) < 2:
            if strict:
                raise InsufficientDataError(
                    f"user {user_id} has fewer than two samples"
                )
            continue
        user_segments = reference_build_segments(user_samples, stationary_cutoff)
        segments.extend(user_segments)
        triples.append(reference_aggregate_user(user_segments))
    if not triples:
        raise InsufficientDataError("no user has two or more samples")
    return aggregate_population(triples), segments


def reference_segment_rows(segments):
    """segments.csv rows as the per-segment writer built them."""
    return [
        (
            s.user_id,
            s.start.isoformat(),
            s.end.isoformat(),
            s.state.label,
            s.velocity,
            s.rx_bytes,
        )
        for s in segments
    ]
