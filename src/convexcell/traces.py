"""Mobility-trace analytics: velocity, mobility states, user convexity.

Processes (timestamp, location, downlink bytes) samples recorded at fixed
intervals. The reader keeps each user's samples as columns of a
:class:`UserTrace`. Consecutive samples form segments; a segment adds only
its velocity and mobility state, since its start, end and bytes are the
trace's own columns. Each segment's bytes are attributed to its state,
per-user volumes are normalized to MB/day and averaged over users. User
convexity is the ratio of the vehicular to the walking per-state volume.

Because loggers sample every user on the same fixed clock, one timestamp
text recurs across users (a 200-user, 1000-sample trace carries 1000
distinct stamps in 200,000 rows), so the reader parses each distinct text
once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .model import SECONDS_PER_DAY, UserClass

EARTH_RADIUS_M = 6_371_000.0
VEHICULAR_CUTOFF_KMH = 10.0
DEFAULT_STATIONARY_CUTOFF_KMH = 0.5  # GPS-jitter floor
BYTES_PER_MB = 1e6

TRACE_CSV_HEADER = ("user_id", "timestamp", "lat", "lon", "rx_bytes")


class TraceFormatError(ValueError):
    """Malformed trace input; the message names the offending lines or user."""


class InsufficientDataError(ValueError):
    """Not enough samples to aggregate."""


@dataclass
class UserTrace:
    """One user's samples in time order, one list per column.

    ``rx_bytes[i]`` is what was downloaded between samples ``i - 1`` and
    ``i``; ``len()`` is the sample count.
    """

    timestamps: list[datetime] = field(default_factory=list)
    latitudes: list[float] = field(default_factory=list)
    longitudes: list[float] = field(default_factory=list)
    rx_bytes: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class ConvexityReport:
    """Population-level per-state volumes and the user-convexity ratio."""

    per_state_volume: tuple[float, float, float]  # MB/day
    per_state_share: tuple[float, float, float]
    user_convexity: float | None
    total_volume: float
    user_count: int

    def to_dict(self) -> dict:
        return {
            "per_state_volume_mb_per_day": {
                cls.label: self.per_state_volume[cls] for cls in UserClass
            },
            "per_state_share": {
                cls.label: self.per_state_share[cls] for cls in UserClass
            },
            "user_convexity": self.user_convexity,
            "total_volume_mb_per_day": self.total_volume,
            "user_count": self.user_count,
        }


def check_stationary_cutoff(stationary_cutoff: float) -> None:
    """Raise ValueError unless the cutoff lies in [0, 10) km/h (NaN does not)."""
    if not 0.0 <= stationary_cutoff < VEHICULAR_CUTOFF_KMH:
        raise ValueError("stationary_cutoff must be in [0, 10) km/h")


def build_segments(
    trace: UserTrace,
    stationary_cutoff: float = DEFAULT_STATIONARY_CUTOFF_KMH,
) -> tuple[list[float], list[UserClass]]:
    """Velocity (km/h) and state of each consecutive sample pair of one user.

    Segment ``i`` runs from sample ``i`` to sample ``i + 1`` and carries
    ``trace.rx_bytes[i + 1]``. The speed assumes linear movement between
    the two recorded locations: their great-circle (haversine) distance
    over the elapsed time, with each sample's latitude cosine computed
    once for both of its segments. A segment is vehicular above 10 km/h
    (strict), stationary at or below ``stationary_cutoff``, and walking in
    between, so every speed maps to exactly one state.
    """
    check_stationary_cutoff(stationary_cutoff)
    radians, sin, asin, sqrt = math.radians, math.sin, math.asin, math.sqrt
    diameter = 2.0 * EARTH_RADIUS_M
    vehicular, walking, stationary = (
        UserClass.VEHICULAR, UserClass.WALKING, UserClass.STATIONARY
    )
    stamps, lats, lons = trace.timestamps, trace.latitudes, trace.longitudes
    cosines = [math.cos(radians(lat)) for lat in lats]
    velocities = []
    states = []
    for t0, t1, lat0, lat1, lon0, lon1, cos0, cos1 in zip(
        stamps, stamps[1:], lats, lats[1:], lons, lons[1:], cosines, cosines[1:]
    ):
        elapsed_s = (t1 - t0).total_seconds()
        if elapsed_s <= 0.0:
            raise ValueError("timestamps must be strictly increasing")
        a = (
            sin(radians(lat1 - lat0) / 2) ** 2
            + cos0 * cos1 * sin(radians(lon1 - lon0) / 2) ** 2
        )
        if a > 1.0:  # rounding can push a just above 1 for near-antipodal points
            a = 1.0
        velocity = (diameter * asin(sqrt(a)) / 1000.0) / (elapsed_s / 3600.0)
        velocities.append(velocity)
        if velocity > VEHICULAR_CUTOFF_KMH:
            states.append(vehicular)
        elif velocity <= stationary_cutoff:
            states.append(stationary)
        else:
            states.append(walking)
    return velocities, states


def aggregate_user(
    trace: UserTrace, states: Sequence[UserClass]
) -> tuple[float, float, float]:
    """Per-state traffic volumes of one user in MB/day.

    Takes the user's segment states from :func:`build_segments`. Attributes
    each segment's bytes wholly to its state and normalizes by the user's
    observed span, so concatenating identical days leaves the result
    unchanged.
    """
    if not states:
        raise InsufficientDataError(
            "at least two samples are required to aggregate a user"
        )
    state_bytes = [0.0, 0.0, 0.0]
    for state, rx in zip(states, trace.rx_bytes[1:]):
        state_bytes[state] += rx
    span_days = (trace.timestamps[-1] - trace.timestamps[0]).total_seconds()
    span_days /= SECONDS_PER_DAY
    return tuple(b / BYTES_PER_MB / span_days for b in state_bytes)


def aggregate_population(
    user_volumes: Sequence[tuple[float, float, float]],
) -> ConvexityReport:
    """Average per-state volumes over users and derive user convexity.

    user_convexity is None when the mean walking volume is zero, since the
    ratio does not exist; the volumes are reported either way. A mean, a
    total or a user convexity that overflows raises TraceFormatError, as
    JSON has no infinity.
    """
    if not user_volumes:
        raise InsufficientDataError("no per-user volumes to aggregate")
    n = len(user_volumes)
    mean = tuple(sum(v[s] for v in user_volumes) / n for s in range(3))
    total = sum(mean)
    if not all(math.isfinite(v) for v in (*mean, total)):
        raise TraceFormatError(
            "per-state volumes averaged over users, or their total, are not finite"
        )
    shares = tuple(v / total for v in mean) if total > 0.0 else (0.0, 0.0, 0.0)
    walking = mean[UserClass.WALKING]
    convexity = None if walking == 0.0 else mean[UserClass.VEHICULAR] / walking
    if convexity == math.inf:
        raise TraceFormatError(
            "user convexity overflows: the mean walking volume is too small"
        )
    return ConvexityReport(
        per_state_volume=mean,
        per_state_share=shares,
        user_convexity=convexity,
        total_volume=total,
        user_count=n,
    )


def _parse_timestamp(text: str) -> datetime:
    """ISO-8601 parser accepting a trailing Z; naive stamps read as UTC."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    stamp = datetime.fromisoformat(cleaned)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError:  # e.g. year 1 at a positive offset
        raise ValueError(f"timestamp {cleaned} is out of range in UTC") from None


def read_trace_csv(
    path: str | Path,
    strict: bool = True,
) -> tuple[dict[str, UserTrace], list[tuple[int, str]]]:
    """Load a trace CSV into one column-wise :class:`UserTrace` per user.

    Expects the header ``user_id,timestamp,lat,lon,rx_bytes`` with
    ISO-8601 UTC timestamps. Rows that fail to parse, fall outside valid
    ranges, or go backward in time for their user are rejected: strict
    mode raises TraceFormatError listing all bad line numbers, lenient
    mode skips them and returns (line_number, reason) pairs. A row is
    numbered by the line it starts on, and rows the CSV reader refuses
    (such as an oversized field) or whose user id is empty (after
    stripping spaces) or not UTF-8 are malformed rows too.
    """
    traces: dict[str, UserTrace] = {}
    bad: list[tuple[int, str]] = []
    parsed: dict[str, datetime] = {}  # stamp text -> UTC time
    # undecodable bytes become lone surrogates, so they fail their row only
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
            line_no = reader.line_num + 1  # a quoted field may span lines
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
                user_id = row[0].strip()
                stamp = parsed.get(row[1])
                if stamp is None:
                    stamp = parsed[row[1]] = _parse_timestamp(row[1])
                lat, lon, rx = float(row[2]), float(row[3]), float(row[4])
                if not -90.0 <= lat <= 90.0:
                    raise ValueError("latitude must be in [-90, 90]")
                if not -180.0 <= lon <= 180.0:
                    raise ValueError("longitude must be in [-180, 180]")
                if rx < 0.0:
                    raise ValueError("rx_bytes must be >= 0")
                if not math.isfinite(rx):
                    raise ValueError("rx_bytes is not a number")
                trace = traces.get(user_id)
                if trace is None:  # only ids that passed these checks are keys
                    if not user_id:
                        raise ValueError("user_id is empty")
                    try:
                        user_id.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ValueError(
                            f"user_id {user_id!r} is not valid UTF-8"
                        ) from None
                    trace = traces[user_id] = UserTrace()
                elif stamp <= trace.timestamps[-1]:
                    raise ValueError(f"timestamp not increasing for user {user_id}")
            except ValueError as exc:
                bad.append((line_no, str(exc)))
                continue
            trace.timestamps.append(stamp)
            trace.latitudes.append(lat)
            trace.longitudes.append(lon)
            trace.rx_bytes.append(rx)
    if bad and strict:
        lines = ", ".join(str(line) for line, _ in bad)
        first = bad[0]
        raise TraceFormatError(
            f"{len(bad)} malformed row(s) at line(s) {lines}; "
            f"first: line {first[0]}: {first[1]}"
        )
    return traces, bad


def analyze_trace(
    traces: Mapping[str, UserTrace],
    stationary_cutoff: float = DEFAULT_STATIONARY_CUTOFF_KMH,
    strict: bool = True,
) -> tuple[ConvexityReport, dict[str, tuple[list[float], list[UserClass]]]]:
    """Full pipeline: segments, per-user volumes, population report.

    Returns the report and, per user id in sorted order, the
    :func:`build_segments` velocities and states of every user that was
    aggregated. Users with fewer than two samples raise in strict mode and
    are skipped otherwise. A user whose per-state volume overflows (huge
    ``rx_bytes`` over a short span) raises TraceFormatError naming it. A
    zero walking volume yields a report with user_convexity None rather
    than an exception, so volumes remain inspectable.
    """
    check_stationary_cutoff(stationary_cutoff)
    triples = []
    segments = {}
    for user_id in sorted(traces):
        trace = traces[user_id]
        if len(trace) < 2:
            if strict:
                raise InsufficientDataError(
                    f"user {user_id} has fewer than two samples"
                )
            continue
        segments[user_id] = build_segments(trace, stationary_cutoff)
        volumes = aggregate_user(trace, segments[user_id][1])
        if not all(math.isfinite(v) for v in volumes):
            raise TraceFormatError(
                f"user {user_id} has a per-state volume that is not finite"
            )
        triples.append(volumes)
    if not triples:
        raise InsufficientDataError("no user has two or more samples")
    return aggregate_population(triples), segments
