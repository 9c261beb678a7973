"""Mobility-trace analytics: velocity, mobility states, user convexity.

Processes (timestamp, location, downlink bytes) samples recorded at fixed
intervals. Consecutive samples form segments classified by speed; each
segment's bytes are attributed to its mobility state, per-user volumes are
normalized to MB/day and averaged over users. User convexity is the ratio
of the vehicular to the walking per-state volume.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .coverage import SECONDS_PER_DAY
from .model import UserClass

EARTH_RADIUS_M = 6_371_000.0
VEHICULAR_CUTOFF_KMH = 10.0
DEFAULT_STATIONARY_CUTOFF_KMH = 0.5  # GPS-jitter floor
BYTES_PER_MB = 1e6

TRACE_CSV_HEADER = ("user_id", "timestamp", "lat", "lon", "rx_bytes")


class TraceFormatError(ValueError):
    """Malformed trace input; the message lists offending line numbers."""


class InsufficientDataError(ValueError):
    """Not enough samples to aggregate."""


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


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two coordinates in meters."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def compute_velocity(previous: TraceSample, current: TraceSample) -> float:
    """Average speed between two consecutive samples of one user, in km/h.

    Assumes linear movement between the two recorded locations.
    """
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


def classify_mobility(
    velocity_kmh: float,
    stationary_cutoff: float = DEFAULT_STATIONARY_CUTOFF_KMH,
) -> UserClass:
    """Map a speed to a mobility state.

    Vehicular above 10 km/h (strict), stationary at or below the cutoff,
    walking in between. Every finite speed maps to exactly one state.
    """
    if velocity_kmh < 0.0:
        raise ValueError("velocity must be >= 0")
    if not 0.0 <= stationary_cutoff < VEHICULAR_CUTOFF_KMH:
        raise ValueError("stationary_cutoff must be in [0, 10) km/h")
    if velocity_kmh > VEHICULAR_CUTOFF_KMH:
        return UserClass.VEHICULAR
    if velocity_kmh <= stationary_cutoff:
        return UserClass.STATIONARY
    return UserClass.WALKING


def build_segments(
    samples: Sequence[TraceSample],
    stationary_cutoff: float = DEFAULT_STATIONARY_CUTOFF_KMH,
) -> list[MobilitySegment]:
    """Segments from consecutive sample pairs of one user, in time order."""
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


def aggregate_user(segments: Sequence[MobilitySegment]) -> tuple[float, float, float]:
    """Per-state traffic volumes of one user in MB/day.

    Takes the user's segments from :func:`build_segments`. Attributes each
    segment's bytes wholly to its classified state and normalizes by the
    user's observed span, so concatenating identical days leaves the
    result unchanged.
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
    return tuple(b / BYTES_PER_MB / span_days for b in state_bytes)


def aggregate_population(
    user_volumes: Sequence[tuple[float, float, float]],
) -> ConvexityReport:
    """Average per-state volumes over users and derive user convexity.

    user_convexity is None when the mean walking volume is zero, since the
    ratio does not exist; the volumes are reported either way.
    """
    if not user_volumes:
        raise InsufficientDataError("no per-user volumes to aggregate")
    n = len(user_volumes)
    mean = tuple(sum(v[s] for v in user_volumes) / n for s in range(3))
    total = sum(mean)
    shares = tuple(v / total for v in mean) if total > 0.0 else (0.0, 0.0, 0.0)
    walking = mean[UserClass.WALKING]
    convexity = None if walking == 0.0 else mean[UserClass.VEHICULAR] / walking
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
) -> tuple[dict[str, list[TraceSample]], list[tuple[int, str]]]:
    """Load a trace CSV into per-user sample lists.

    Expects the header ``user_id,timestamp,lat,lon,rx_bytes`` with
    ISO-8601 UTC timestamps. Rows that fail to parse, fall outside valid
    ranges, or go backward in time for their user are rejected: strict
    mode raises TraceFormatError listing all bad line numbers, lenient
    mode skips them and returns (line_number, reason) pairs. A row is
    numbered by the line it starts on, and rows the CSV reader refuses
    (such as an oversized field) or whose user id is not UTF-8 are
    malformed rows too.
    """
    samples: dict[str, list[TraceSample]] = {}
    bad: list[tuple[int, str]] = []
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
                sample = TraceSample(
                    user_id=row[0].strip(),
                    timestamp=_parse_timestamp(row[1]),
                    latitude=float(row[2]),
                    longitude=float(row[3]),
                    rx_bytes=float(row[4]),
                )
                previous = samples.get(sample.user_id)
                if previous is None:  # only ids that passed this check are keys
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


def analyze_trace(
    samples_by_user: Mapping[str, Sequence[TraceSample]],
    stationary_cutoff: float = DEFAULT_STATIONARY_CUTOFF_KMH,
    strict: bool = True,
) -> tuple[ConvexityReport, list[MobilitySegment]]:
    """Full pipeline: segments, per-user volumes, population report.

    Users with fewer than two samples raise in strict mode and are skipped
    otherwise. A zero walking volume yields a report with user_convexity
    None rather than an exception, so volumes remain inspectable.
    """
    triples = []
    segments: list[MobilitySegment] = []
    for user_id in sorted(samples_by_user):
        user_samples = samples_by_user[user_id]
        if len(user_samples) < 2:
            if strict:
                raise InsufficientDataError(
                    f"user {user_id} has fewer than two samples"
                )
            continue
        user_segments = build_segments(user_samples, stationary_cutoff)
        segments.extend(user_segments)
        triples.append(aggregate_user(user_segments))
    if not triples:
        raise InsufficientDataError("no user has two or more samples")
    return aggregate_population(triples), segments
