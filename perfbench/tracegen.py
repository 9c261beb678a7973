"""Seeded synthetic mobility trace that carries its own ground truth.

Each user walks through legs of one mobility state at a time: stationary
(same coordinates), walking (2-7 km/h) or vehicular (20-90 km/h), so every
segment's speed sits far from the 0.5 and 10 km/h state cutoffs and its
class is known exactly. Rows are interleaved by time across users, as a
logger would write them. About 1% extra malformed rows are injected right
after a valid row of the same user; the lenient reader must skip exactly
those and nothing else, so every valid row counts toward the truth.
"""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

STATES = ("stationary", "walking", "vehicular")
STATE_WEIGHTS = (0.55, 0.3, 0.15)
SPEED_KMH = {"stationary": (0.0, 0.0), "walking": (2.0, 7.0), "vehicular": (20.0, 90.0)}
MAX_RX_BYTES = {"stationary": 200_000, "walking": 300_000, "vehicular": 600_000}
LEG_SAMPLES = (5, 60)
INTERVAL_S = 60
MALFORMED_SHARE = 0.01
METERS_PER_DEGREE = 111_195.0
START = datetime(2015, 3, 2, tzinfo=timezone.utc)
SECONDS_PER_DAY = 86400.0
BYTES_PER_MB = 1e6


def _stamp(seconds: int) -> str:
    return (START + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _user_rows(rng: random.Random, user_id: str, stamps: list[str]):
    """Valid rows of one user plus the state of each segment (sample i-1 -> i)."""
    samples = len(stamps)
    lat = rng.uniform(37.45, 37.65)
    lon = rng.uniform(126.85, 127.15)
    rows = [(user_id, stamps[0], repr(lat), repr(lon), str(rng.randrange(200_000)))]
    states: list[str] = []
    while len(states) < samples - 1:
        state = rng.choices(STATES, STATE_WEIGHTS)[0]
        low, high = SPEED_KMH[state]
        speed_kmh = rng.uniform(low, high)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        for _ in range(min(rng.randint(*LEG_SAMPLES), samples - 1 - len(states))):
            if state != "stationary":
                step_m = speed_kmh / 3.6 * INTERVAL_S
                lat += step_m * math.cos(heading) / METERS_PER_DEGREE
                lon += step_m * math.sin(heading) / (
                    METERS_PER_DEGREE * math.cos(math.radians(lat))
                )
            states.append(state)
            rx = rng.randrange(MAX_RX_BYTES[state])
            rows.append((user_id, stamps[len(states)], repr(lat), repr(lon), str(rx)))
    return rows, states


def _malformed(rng: random.Random, row: tuple[str, ...], later: str) -> tuple[str, ...]:
    """A broken variant of a valid row that fails exactly one of the reader's checks.

    ``later`` lies between the row and the user's next sample, so only the
    broken field, not the time order, can make the reader reject the row.
    """
    user_id, stamp, lat, lon, rx = row
    kind = rng.randrange(7)
    if kind == 0:
        return (user_id, later, lat, lon)  # missing field
    if kind == 1:
        return (user_id, "2015-13-45T99:00:00Z", lat, lon, rx)
    if kind == 2:
        return (user_id, later, "91.5", lon, rx)  # latitude out of range
    if kind == 3:
        return (user_id, later, lat, "east", rx)
    if kind == 4:
        return (user_id, later, lat, lon, "-5")
    if kind == 5:
        return (user_id, later, lat, lon, "nan")
    return row  # repeated timestamp: not increasing for this user


def generate(path: Path, seed: int, users: int = 200, samples: int = 1000) -> dict:
    """Write the trace CSV at ``path`` and return its ground truth.

    The truth holds the per-state byte totals, the analyzer's expected
    per-state volumes and user convexity, the injected malformed rows and
    their line numbers, and the state of every segment in the order the
    analyzer writes segments (users sorted, then time).
    """
    rng = random.Random(seed)
    user_ids = [f"u{index:04d}" for index in range(users)]
    stamps = [_stamp(INTERVAL_S * index) for index in range(samples)]
    halfway = [_stamp(INTERVAL_S * index + INTERVAL_S // 2) for index in range(samples)]
    per_user = {}
    state_bytes = dict.fromkeys(STATES, 0)
    user_volumes = []
    segment_states: list[str] = []
    span_days = INTERVAL_S * (samples - 1) / SECONDS_PER_DAY
    for user_id in user_ids:
        rows, states = _user_rows(rng, user_id, stamps)
        per_user[user_id] = rows
        own = dict.fromkeys(STATES, 0)
        for row, state in zip(rows[1:], states):
            own[state] += int(row[4])
        for state in STATES:
            state_bytes[state] += own[state]
        user_volumes.append([own[s] / BYTES_PER_MB / span_days for s in STATES])
        segment_states.extend(states)

    valid = [per_user[u][i] for i in range(samples) for u in user_ids]
    malformed_count = round(MALFORMED_SHARE * len(valid))
    after = set(rng.sample(range(len(valid)), malformed_count))
    malformed_lines = []
    line = 1  # header
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("user_id,timestamp,lat,lon,rx_bytes\n")
        for index, row in enumerate(valid):
            handle.write(",".join(row) + "\n")
            line += 1
            if index in after:
                later = halfway[index // users]
                handle.write(",".join(_malformed(rng, row, later)) + "\n")
                line += 1
                malformed_lines.append(line)

    mean = [sum(v[s] for v in user_volumes) / users for s in range(3)]
    return {
        "users": users,
        "valid_rows": len(valid),
        "malformed_rows": malformed_count,
        "malformed_lines": malformed_lines,
        "state_bytes": [state_bytes[s] for s in STATES],
        "per_state_volume": mean,
        "user_convexity": mean[2] / mean[1],
        "segment_states": segment_states,
    }
