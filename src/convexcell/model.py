"""Two-tier cellular network model: configuration, rate requirements, deployment
sampling, path loss.

Distances are in meters, powers in watts, densities in stations per km^2.
A deployment is one Monte-Carlo realization of station and user placement
plus per-link Rayleigh fading; it is a pure function of (seed, trial_index).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .domain import BITS_PER_MB, SECONDS_PER_DAY, UserClass

# Path-loss distance floor; avoids the singularity of d**-alpha at d=0.
MIN_PATH_DISTANCE_M = 1.0

# Thermal noise density, -174 dBm/Hz expressed in W/Hz.
THERMAL_NOISE_W_PER_HZ = 3.981071705534985e-21

# Largest Poisson mean numpy's generators accept; the next float up raises
# "lam value too large".
POISSON_MEAN_MAX = 9.223372006484771e18


class ConfigError(ValueError):
    """Raised when a configuration value is invalid; names the field."""


def _check_number(name: str, value: Any, integer: bool = False) -> None:
    """Reject non-numbers and bools, NaN and infinity, and non-integer counts."""
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {noun} (got {value!r})")
    if integer:
        return
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite (got {value!r})")


@dataclass(frozen=True)
class ClassProfile:
    """Demand and mobility parameters of one user class.

    traffic_volume is a mean daily downlink volume in MB/day (1 MB = 1e6
    bytes); velocity is the mean speed in km/h used by the handover model;
    min_coverage is the per-class rate-coverage requirement in [0, 1].
    """

    user_class: UserClass
    density_fraction: float
    traffic_volume: float
    velocity: float
    min_coverage: float

    def __post_init__(self) -> None:
        name = self.user_class.label
        for field_name in NetworkConfig._PROFILE_FIELDS:
            _check_number(f"profiles.{name}.{field_name}", getattr(self, field_name))
        if not 0.0 <= self.density_fraction <= 1.0:
            raise ConfigError(f"profiles.{name}.density_fraction must be in [0, 1]")
        if self.traffic_volume < 0.0:
            raise ConfigError(f"profiles.{name}.traffic_volume must be >= 0")
        if self.velocity < 0.0:
            raise ConfigError(f"profiles.{name}.velocity must be >= 0")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise ConfigError(f"profiles.{name}.min_coverage must be in [0, 1]")
        # Velocity must be consistent with the mobility-state definition.
        if self.user_class is UserClass.STATIONARY and self.velocity != 0.0:
            raise ConfigError("profiles.stationary.velocity must be 0")
        if self.user_class is UserClass.WALKING and self.velocity > 10.0:
            raise ConfigError("profiles.walking.velocity must be <= 10 km/h")
        if self.user_class is UserClass.VEHICULAR and self.velocity <= 10.0:
            raise ConfigError("profiles.vehicular.velocity must be > 10 km/h")


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


def default_profiles() -> tuple[ClassProfile, ClassProfile, ClassProfile]:
    """Field-measurement demand mix: 145.05 MB/day total, 0.8 thresholds."""
    return (
        ClassProfile(UserClass.STATIONARY, 0.8972, 88.58, 0.0, 0.8),
        ClassProfile(UserClass.WALKING, 0.0470, 14.00, 2.58, 0.8),
        ClassProfile(UserClass.VEHICULAR, 0.0558, 42.48, 31.9, 0.8),
    )


@dataclass(frozen=True)
class NetworkConfig:
    """All physical and simulation parameters of one experiment.

    Every field has a usable default; loadable from a flat JSON document
    via :func:`NetworkConfig.from_dict`. Immutable; derive variants with
    ``dataclasses.replace`` or the ``with_*`` helpers.
    """

    # Defaults describe the calibrated reference deployment: a dense layer of
    # low-power picos under a two-per-km^2 macro grid, urban-ish path loss,
    # and a handover cost heavy enough that vehicular users get no useful
    # throughput from small cells. See README for how these were chosen.
    area_side: float = 2000.0           # m, square simulation window
    macro_density: float = 2.0          # stations / km^2
    small_density: float = 40.0         # stations / km^2
    macro_power: float = 40.0           # W (46 dBm)
    small_power: float = 0.0092         # W (~9.6 dBm pico)
    path_loss_exponent: float = 3.1
    reference_loss: float = 1.0         # dimensionless gain at 1 m
    noise_power: float = THERMAL_NOISE_W_PER_HZ  # W/Hz
    bandwidth: float = 10e6             # Hz
    user_count: int = 500
    profiles: tuple[ClassProfile, ClassProfile, ClassProfile] = field(
        default_factory=default_profiles
    )
    handover_delay: float = 14.3        # s lost per crossing (interruption
                                        # plus signaling and ramp-up)
    # Poisson-Voronoi crossings per second = coefficient * v * sqrt(density):
    # Lin, Ganti, Fleming, Andrews, "Towards Understanding the Fundamentals
    # of Mobility in Cellular Networks", IEEE Trans. Wireless Commun. 2013
    crossing_coefficient: float = 4.0 / math.pi
    demand_peak_factor: float = 5.4     # mean daily volume -> busy-period rate
    trials: int = 200
    seed: int = 42

    def __post_init__(self) -> None:
        for item in fields(self):
            if item.name != "profiles":
                _check_number(
                    item.name,
                    getattr(self, item.name),
                    integer=item.name in self._INTEGER_FIELDS,
                )
        if self.area_side <= 0.0:
            raise ConfigError("area_side must be > 0")
        if self.macro_density <= 0.0:
            raise ConfigError("macro_density must be > 0")
        if self.small_density < 0.0:
            raise ConfigError("small_density must be >= 0")
        if self.macro_power <= 0.0 or self.small_power <= 0.0:
            raise ConfigError("macro_power and small_power must be > 0")
        if self.macro_power <= self.small_power:
            raise ConfigError("macro_power must exceed small_power (two-tier assumption)")
        if self.path_loss_exponent <= 2.0:
            raise ConfigError("path_loss_exponent must be > 2")
        if self.reference_loss <= 0.0:
            raise ConfigError("reference_loss must be > 0")
        if self.noise_power < 0.0:
            raise ConfigError("noise_power must be >= 0")
        if self.bandwidth <= 0.0:
            raise ConfigError("bandwidth must be > 0")
        if self.handover_delay < 0.0:
            raise ConfigError("handover_delay must be >= 0")
        if self.crossing_coefficient < 0.0:
            raise ConfigError("crossing_coefficient must be >= 0")
        if self.demand_peak_factor < 1.0:
            raise ConfigError("demand_peak_factor must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if len(self.profiles) != 3:
            raise ConfigError("profiles must contain exactly three entries")
        for cls, profile in zip(UserClass, self.profiles):
            if profile.user_class is not cls:
                raise ConfigError(
                    "profiles must be ordered stationary, walking, vehicular"
                )
        total = sum(p.density_fraction for p in self.profiles)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"profiles density_fraction must sum to 1 (got {total!r})"
            )
        # each quantity the simulator derives, by the code it runs, with its
        # bounds; one row per monotone quantity, at its largest value. A user
        # whose far powers underflow to 0 is served by each tier's first station
        denser = max(("macro_density", "small_density"), key=lambda n: getattr(self, n))
        weaker = "small_power" if self.small_density > 0.0 else "macro_power"
        busiest = max(self.profiles, key=lambda p: p.traffic_volume)
        fastest = max(self.profiles, key=lambda p: p.velocity)
        volume = f"profiles.{busiest.user_class.label}.traffic_volume"
        velocity = f"profiles.{fastest.user_class.label}.velocity"
        given = {**vars(self), volume: busiest.traffic_volume, velocity: fastest.velocity}
        for names, quantity, value, least, most in (
            (("user_count",), "the user count, a range length and array dimension,",
             lambda: self.user_count, 1, sys.maxsize),
            (("trials",), "the trial count, a range length and array dimension,",
             lambda: self.trials, 1, sys.maxsize),
            ((denser, "area_side"), "the station count's Poisson mean",
             lambda: max(self.station_means()), 0.0, POISSON_MEAN_MAX),
            (("macro_power", "reference_loss"), "the mean power at 1 m",
             lambda: self.mean_power(self.macro_power, 1.0), 0.0, math.inf),
            ((weaker, "reference_loss", "path_loss_exponent", "area_side"),
             "the mean power across the window's diagonal",
             lambda: self.mean_power(given[weaker], self.area_side * math.sqrt(2.0)),
             sys.float_info.min, math.inf),
            (("noise_power", "bandwidth"), "the noise term of every SINR",
             lambda: self.noise, 0.0, math.inf),
            ((volume, "demand_peak_factor"), "the rate requirement",
             lambda: rate_requirement(busiest.traffic_volume, self.demand_peak_factor),
             0.0, math.inf),
            (("crossing_coefficient", velocity, denser), "the handover crossing rate",
             lambda: self.crossing_rate(fastest.velocity, given[denser]), 0.0, math.inf),
        ):
            try:
                got = value()
                valid = math.isfinite(got) and least <= got <= most
            except OverflowError:
                got, valid = "too large for a float", False
            if not valid:
                fields_given = ", ".join(f"{name} {given[name]!r}" for name in names)
                raise ConfigError(f"{quantity} is {got}; it must be finite and in "
                                  f"[{least!r}, {most!r}] (got {fields_given})")

    # -- derived quantities -------------------------------------------------

    @property
    def area_km2(self) -> float:
        return (self.area_side / 1000.0) ** 2

    def station_means(self) -> tuple[float, float]:
        """Poisson means of a trial's macro and small station counts."""
        return self.macro_density * self.area_km2, self.small_density * self.area_km2

    def mean_power(self, power: float, distance: float) -> float:
        """One link's mean power in the numpy operations of mean_power_matrix
        (numpy's power can differ from Python's ``**`` in the last bit)."""
        loss = np.array([max(distance, MIN_PATH_DISTANCE_M)], dtype=float)
        loss **= -self.path_loss_exponent
        return float(loss[0] * (float(power) * self.reference_loss))

    @property
    def noise(self) -> float:
        return self.noise_power * self.bandwidth

    def crossing_rate(self, velocity_kmh: float, tier_density_per_km2: float) -> float:
        """Poisson-Voronoi cell crossings per second: c * v(m/s) * sqrt(density/m^2)."""
        v_ms, density_m2 = velocity_kmh / 3.6, tier_density_per_km2 * 1e-6
        return self.crossing_coefficient * v_ms * math.sqrt(density_m2)

    def density_fractions(self) -> np.ndarray:
        return np.array([p.density_fraction for p in self.profiles])

    def class_counts(self) -> np.ndarray:
        """Per-class user counts, largest-remainder rounded to user_count."""
        return largest_remainder_counts(
            [p.density_fraction for p in self.profiles], self.user_count
        )

    def with_volumes(self, volumes: Sequence[float]) -> "NetworkConfig":
        """Copy of the config with per-class traffic volumes replaced."""
        if len(volumes) != 3:
            raise ConfigError("volumes must contain exactly three entries")
        profiles = tuple(
            replace(p, traffic_volume=float(v)) for p, v in zip(self.profiles, volumes)
        )
        return replace(self, profiles=profiles)

    # -- serialization ------------------------------------------------------

    _PROFILE_FIELDS = ("density_fraction", "traffic_volume", "velocity", "min_coverage")
    _INTEGER_FIELDS = ("user_count", "trials", "seed")

    def to_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["profiles"] = {
            p.user_class.label: {f: getattr(p, f) for f in self._PROFILE_FIELDS}
            for p in self.profiles
        }
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkConfig":
        """Build a config from a JSON-style mapping; omitted fields default.

        Profiles may be partially overridden per class, e.g.
        ``{"profiles": {"vehicular": {"traffic_volume": 50.0}}}``.
        Unknown keys, wrong types, NaN or infinity and non-integer counts
        raise :class:`ConfigError` naming the field.
        """
        if not isinstance(data, Mapping):
            raise ConfigError("config must be a mapping of field names to values")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")

        kwargs: dict[str, Any] = {k: data[k] for k in data if k != "profiles"}

        profile_data = data.get("profiles", {})
        if not isinstance(profile_data, Mapping):
            raise ConfigError("profiles must be a mapping keyed by class name")
        labels = {c.label: c for c in UserClass}
        unknown_profiles = set(profile_data) - set(labels)
        if unknown_profiles:
            raise ConfigError(
                f"unknown profile class(es): {', '.join(sorted(unknown_profiles))}"
            )
        profiles = []
        for base in default_profiles():
            label = base.user_class.label
            override = profile_data.get(label, {})
            if not isinstance(override, Mapping):
                raise ConfigError(f"profiles.{label} must be a mapping of fields")
            bad = set(override) - set(cls._PROFILE_FIELDS)
            if bad:
                raise ConfigError(
                    f"unknown profile field(s) for {label}: {', '.join(sorted(bad))}"
                )
            for key, value in override.items():
                _check_number(f"profiles.{label}.{key}", value)
            profiles.append(replace(base, **{k: float(v) for k, v in override.items()}))
        kwargs["profiles"] = tuple(profiles)
        return cls(**kwargs)

    def config_hash(self) -> str:
        """Stable sha256 of the resolved configuration."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Deployment:
    """One realization of station and user placement with fading gains.

    Stations carry global ids: macros are 0..n_macro-1, smalls follow.
    Row u, column s of the (n_users, n_stations) gain matrix is the
    unit-mean exponential channel power gain of the (user u, station s)
    link. The deployment never holds that matrix: ``fading_state`` is the
    state of its bit generator right after the positions were drawn, and
    :meth:`fading_blocks` draws the rows from it a block at a time.
    """

    macro_positions: np.ndarray
    small_positions: np.ndarray
    user_positions: np.ndarray
    fading_state: Mapping[str, Any]

    def fading_blocks(
        self, rows: int, out: np.ndarray | None = None
    ) -> Iterator[np.ndarray]:
        """The gain matrix as consecutive blocks of ``rows`` rows, in order.

        The last block may be shorter. Each call draws the blocks from a new
        generator set to ``fading_state``, which gives the bits of one
        whole-matrix draw, so every call yields the same gains and at most
        one block is held. Given ``out``, a C-contiguous float64 array of
        shape ``(rows, n_stations)``, each block is drawn into its leading
        rows, which the next block overwrites.
        """
        bit_generator = np.random.PCG64()
        bit_generator.state = self.fading_state
        rng = np.random.Generator(bit_generator)
        for start in range(0, self.n_users, rows):
            count = min(rows, self.n_users - start)
            if out is None:
                yield rng.standard_exponential((count, self.n_stations))
            else:
                yield rng.standard_exponential(out=out[:count])

    @property
    def n_macro(self) -> int:
        return self.macro_positions.shape[0]

    @property
    def n_small(self) -> int:
        return self.small_positions.shape[0]

    @property
    def n_stations(self) -> int:
        return self.n_macro + self.n_small

    @property
    def n_users(self) -> int:
        return self.user_positions.shape[0]

    def station_positions(self) -> np.ndarray:
        return np.vstack([self.macro_positions, self.small_positions])

    def station_powers(self, config: NetworkConfig) -> np.ndarray:
        return np.concatenate(
            [
                np.full(self.n_macro, config.macro_power),
                np.full(self.n_small, config.small_power),
            ]
        )


def largest_remainder_counts(fractions: Sequence[float], total: int) -> np.ndarray:
    """Round fractions*total to integers that sum exactly to total.

    Floors every share, then hands out the remaining units by descending
    fractional remainder (ties to the lower index). Deterministic.
    """
    raw = np.asarray(fractions, dtype=float) * total
    counts = np.floor(raw).astype(int)
    remainders = raw - counts
    missing = total - int(counts.sum())
    # argsort on (-remainder) is stable, so equal remainders keep index order
    for idx in np.argsort(-remainders, kind="stable")[:missing]:
        counts[idx] += 1
    return counts


def sample_deployment(config: NetworkConfig, trial_index: int) -> Deployment:
    """Draw one network realization, fully determined by (seed, trial_index).

    Station counts are Poisson with mean density*area (at least one macro);
    positions and users are uniform i.i.d. in the window; fading gains are
    i.i.d. unit-mean exponential per (user, station) link. The gains are not
    drawn here: the deployment keeps the generator state that follows the
    positions, and :meth:`Deployment.fading_blocks` draws them from it.
    Users carry no class: by index, the first ``config.class_counts()[0]``
    are stationary, the next walking, the rest vehicular.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be >= 0")
    rng = np.random.default_rng((config.seed, trial_index))

    macro_mean, small_mean = config.station_means()
    n_macro = max(1, int(rng.poisson(macro_mean)))
    n_small = int(rng.poisson(small_mean))
    macro_positions = rng.uniform(0.0, config.area_side, size=(n_macro, 2))
    small_positions = rng.uniform(0.0, config.area_side, size=(n_small, 2))
    user_positions = rng.uniform(0.0, config.area_side, size=(config.user_count, 2))
    return Deployment(
        macro_positions=macro_positions,
        small_positions=small_positions,
        user_positions=user_positions,
        fading_state=rng.bit_generator.state,
    )


def link_distances(
    deployment: Deployment,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(n_users, n_stations) matrix of user-to-station distances in meters.

    ``sqrt(dx*dx + dy*dy)``, computed in place in the contiguous x-offset
    matrix with SIMD ufuncs. ``np.hypot`` is a libm call per element and
    several times slower; it differs in the last bit for some links, as it
    does not round the squares and their sum. Given float64 arrays of the
    result's shape, the x offsets and result go to ``out`` and the y
    offsets to ``scratch``; either left out is allocated.
    """
    users = deployment.user_positions
    stations = deployment.station_positions()
    dx = np.subtract.outer(users[:, 0], stations[:, 0], out=out)
    dy = np.subtract.outer(users[:, 1], stations[:, 1], out=scratch)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def mean_power_matrix(
    deployment: Deployment,
    config: NetworkConfig,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Fading-averaged received power of every (user, station) link.

    station_power * reference_loss * d**(-alpha), with d floored at
    MIN_PATH_DISTANCE_M. Computed in place in the distance matrix, which
    :func:`link_distances` writes to ``out`` with ``scratch``.
    """
    scale = deployment.station_powers(config)[None, :] * config.reference_loss
    power = link_distances(deployment, out, scratch)
    np.maximum(power, MIN_PATH_DISTANCE_M, out=power)
    power **= -config.path_loss_exponent
    power *= scale
    return power
