"""Hand-built deployments and slow reference implementations.

The loop oracle here (``associate``, ``sinr``, ``user_rate`` and
``reference_rate_coverage``) recomputes association, loads, SINR and rate
per user over full link rows, independently of the per-user best-of-tier
reductions of TrialGeometry and the CoverageEstimator fast path. The
``reference_*`` optimizer functions rerun the selection rules with plain
loops, so tests can cross-check the package against both.
"""

import itertools
import math

import numpy as np

from convexcell import (
    MIN_PATH_DISTANCE_M,
    BiasVector,
    Deployment,
    UserClass,
    handover_efficiency,
    link_distances,
    mean_power_matrix,
    rate_requirement,
)


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
        * deployment.fading[user]
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
