"""Acceptance gates for the headline claims.

Each test prints one ``[criterion N] PASS/FAIL`` verdict line with the
measured numbers, then asserts. Criteria 1-3 and parts of 6 share one
module-scoped run of the full convexity sweep at reference settings.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from convexcell import (
    DEFAULT_CONVEXITY_VALUES,
    DEFAULT_GRID_DB,
    BiasGrid,
    BiasVector,
    ClassProfile,
    CoverageEstimator,
    DemandScenario,
    NetworkConfig,
    Scheme,
    TrialGeometry,
    UserClass,
    analyze_trace,
    cli,
    convexity_sweep,
    handover_efficiency,
    read_trace_csv,
    required_bandwidth,
    run_scheme,
    sample_deployment,
)
from helpers import (
    associate,
    estimator_for,
    given_geometry,
    make_deployment,
    reference_cre,
    reference_full_search,
    reference_rate_coverage,
    reference_stage1,
    reference_stage2,
)

CONVEXITIES = tuple(DEFAULT_CONVEXITY_VALUES)
HIGH_CONVEXITY = 5.0
GAP_SLACK = 0.005          # three-stage may trail CRE by at most this
GAP_FLOOR = 0.01           # and must lead by at least this from C=5 up
FULL_SEARCH_RATIO = 0.98
WALL_CLOCK_LIMIT_S = 900.0
MIN_TRIALS = 200
BANDWIDTH_TOL_HZ = 1e5     # 0.1 MHz
ARITHMETIC_TOL = 0.01 + 1e-6  # reported precision plus float slack


def verdict(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def headline():
    """Reference sweep: all schemes over the full convexity range."""
    config = NetworkConfig()
    grid = BiasGrid.from_db(DEFAULT_GRID_DB)
    scenario = DemandScenario.measured_2015()
    start = time.perf_counter()
    points = convexity_sweep(scenario, CONVEXITIES, config, grid)
    elapsed = time.perf_counter() - start
    table = {(c, scheme): report for c, scheme, _, report in points}
    biases = {(c, scheme): bias for c, scheme, bias, _ in points}
    return {
        "table": table, "biases": biases, "elapsed": elapsed, "config": config,
        "grid": grid,
    }


@pytest.fixture(scope="module")
def bandwidth_table(headline):
    """Required bandwidth of three-stage and CRE at 1x and 2x demand."""
    config = headline["config"]
    grid = headline["grid"]
    scenario = DemandScenario.measured_2015()
    geometry = TrialGeometry(config)
    top = replace(config, bandwidth=1e8)  # each bisection starts at its top
    table = {}
    for total in (145.05, 290.1):
        volumes = replace(scenario, total_volume=total).class_volumes()
        point_config = top.with_volumes(volumes)
        estimator = CoverageEstimator(point_config, geometry)
        for scheme in (Scheme.THREE_STAGE, Scheme.CRE):
            table[(total, scheme)] = required_bandwidth(
                estimator, grid, scheme, w_min=1e6, tolerance=BANDWIDTH_TOL_HZ
            )
    return table


def test_criterion_1_beats_cre_across_convexity(headline):
    table = headline["table"]
    gaps = {}
    trials_ok = True
    for c in CONVEXITIES:
        three = table[(c, Scheme.THREE_STAGE)]
        cre = table[(c, Scheme.CRE)]
        gaps[c] = three.average_coverage - cre.average_coverage
        trials_ok &= min(three.trials_used, cre.trials_used) >= MIN_TRIALS
    min_gap = min(gaps.values())
    min_high_gap = min(g for c, g in gaps.items() if c >= HIGH_CONVEXITY)
    elapsed = headline["elapsed"]
    ok = (
        min_gap >= -GAP_SLACK
        and min_high_gap >= GAP_FLOOR
        and elapsed < WALL_CLOCK_LIMIT_S
        and trials_ok
        and set(CONVEXITIES) == {1.0, 2.0, 3.04, 4.0, 5.0, 6.0, 7.0, 8.0}
    )
    verdict(
        1, ok,
        f"min gap {min_gap:+.4f} (>= {-GAP_SLACK}), "
        f"min gap at C>={HIGH_CONVEXITY:g} {min_high_gap:+.4f} (>= {GAP_FLOOR}), "
        f"sweep {elapsed:.1f}s (< {WALL_CLOCK_LIMIT_S:g}s), trials >= {MIN_TRIALS}",
    )


def test_criterion_2_tracks_full_search(headline):
    table = headline["table"]
    ratios = {
        c: (
            table[(c, Scheme.THREE_STAGE)].average_coverage
            / table[(c, Scheme.FULL_SEARCH)].average_coverage
        )
        for c in CONVEXITIES
    }
    worst = min(ratios.values())
    verdict(
        2, worst >= FULL_SEARCH_RATIO,
        f"worst three-stage/full-search ratio {worst:.4f} "
        f"(>= {FULL_SEARCH_RATIO})",
    )


def test_criterion_3_feasibility_separation(headline):
    table = headline["table"]
    only_three = [
        c for c in CONVEXITIES
        if table[(c, Scheme.THREE_STAGE)].feasible
        and not table[(c, Scheme.CRE)].feasible
    ]
    only_cre = [
        c for c in CONVEXITIES
        if table[(c, Scheme.CRE)].feasible
        and not table[(c, Scheme.THREE_STAGE)].feasible
    ]
    ok = bool(only_three) and not only_cre
    verdict(
        3, ok,
        f"three-stage-only feasible at C={only_three} "
        f"(nonempty), CRE-only feasible at C={only_cre} (must be empty)",
    )


def test_criterion_4_bandwidth_savings(bandwidth_table):
    w3_lo = bandwidth_table[(145.05, Scheme.THREE_STAGE)]
    wc_lo = bandwidth_table[(145.05, Scheme.CRE)]
    w3_hi = bandwidth_table[(290.1, Scheme.THREE_STAGE)]
    wc_hi = bandwidth_table[(290.1, Scheme.CRE)]
    gap_lo = wc_lo - w3_lo
    gap_hi = wc_hi - w3_hi
    ok = (
        w3_lo <= wc_lo + BANDWIDTH_TOL_HZ
        and w3_hi <= wc_hi + BANDWIDTH_TOL_HZ
        and gap_hi >= gap_lo - BANDWIDTH_TOL_HZ
    )
    verdict(
        4, ok,
        f"at 145.05 MB/day three-stage {w3_lo / 1e6:.2f} MHz vs CRE "
        f"{wc_lo / 1e6:.2f} MHz; at 290.1 MB/day {w3_hi / 1e6:.2f} vs "
        f"{wc_hi / 1e6:.2f} MHz; saving grows {gap_lo / 1e6:.2f} -> "
        f"{gap_hi / 1e6:.2f} MHz",
    )


EARTH_RADIUS_M = 6_371_000.0


def _day_trace(path, volumes_mb):
    """One user, one observed day with the given per-state MB volumes."""
    stationary, walking, vehicular = volumes_mb
    step = lambda m: m / EARTH_RADIUS_M * 180.0 / math.pi
    lat_walk = step(215.0)
    lat_veh = lat_walk + step(2658.3333333)
    rows = [
        "user_id,timestamp,lat,lon,rx_bytes",
        "u1,2015-06-01T00:00:00Z,0.0,0.0,0",
        f"u1,2015-06-01T00:05:00Z,0.0,0.0,{stationary * 1e6!r}",
        f"u1,2015-06-01T00:10:00Z,{lat_walk!r},0.0,{walking * 1e6!r}",
        f"u1,2015-06-01T00:15:00Z,{lat_veh!r},0.0,{vehicular * 1e6!r}",
        f"u1,2015-06-02T00:00:00Z,{lat_veh!r},0.0,0",
    ]
    path.write_text("\n".join(rows) + "\n")


def test_criterion_5_measurement_arithmetic(tmp_path):
    # (per-state MB/day) -> (total, vehicular share %, convexity)
    cases = [
        ((40.63, 2.09, 4.93), (47.66, 10.35, 2.35)),
        ((88.58, 14.00, 42.48), (145.05, 29.29, 3.04)),
    ]
    details = []
    ok = True
    for volumes, (total, veh_pct, convexity) in cases:
        trace = tmp_path / f"trace_{total}.csv"
        _day_trace(trace, volumes)
        samples, bad = read_trace_csv(trace)
        assert not bad
        report, _ = analyze_trace(samples)
        got_share = report.per_state_share[UserClass.VEHICULAR] * 100.0
        ok &= abs(report.total_volume - total) <= ARITHMETIC_TOL
        ok &= abs(got_share - veh_pct) <= ARITHMETIC_TOL
        ok &= abs(report.user_convexity - convexity) <= ARITHMETIC_TOL
        details.append(
            f"total {report.total_volume:.2f}~{total}, vehicular "
            f"{got_share:.2f}%~{veh_pct}%, convexity "
            f"{report.user_convexity:.4f}~{convexity}"
        )
    verdict(5, ok, "; ".join(details))


def _strip_manifest(path):
    payload = json.loads(path.read_text())
    payload.pop("manifest", None)
    return payload


def _cli_determinism(tmp_path):
    """Every command, run twice into fresh dirs, yields identical results."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"user_count": 40, "trials": 2, "small_density": 8.0, "seed": 7}
    ))
    trace_path = tmp_path / "trace.csv"
    _day_trace(trace_path, (88.58, 14.00, 42.48))
    commands = {
        "sweep": ["sweep", "--config", str(config_path), "--convexity", "2.0",
                  "--grid-db", "0", "6"],
        "bandwidth": ["bandwidth", "--config", str(config_path), "--volumes",
                      "60", "--grid-db", "0", "6"],
        "analyze": ["analyze", "--trace", str(trace_path)],
        "evaluate": ["evaluate", "--config", str(config_path), "--bias",
                     "0", "3", "6"],
    }
    artifacts = {
        "sweep": ("sweep.csv",),
        "bandwidth": ("bandwidth.csv",),
        "analyze": ("convexity_report.json", "segments.csv"),
        "evaluate": ("evaluate_report.json",),
    }
    for name, argv in commands.items():
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            if cli.main(argv + ["--out", str(out)]) != 0:
                return False, f"{name} exited nonzero"
            parts = []
            for artifact in artifacts[name]:
                target = out / artifact
                if artifact.endswith(".json"):
                    parts.append(json.dumps(_strip_manifest(target), sort_keys=True))
                else:
                    parts.append(target.read_text())
            blobs.append("\n".join(parts))
        if blobs[0] != blobs[1]:
            return False, f"{name} outputs differ between identical runs"
    return True, "all four commands byte-stable"


def test_criterion_6_invariants(headline, tmp_path):
    config = NetworkConfig(
        area_side=1000.0, macro_density=3.0, small_density=12.0,
        user_count=60, trials=3, seed=7,
    )
    deployment = sample_deployment(config, 0)
    bias = BiasVector(1.0, 2.0, 6.0)
    checks = []

    # Association depends only on power ratios, not the absolute scale.
    scaled = replace(config, macro_power=config.macro_power * 37.0,
                     small_power=config.small_power * 37.0)
    checks.append((
        "association scale invariance",
        np.array_equal(
            associate(deployment, bias, config),
            associate(deployment, bias, scaled),
        ),
    ))

    # A uniform bias vector ignores user classes entirely (CRE equivalence):
    # the same users all stationary are served alike.
    declassed = replace(config, profiles=tuple(
        replace(p, density_fraction=float(p.user_class is UserClass.STATIONARY))
        for p in config.profiles
    ))
    uniform = BiasVector.uniform(3.3)
    checks.append((
        "uniform bias ignores classes",
        np.array_equal(
            associate(deployment, uniform, config),
            associate(deployment, uniform, declassed),
        ),
    ))

    serving = associate(deployment, bias, config)
    loads = np.bincount(serving, minlength=deployment.n_stations)
    checks.append(("load conservation", int(loads.sum()) == deployment.n_users))

    fractions = headline["config"].density_fractions()
    identity_ok = True
    bounds_ok = True
    for report in headline["table"].values():
        per_class = np.asarray(report.per_class_coverage)
        bounds_ok &= bool(np.all(per_class >= 0.0) and np.all(per_class <= 1.0))
        identity_ok &= abs(
            report.average_coverage - float(np.dot(fractions, per_class))
        ) <= 1e-9
    checks.append(("coverage in [0,1]", bounds_ok))
    checks.append(("average is the density-weighted mean", identity_ok))

    estimator = estimator_for(config)
    widths = [5e6, 1e7, 2e7]
    averages = [
        estimator.with_bandwidth(w).evaluate(bias).average_coverage
        for w in widths
    ]
    checks.append((
        "coverage monotone in bandwidth",
        all(a <= b + 1e-12 for a, b in zip(averages, averages[1:])),
    ))

    heavier = config.with_volumes(
        tuple(2.0 * p.traffic_volume for p in config.profiles)
    )
    checks.append((
        "coverage anti-monotone in demand",
        estimator_for(heavier).evaluate(bias).average_coverage
        <= estimator.evaluate(bias).average_coverage + 1e-12,
    ))

    speeds = [0.0, 2.58, 10.0, 31.9, 80.0]
    effs = [handover_efficiency(v, 12.0, config) for v in speeds]
    checks.append((
        "handover efficiency in [0,1], non-increasing in speed",
        all(0.0 <= e <= 1.0 for e in effs)
        and all(a >= b - 1e-12 for a, b in zip(effs, effs[1:])),
    ))

    table = headline["table"]
    dominance = all(
        table[(c, Scheme.FULL_SEARCH)].average_coverage
        >= table[(c, s)].average_coverage - 1e-12
        for c in CONVEXITIES
        for s in (Scheme.THREE_STAGE, Scheme.CRE)
    )
    checks.append(("full search dominates", dominance))

    walking_biases = [
        headline["biases"][(c, Scheme.THREE_STAGE)].walking_bias
        for c in CONVEXITIES
    ]
    checks.append((
        "stage-2 walking bias non-decreasing in convexity",
        all(a <= b + 1e-12 for a, b in zip(walking_biases, walking_biases[1:])),
    ))

    cli_ok, cli_detail = _cli_determinism(tmp_path)
    checks.append((f"command determinism ({cli_detail})", cli_ok))

    failed = [name for name, ok in checks if not ok]
    verdict(
        6, not failed,
        f"{len(checks) - len(failed)}/{len(checks)} invariants hold"
        + (f"; failing: {failed}" if failed else ""),
    )


def test_criterion_7_hand_enumerated_optimum():
    # One macro flanked by two picos on a line; five users whose
    # macro-to-small power ratios (1.09, 2.37) straddle the grid points so
    # each bias step flips exactly one association.
    profiles = (
        ClassProfile(UserClass.STATIONARY, 0.6, 4400.0, 0.0, 0.8),
        ClassProfile(UserClass.WALKING, 0.2, 4500.0, 2.58, 0.8),
        ClassProfile(UserClass.VEHICULAR, 0.2, 6000.0, 31.9, 0.8),
    )
    config = NetworkConfig(
        macro_power=8.0,
        small_power=1.0,
        path_loss_exponent=3.0,
        noise_power=1e-18,
        bandwidth=1e6,
        user_count=5,
        profiles=profiles,
        handover_delay=0.0,
        demand_peak_factor=1.08,  # requirement = traffic_volume * 100 bps
        trials=1,
        seed=0,
    )
    deployment = make_deployment(
        [[1000.0, 1000.0]],
        [[950.0, 1000.0], [1050.0, 1000.0]],
        [[1002.0, 1000.0], [949.0, 1000.0], [1030.0, 1000.0],
         [967.0, 1000.0], [970.0, 1000.0]],
        np.ones((5, 3)),
    )
    estimator = CoverageEstimator(config, given_geometry(config, [deployment]))
    grid = BiasGrid((1.0, 2.0, 4.0))

    # Exhaustive enumeration, cross-checked against the loop reference.
    averages = {}
    feasibles = {}
    for triple in itertools.product(grid, repeat=3):
        report = estimator.evaluate(BiasVector(*triple))
        ref_class, ref_avg, ref_feasible = reference_rate_coverage(
            config, [deployment], BiasVector(*triple)
        )
        assert report.per_class_coverage == pytest.approx(ref_class, abs=1e-12)
        assert report.average_coverage == pytest.approx(ref_avg, abs=1e-12)
        assert report.feasible == ref_feasible
        averages[triple] = report.average_coverage
        feasibles[triple] = report.feasible

    assert len(set(averages.values())) > 1, "degenerate scenario: all ties"
    expected_feasible = {
        (4.0, 2.0, 1.0), (4.0, 2.0, 2.0), (4.0, 4.0, 1.0), (4.0, 4.0, 2.0),
    }
    assert {t for t, f in feasibles.items() if f} == expected_feasible

    full_bias, full = run_scheme(Scheme.FULL_SEARCH, estimator, grid)
    cre_bias, cre = run_scheme(Scheme.CRE, estimator, grid)
    three_bias, three = run_scheme(Scheme.THREE_STAGE, estimator, grid)

    ref_full_key, ref_full_report = reference_full_search(estimator, grid)
    ref_cre_key, ref_cre_report = reference_cre(estimator, grid)
    ref_s = reference_stage1(estimator, grid)
    ref_w, ref_v, _ = reference_stage2(estimator, grid, ref_s)

    ok = (
        (full_bias.stationary_bias, full_bias.walking_bias,
         full_bias.vehicular_bias) == ref_full_key == (4.0, 2.0, 1.0)
        and full.feasible
        and full.average_coverage == 1.0
        and cre_bias.stationary_bias == ref_cre_key == 2.0
        and not cre.feasible
        and cre.average_coverage == pytest.approx(0.8, abs=1e-12)
        and cre.per_class_coverage == (1.0, 1.0, 0.0)
        and (three_bias.stationary_bias, three_bias.walking_bias,
             three_bias.vehicular_bias) == (ref_s, ref_w, ref_v) == (4.0, 2.0, 1.0)
        and three.feasible
        and three.average_coverage == 1.0
    )
    verdict(
        7, ok,
        "27-candidate enumeration matches the estimator; full search and "
        "three-stage both pick (4, 2, 1) and are feasible; CRE is pinned "
        "to its best diagonal (2, 2, 2), infeasible with average 0.8",
    )
