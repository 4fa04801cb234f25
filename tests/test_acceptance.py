"""Black-box acceptance checks over the assembled package.

One test per numbered criterion.  Each records a single
``criterion NN PASS|FAIL`` line with the measured quantities, and the
collected lines are printed after the module finishes regardless of
output capture.  Failures are left visible on purpose: a red line here
means the implementation genuinely does not reach the stated band, not
that the test is misconfigured.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from auvgeom.deployment import (
    NoiseModel,
    OptimizerConfig,
    k_objective,
    optimize_k,
    usc_positions,
    usc_trace_crlb_closed_form,
)
from auvgeom import harness
from auvgeom.errors import AuvgeomError
from auvgeom.estimation import DEPTH_NOISE_VAR
from auvgeom.fisher import _time_and_rows, _variance_at, diagonal_lower_bound, fim
from auvgeom.geometry import Position, SoundSpeedProfile
from auvgeom.harness import (
    DEFAULT_SSP,
    RmUsc,
    Scenario,
    Usc,
    fig4a_spec,
    fig5_spec,
    fig6_spec,
    run_scenario,
    sweep,
)
from adapters import kernel_pair
from oracles import chain_row, snell_travel_time_oracle

SSP = SoundSpeedProfile()
DD = NoiseModel.distance_dependent()
DEPTH = 50.0
REPORT: list[str] = []


def check(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    REPORT.append(line)
    assert ok, line


def flag(num, detail):
    REPORT.append(f"criterion {num:02d} FLAG {detail}")


@pytest.fixture(scope="module", autouse=True)
def report_summary(request):
    yield
    if not REPORT:
        return
    text = "\n" + "\n".join(REPORT)
    cap = request.config.pluginmanager.getplugin("capturemanager")
    if cap is None:
        print(text, flush=True)
    else:
        with cap.global_and_fixture_disabled():
            print(text, flush=True)


def test_c01_optimal_scale_band_per_count():
    t0 = time.perf_counter()
    stars = {}
    for n in (5, 6, 7, 8):
        result = optimize_k(DEPTH, n, SSP, DD)
        assert result.converged
        stars[n] = result.k_star
    elapsed = time.perf_counter() - t0
    ok = all(0.83 <= k <= 0.86 for k in stars.values()) and elapsed < 5.0
    detail = ", ".join(f"n={n}: k*={k:.4f}" for n, k in stars.items())
    check(1, ok, f"{detail}, {elapsed:.2f}s")


def test_c02_objective_strictly_improves_with_count():
    ks = [round(0.5 + 0.05 * i, 2) for i in range(21)]
    worst = math.inf
    for k in ks:
        values = [k_objective(k, DEPTH, n, SSP, DD) for n in range(4, 9)]
        gaps = [a - b for a, b in zip(values, values[1:])]
        worst = min(worst, min(gaps))
        assert all(g > 0.0 for g in gaps), f"not decreasing at k={k}: {values}"
    check(2, worst > 0.0, f"min objective drop per added anchor {worst:.3e} m^2 over k grid")


def test_c03_circle_layouts_decouple_the_axes():
    rng = np.random.default_rng(2024)
    worst_off = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 17))
        k = float(rng.uniform(0.3, 2.0))
        z = float(rng.uniform(10.0, 500.0))
        auv = Position(float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)), z)
        result = fim(auv, usc_positions(auv, n, k), SSP, DD)
        worst_off = max(worst_off, result.offdiag_residual)
        gap = abs(result.trace_crlb - diagonal_lower_bound(result)) / result.trace_crlb
        worst_gap = max(worst_gap, gap)
    ok = worst_off < 1e-9 and worst_gap < 1e-8
    check(3, ok, f"max offdiag residual {worst_off:.2e}, max trace gap {worst_gap:.2e}")


def test_c04_closed_form_matches_matrix_trace():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 17))
        k = float(rng.uniform(0.3, 2.0))
        z = float(rng.uniform(10.0, 500.0))
        sigma = float(10.0 ** rng.uniform(-4.0, -2.0))
        auv = Position(0.0, 0.0, z)
        noise = NoiseModel.constant_variance(sigma)
        generic = fim(auv, usc_positions(auv, n, k), SSP, noise).trace_crlb
        closed = usc_trace_crlb_closed_form(k, z, n, SSP, sigma**2)
        worst = max(worst, abs(closed - generic) / generic)
    check(4, worst < 1e-8, f"max relative trace mismatch {worst:.2e} over 500 layouts")


def test_c05_circle_beats_cube_and_random_layouts():
    t0 = time.perf_counter()
    counts = (4.0, 5.0, 6.0, 7.0, 8.0)
    ordered_seeds = 0
    reductions = []
    for seed in range(10):
        table = sweep(fig4a_spec(master_seed=seed, trials=2000), workers=4)
        by = {(r.scheme, r.axis_value): r.rmse_m for r in table.rows}
        ordered = all(
            by[("usc", n)] < by[("cube", n)] and by[("usc", n)] < by[("random", n)]
            for n in counts
        )
        ordered_seeds += ordered
        reductions += [100.0 * (1.0 - by[("usc", n)] / by[("cube", n)]) for n in counts]
    elapsed = time.perf_counter() - t0
    lo, hi = min(reductions), max(reductions)
    if not (30.0 <= lo and hi <= 70.0):
        flag(5, f"reduction vs cube outside [30, 70]%: {lo:.1f}..{hi:.1f}%")
    ok = ordered_seeds >= 9 and elapsed < 120.0
    check(
        5,
        ok,
        f"circle lowest at every count on {ordered_seeds}/10 seeds, "
        f"reduction vs cube {lo:.1f}..{hi:.1f}%, {elapsed:.0f}s",
    )


def test_c06_noise_sweep_level_ratio_and_linearity():
    table = sweep(fig5_spec(master_seed=0, trials=2000), workers=4)
    by = {(r.scheme, r.axis_value): r.rmse_m for r in table.rows}
    sigmas = np.array([0.1, 0.5, 1.0, 5.0, 10.0])
    usc = np.array([by[("usc", s)] for s in sigmas])
    at10 = by[("usc", 10.0)]
    ratio_cube = at10 / by[("cube", 10.0)]
    ratio_rand = at10 / by[("random", 10.0)]
    slope, intercept = np.polyfit(sigmas, usc, 1)
    fitted = slope * sigmas + intercept
    r2 = 1.0 - np.sum((usc - fitted) ** 2) / np.sum((usc - usc.mean()) ** 2)
    ok = (
        5.0 <= at10 <= 11.0
        and ratio_cube <= 0.55
        and ratio_rand <= 0.55
        and r2 > 0.99
    )
    check(
        6,
        ok,
        f"rmse@10ms {at10:.2f} m (band [5, 11]), ratio vs cube {ratio_cube:.3f}, "
        f"vs random {ratio_rand:.3f} (cap 0.55), linear fit R^2 {r2:.5f}",
    )


def test_c07_tracking_layout_bounds_movement_error():
    table = sweep(fig6_spec(master_seed=0, trials=2000), workers=4)
    by = {(r.scheme, r.axis_value): r.rmse_m for r in table.rows}
    deltas = sorted({r.axis_value for r in table.rows})
    rm = [by[("rm-usc", d)] for d in deltas]
    rs = [by[("rs-usc", d)] for d in deltas]
    tracked_never_worse = all(s <= m for s, m in zip(rs, rm))
    frozen_monotone = all(a <= b for a, b in zip(rm, rm[1:]))
    frozen_small = max(rm) < 9.0
    ok = tracked_never_worse and frozen_monotone and frozen_small
    check(
        7,
        ok,
        f"tracked<=frozen at all {len(deltas)} radii: {tracked_never_worse}, "
        f"frozen nondecreasing: {frozen_monotone}, max frozen rmse {max(rm):.2f} m (cap 9)",
    )


def random_pair(rng):
    q = Position(
        float(rng.uniform(-300, 300)), float(rng.uniform(-300, 300)), float(rng.uniform(20, 400))
    )
    while True:
        p = Position(
            float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)), float(rng.uniform(0, 300))
        )
        if math.hypot(q.x - p.x, q.y - p.y) > 15.0:
            return q, p


def fd_gradient(q, p, h=1e-3):
    out = []
    for axis in range(3):
        step = [0.0, 0.0, 0.0]
        step[axis] = h
        hi = Position(q.x + step[0], q.y + step[1], q.z + step[2])
        lo = Position(q.x - step[0], q.y - step[1], q.z - step[2])
        out.append((kernel_pair(hi, p, SSP)[0] - kernel_pair(lo, p, SSP)[0]) / (2 * h))
    return np.array(out)


def test_c08_sensitivity_rows_match_differences_and_chain_route():
    rng = np.random.default_rng(42)
    worst_fd = 0.0
    worst_chain = 0.0
    for _ in range(1000):
        q, p = random_pair(rng)
        _, closed = kernel_pair(q, p, SSP)
        fd = fd_gradient(q, p)
        chain = np.array(chain_row(q, p, SSP))
        scale = np.linalg.norm(closed)
        worst_fd = max(worst_fd, np.linalg.norm(closed - fd) / scale)
        worst_chain = max(worst_chain, np.linalg.norm(closed - chain) / scale)
    ok = worst_fd < 1e-5 and worst_chain < 1e-12
    check(
        8,
        ok,
        f"max relative gap vs differences {worst_fd:.2e}, vs chain assembly {worst_chain:.2e}",
    )


def integrable_pair(rng):
    # The integration oracle covers turning-free rays only, so keep the
    # endpoints depth-separated and the horizontal offset moderate.
    q = Position(
        float(rng.uniform(-300, 300)), float(rng.uniform(-300, 300)), float(rng.uniform(50, 400))
    )
    while True:
        dx, dy = rng.uniform(-150, 150, 2)
        if math.hypot(dx, dy) > 15.0:
            return q, Position(q.x + dx, q.y + dy, float(rng.uniform(0, 30)))


def test_c09_travel_time_against_integration_and_uniform_limit():
    rng = np.random.default_rng(9)
    worst_oracle = 0.0
    worst_uniform = 0.0
    near_uniform = SoundSpeedProfile(surface_speed_b=1480.0, steepness_a=1e-6)
    for _ in range(100):
        q, p = integrable_pair(rng)
        t, _ = kernel_pair(q, p, SSP)
        oracle = snell_travel_time_oracle(q, p, SSP)
        worst_oracle = max(worst_oracle, abs(t - oracle) / oracle)
        straight = math.dist(
            (q.x, q.y, q.z), (p.x, p.y, p.z)
        ) / near_uniform.surface_speed_b
        t_flat, _ = kernel_pair(q, p, near_uniform)
        worst_uniform = max(worst_uniform, abs(t_flat - straight) / straight)
    ok = worst_oracle < 1e-6 and worst_uniform < 1e-4
    check(
        9,
        ok,
        f"max gap vs integrated time {worst_oracle:.2e}, vs straight-ray limit {worst_uniform:.2e}",
    )


def test_c10_circle_direction_sums_cancel():
    worst = 0.0
    auv = Position(0.0, 0.0, DEPTH)
    for n in range(4, 65):
        anchors = usc_positions(auv, n, 1.0)
        cos = np.array([p.x for p in anchors])
        sin = np.array([p.y for p in anchors])
        radii = np.hypot(cos, sin)
        cos, sin = cos / radii, sin / radii
        worst = max(
            worst,
            abs(cos.sum()),
            abs(sin.sum()),
            abs((cos * sin).sum()),
            abs((cos**2).sum() - n / 2.0),
            abs((sin**2).sum() - n / 2.0),
        )
    check(10, worst < 1e-12, f"max direction-sum deviation {worst:.2e} over counts 4..64")


def test_c11_observed_error_sits_on_the_bound():
    scenario = Scenario(
        auv_truth=Position(50.0, 50.0, 50.0),
        deployment=Usc(scale_k=None, n=8),
        ssp=SSP,
        noise=DD,
        trials=5000,
        master_seed=0,
    )
    row = run_scenario(scenario)
    info = fim(scenario.auv_truth, usc_positions(scenario.auv_truth, 8, row.k), SSP, DD)
    # The estimator fuses the depth sensor, so the bound it can reach adds
    # the depth reading's information 1/DEPTH_NOISE_VAR to the z diagonal;
    # the timing-only trace is not a lower bound for it.
    augmented = info.fim.copy()
    augmented[2, 2] += 1.0 / DEPTH_NOISE_VAR
    bound = float(np.trace(np.linalg.inv(augmented)))
    ratio = row.rmse_m**2 / bound
    ok = 1.0 <= ratio <= 1.25
    check(
        11,
        ok,
        f"mean squared error {row.rmse_m**2:.2f} m^2 vs depth-augmented bound {bound:.2f} m^2, "
        f"ratio {ratio:.3f} (band [1.0, 1.25]); timing-only bound {info.trace_crlb:.2f} m^2, "
        f"ratio {row.rmse_m**2 / info.trace_crlb:.3f}",
    )


CENTRE = Position(50.0, 50.0, 50.0)


def centre_bound(n, k, noise):
    """The depth-augmented trace the harness reports for a circle at scale k
    with the truth at its centre."""
    layout = np.array([p.as_array() for p in usc_positions(CENTRE, n, k)])
    _, rows, slant = _time_and_rows(CENTRE.as_array()[None], layout, DEFAULT_SSP)
    return harness._augmented_trace(rows, _variance_at(noise, slant))


def circle_records(noise, grid, offsets, seeds):
    """One harness._run_mc call over every (n, k) of grid, seed and truth.

    The truth sits at the circle's centre (offset 0) or drifts the offset
    in a random direction per trial, the anchors left in place.  Cells of
    one seed draw the same deviates.  Returns the records by (n, k,
    offset), one per seed.
    """
    keys, cells = [], []
    for n, k in grid:
        for seed in seeds:
            centre = Scenario(CENTRE, Usc(scale_k=k, n=n), DEFAULT_SSP, noise, 2000, seed)
            for d in offsets:
                keys.append((n, k, d))
                cells.append(replace(centre, movement=RmUsc(d)) if d else centre)
    by: dict = {}
    for key, record in zip(keys, harness._run_mc(cells)):
        if isinstance(record, AuvgeomError):
            raise record
        by.setdefault(key, []).append(record)
    return by


def rmse_and_bias(records):
    """RMSE over the records' converged trials, and the bias: at the centre
    the norm of the mean error, off it the mean error along each trial's
    displacement (negative: toward the centre)."""
    truth = np.concatenate([np.broadcast_to(r.truth, r.q_hat.shape)[r.converged] for r in records])
    err = np.concatenate([r.q_hat[r.converged] for r in records]) - truth
    rmse = math.sqrt(np.mean(np.sum(err**2, axis=1)))
    away = truth - CENTRE.as_array()
    dist = np.linalg.norm(away, axis=1)
    if not dist.any():
        return rmse, float(np.linalg.norm(err.mean(axis=0)))
    return rmse, float(np.mean(np.sum(err * away, axis=1) / dist))


def where(offset):
    return "centre" if not offset else f"{offset:g} m off"


def test_c13_depth_aware_radius_beats_k_star():
    t0 = time.perf_counter()
    seeds = range(4)
    # fig6's scene: the optimum of the depth-augmented bound against k*
    ms1 = NoiseModel.constant_variance(1e-3)
    k_star = optimize_k(CENTRE.z, 8, DEFAULT_SSP, ms1).k_star
    ks = np.round(np.arange(500, 4001) * 1e-3, 3)
    k_aug = float(ks[np.argmin([centre_bound(8, k, ms1) for k in ks])])
    offsets = (0.0, 20.0, 40.0)
    by = circle_records(ms1, [(8, k_star), (8, k_aug)], offsets, seeds)
    per_seed = {key: [rmse_and_bias([r])[0] for r in recs] for key, recs in by.items()}
    wins = sum(a < b for a, b in zip(per_seed[(8, k_aug, 0.0)], per_seed[(8, k_star, 0.0)]))

    # fig4a's distance-noise scene: the RMSE-optimal radius, seeds pooled
    grid = []
    for n in (4, 8):
        star = optimize_k(CENTRE.z, n, DEFAULT_SSP, DD).k_star
        grid += [(n, k) for k in (0.5, 0.7, star, 1.0, 1.2, 1.4)]
    pooled = circle_records(DD, grid, (0.0, 40.0), seeds)
    best = []
    for n in (4, 8):
        for d in (0.0, 40.0):
            rmse, k = min((rmse_and_bias(pooled[(n, k, d)])[0], k) for m, k in grid if m == n)
            best.append(f"n={n} {where(d)} k={k:.4g} ({rmse:.2f} m)")
    flag(13, "distance noise, RMSE-optimal k of {0.5, 0.7, k*, 1.0, 1.2, 1.4}: " + ", ".join(best))

    def side(k, d):
        rmse = " / ".join(f"{x:.4f}" for x in per_seed[(8, k, d)])
        return f"{rmse} m (bias {rmse_and_bias(by[(8, k, d)])[1]:+.4f} m)"

    detail = "; ".join(f"{where(d)} {side(k_aug, d)} vs {side(k_star, d)}" for d in offsets)
    check(
        13,
        wins == len(seeds),
        f"1 ms, n=8: centre RMSE at k_aug={k_aug:.3f} below k*={k_star:.4f} on "
        f"{wins}/{len(seeds)} seeds; RMSE per seed at k_aug vs k*: {detail}; "
        f"{time.perf_counter() - t0:.1f}s",
    )
