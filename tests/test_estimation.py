"""Tests for the harness's measurements and the Gauss-Newton estimator."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auvgeom import estimation, harness
from auvgeom.deployment import cube_positions, default_box_for, random_layouts, usc_positions
from auvgeom.errors import TooFewAnchors
from auvgeom.estimation import (
    BACKTRACK_LIMIT,
    DAMPING_FLOOR,
    DECREMENT_TOL,
    DEPTH_NOISE_VAR,
    STEP_SPAN_FACTOR,
    EstimatorConfig,
    _estimate_batch,
    _normal_steps,
    _own_sums,
    estimate_trials,
)
from auvgeom.fisher import (
    NoiseModel,
    _condition_screen,
    _time_and_rows,
    _variance_at,
    fim,
)
from auvgeom.geometry import Position, SoundSpeedProfile
from adapters import kernel_pair

SSP = SoundSpeedProfile(surface_speed_b=1480.0, steepness_a=0.1)
TRUTH = Position(50.0, 50.0, 50.0)
USC8 = usc_positions(TRUTH, 8, 1.0)
NOISE_1MS = NoiseModel.constant_variance(1e-3)


def as_stack(anchors, trials=1):
    return np.broadcast_to([p.as_array() for p in anchors], (trials, len(anchors), 3))


def exact_rtt(q, anchors):
    """One sample of noiseless travel times from the kernel, pair by pair, (1, N)."""
    return np.array([[kernel_pair(q, p, SSP)[0] for p in anchors]])


def measure(anchors, noise, trials, seed, truth=TRUTH):
    """(rtt, depth) for trials samples from one block of seeded deviates."""
    dev = np.random.default_rng(seed).standard_normal((trials, len(anchors) + 1))
    q = np.tile(truth.as_array(), (trials, 1))
    rtt, depth, _, _ = harness._measurements(q, as_stack(anchors, trials), SSP, noise, dev)
    return rtt, depth


def estimate(rtt, depth, anchors, noise):
    """estimate_trials with the anchors shared: (q_hat, iterations, converged)."""
    p_xyz = np.array([p.as_array() for p in anchors])
    q_hat, iterations, converged, _ = estimate_trials(rtt, depth, p_xyz, SSP, noise)
    return q_hat, iterations, converged


def depth_anchored_start(depth, p_b):
    """The start estimate_trials takes: anchor centroid in x, y; the depth reading as z."""
    q0 = np.empty((len(depth), 3))
    q0[:, :2] = p_b[:, :, :2].mean(axis=1)
    q0[:, 2] = depth
    return q0


def solve_from(start, anchors, config):
    """_estimate_batch on one noiseless sample, started at the given point."""
    q0 = np.array([start.as_array()])
    return _estimate_batch(
        exact_rtt(TRUTH, anchors), np.array([TRUTH.z]), as_stack(anchors), SSP, NOISE_1MS,
        config, q0,
    )


def squared_errors(q_hat, converged=None):
    err2 = np.sum((q_hat - TRUTH.as_array()) ** 2, axis=1)
    return err2 if converged is None else err2[converged]


def augmented_bound(q, anchors, noise, depth_weight=1.0):
    f = fim(q, anchors, SSP, noise).fim + np.diag([0.0, 0.0, depth_weight])
    return float(np.trace(np.linalg.inv(f)))


class TestSimulateMeasurements:
    """harness._measurements, the one simulator the Monte-Carlo cells use."""

    def test_noiseless_limit(self):
        noise = NoiseModel.constant_variance(1e-15)
        rtt, _ = measure(USC8, noise, 1, seed=0)
        for got, p in zip(rtt[0], USC8):
            assert got == pytest.approx(kernel_pair(TRUTH, p, SSP)[0], rel=1e-12)

    def test_same_seed_identical(self):
        noise = NoiseModel.constant_variance(1e-3)
        a = measure(USC8, noise, 5, seed=42)
        b = measure(USC8, noise, 5, seed=42)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        c = measure(USC8, noise, 5, seed=43)
        assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])

    def test_noise_moments(self):
        sigma = 1e-3
        noise = NoiseModel.constant_variance(sigma)
        t0, _ = kernel_pair(TRUTH, USC8[0], SSP)
        rtt, _ = measure(USC8[:4], noise, 4000, seed=7)
        xi = rtt[:, 0] - t0
        n = len(xi)
        assert abs(xi.mean()) <= 4.0 * sigma / math.sqrt(n)
        assert xi.var() == pytest.approx(sigma ** 2, rel=0.05)

    def test_depth_noise_unit_variance(self):
        noise = NoiseModel.constant_variance(1e-6)
        _, depth = measure(USC8[:4], noise, 4000, seed=3)
        eta = depth - TRUTH.z
        assert abs(eta.mean()) <= 4.0 / math.sqrt(len(eta))
        assert eta.var() == pytest.approx(1.0, rel=0.1)

    def test_distance_dependent_sigma_grows(self):
        # anchors at two very different ranges: the far one gets more jitter
        noise = NoiseModel.distance_dependent()
        near = Position(60.0, 50.0, 0.0)
        far = Position(5050.0, 50.0, 0.0)
        rtt, _ = measure([near, far, USC8[0], USC8[1]], noise, 2000, seed=11)
        devs = rtt[:, :2] - [kernel_pair(TRUTH, p, SSP)[0] for p in (near, far)]
        assert devs[:, 1].std() > 5.0 * devs[:, 0].std()


class TestEstimatePosition:
    def test_fixed_point_at_truth(self):
        q, iterations, converged, _ = solve_from(TRUTH, USC8, EstimatorConfig())
        assert converged[0]
        assert iterations[0] <= 2
        assert np.linalg.norm(q[0] - TRUTH.as_array()) <= 1e-9

    def test_truth_perturbed_recovers(self):
        direction = np.random.default_rng(5).normal(size=3)
        start = Position(*(TRUTH.as_array() + 10.0 * direction / np.linalg.norm(direction)))
        cfg = EstimatorConfig(position_tolerance=1e-9)
        q, _, converged, _ = solve_from(start, USC8, cfg)
        assert converged[0]
        assert np.linalg.norm(q[0] - TRUTH.as_array()) <= 1e-6
        assert np.linalg.norm(exact_rtt(TRUTH, USC8) - exact_rtt(Position(*q[0]), USC8)) <= 1e-9

    def test_depth_anchored_default(self):
        rtt, depth = exact_rtt(TRUTH, USC8), np.array([TRUTH.z])
        q_hat, iterations, converged = estimate(rtt, depth, USC8, NOISE_1MS)
        assert converged[0]
        assert np.linalg.norm(q_hat[0] - TRUTH.as_array()) <= 1e-4
        # the production start is the anchors' centroid at the measured depth
        p_b = as_stack(USC8)
        q, iters, _, _ = _estimate_batch(
            rtt, depth, p_b, SSP, NOISE_1MS, EstimatorConfig(), depth_anchored_start(depth, p_b)
        )
        np.testing.assert_array_equal(q, q_hat)
        np.testing.assert_array_equal(iters, iterations)

    @settings(max_examples=40, deadline=None)
    @given(
        ox=st.floats(-28.0, 28.0),
        oy=st.floats(-28.0, 28.0),
        oz=st.floats(-28.0, 28.0),
        cube=st.booleans(),
    )
    def test_noiseless_recovery_within_fifty_meters(self, ox, oy, oz, cube):
        anchors = (
            cube_positions(Position(175.0, 50.0, 25.0), 50.0, 8) if cube else USC8
        )
        start = Position(TRUTH.x + ox, TRUTH.y + oy, max(TRUTH.z + oz, 1.0))
        cfg = EstimatorConfig(max_iterations=100, position_tolerance=1e-9)
        q, _, converged, _ = solve_from(start, anchors, cfg)
        assert converged[0]
        assert np.linalg.norm(q[0] - TRUTH.as_array()) <= 1e-6

    @pytest.mark.xfail(
        reason="the Newton-decrement exit takes one last step and stops whatever "
        "position_tolerance says (ROADMAP direction 2)"
    )
    def test_decrement_exit_honours_position_tolerance(self):
        # an input in the domain of the test above that Hypothesis found: it
        # converges in 4 iterations to 1.02e-6 m from the truth
        anchors = cube_positions(Position(175.0, 50.0, 25.0), 50.0, 8)
        start = Position(*(TRUTH.as_array() + (25.5, 8.0, 25.0)))
        cfg = EstimatorConfig(max_iterations=100, position_tolerance=1e-9)
        q, _, converged, _ = solve_from(start, anchors, cfg)
        assert converged[0]
        assert np.linalg.norm(q[0] - TRUTH.as_array()) <= 1e-6

    def test_mse_tracks_crlb(self):
        rtt, depth = measure(USC8, NOISE_1MS, 1000, seed=1000)
        q_hat, _, converged = estimate(rtt, depth, USC8, NOISE_1MS)
        assert converged.all()
        mse = float(np.mean(squared_errors(q_hat)))
        bound = augmented_bound(TRUTH, USC8, NOISE_1MS)
        assert abs(mse / bound - 1.0) <= 0.25

    def test_mse_cannot_beat_bound(self):
        trials = 400
        floor = 1.0 - 3.0 / math.sqrt(trials)
        for anchors in (USC8, cube_positions(Position(175.0, 50.0, 25.0), 50.0, 8)):
            rtt, depth = measure(anchors, NOISE_1MS, trials, seed=0)
            q_hat, _, converged = estimate(rtt, depth, anchors, NOISE_1MS)
            err2 = squared_errors(q_hat, converged)
            bound = augmented_bound(TRUTH, anchors, NOISE_1MS)
            assert np.mean(err2) >= floor * bound

    def test_distance_dependent_weights(self):
        # quieter source level keeps the problem in the linear regime
        # where efficiency is attainable; default levels at 66 m range
        # give sigma near 18 ms and a strongly biased nonlinear problem
        noise = NoiseModel.distance_dependent(ke_db=-40.0)
        anchors = usc_positions(TRUTH, 8, 0.85)
        rtt, depth = measure(anchors, noise, 800, seed=500)
        q_hat, _, converged = estimate(rtt, depth, anchors, noise)
        err2 = squared_errors(q_hat, converged)
        bound = augmented_bound(TRUTH, anchors, noise)
        assert abs(np.mean(err2) / bound - 1.0) <= 0.25

    def test_linear_in_sigma(self):
        # distance-independent noise: horizontal error dominates and is
        # proportional to sigma, so decade steps land near factor 10
        values = {}
        for sigma_ms in (0.1, 1.0, 10.0):
            noise = NoiseModel.constant_variance(sigma_ms * 1e-3)
            rtt, depth = measure(USC8, noise, 600, seed=0)
            q_hat, _, converged = estimate(rtt, depth, USC8, noise)
            values[sigma_ms] = math.sqrt(np.mean(squared_errors(q_hat, converged)))
        assert 7.0 <= values[1.0] / values[0.1] <= 13.0
        assert 7.0 <= values[10.0] / values[1.0] <= 13.0

    def test_translation_invariance(self):
        shift = np.array([1000.0, -2000.0, 0.0])
        moved_truth = Position(*(TRUTH.as_array() + shift))
        moved_anchors = [Position(*(p.as_array() + shift)) for p in USC8]
        a, _, _ = estimate(*measure(USC8, NOISE_1MS, 5, seed=9), USC8, NOISE_1MS)
        b, _, _ = estimate(
            *measure(moved_anchors, NOISE_1MS, 5, seed=9, truth=moved_truth),
            moved_anchors,
            NOISE_1MS,
        )
        assert np.allclose(b - a, shift, atol=1e-6)

    def test_singular_normal_matrix(self):
        # anchors and AUV share one vertical plane: y is unobservable
        plane = [
            Position(90.0, 50.0, 0.0),
            Position(140.0, 50.0, 0.0),
            Position(-10.0, 50.0, 0.0),
            Position(-60.0, 50.0, 0.0),
        ]
        p_xyz = np.array([p.as_array() for p in plane])
        _, _, converged, singular = estimate_trials(
            exact_rtt(TRUTH, plane), [TRUTH.z], p_xyz, SSP, NOISE_1MS
        )
        assert singular[0] and not converged[0]

    def test_far_start_is_clipped_not_dropped(self):
        # steps clipped to STEP_SPAN_FACTOR spans bring a 50 km start back
        # to the truth; from 500 km they run out of iterations on the way
        config = EstimatorConfig()
        q_hat, iterations, converged, singular = solve_from(
            Position(50000.0, 50.0, 50.0), USC8, config
        )
        assert converged[0] and not singular[0]
        assert 1 < iterations[0] < config.max_iterations
        assert np.linalg.norm(q_hat[0] - TRUTH.as_array()) < 1e-6
        _, iterations, converged, singular = solve_from(
            Position(500000.0, 50.0, 50.0), USC8, config
        )
        assert not converged[0] and not singular[0]
        assert iterations[0] == config.max_iterations

    def test_too_few_anchors(self):
        p_xyz = np.array([p.as_array() for p in USC8[:3]])
        with pytest.raises(TooFewAnchors):
            estimate_trials(exact_rtt(TRUTH, USC8[:3]), [TRUTH.z], p_xyz, SSP, NOISE_1MS)

    def test_length_mismatch(self):
        # five travel times against eight anchors, shared and per trial
        rtt = exact_rtt(TRUTH, USC8[:5])
        p_xyz = np.array([p.as_array() for p in USC8])
        for anchors in (p_xyz, np.stack([p_xyz[:5]] * 2)):
            with pytest.raises(ValueError):
                estimate_trials(rtt, [TRUTH.z], anchors, SSP, NOISE_1MS)

    def test_empty_batch(self):
        q_hat, iterations, converged = estimate(
            np.empty((0, 8)), np.empty(0), USC8, NOISE_1MS
        )
        assert q_hat.shape == (0, 3)
        assert iterations.size == 0 and converged.size == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(max_iterations=0)
        with pytest.raises(ValueError):
            EstimatorConfig(position_tolerance=0.0)


# ---------------------------------------------------------------------------
# The batched estimator against a plain reference


def eigvalsh_rule(jtj):
    """Non-finite, or cond > 1e12 from eigvalsh (inf when the smallest is 0)."""
    finite = np.all(np.isfinite(jtj), axis=(1, 2))
    with np.errstate(all="ignore"):
        cond = np.full(len(jtj), np.inf)
        if finite.any():
            ev = np.abs(np.linalg.eigvalsh(jtj[finite]))
            ratio = ev.max(axis=1) / ev.min(axis=1)
            cond[finite] = np.where(np.isnan(ratio), np.inf, ratio)
    return ~finite | (cond > 1e12)


def reference_estimate_batch(rtt, depth, p_b, ssp, noise, config, q0):
    """The lockstep Gauss-Newton loop without its shortcuts.

    It calls the kernel at every iterate, halves a rejected step one
    scale at a time, and runs eigvalsh on every normal matrix.  It shares
    _normal_steps, the cofactor solve, the decrement stop and the step
    clip.  Returns _estimate_batch's four arrays plus a mask of the
    samples whose line search rejected every step.
    """
    batch = len(rtt)
    max_step = STEP_SPAN_FACTOR * np.linalg.norm(
        p_b.max(axis=1) - p_b.min(axis=1), axis=1
    )
    w_depth = 1.0 / DEPTH_NOISE_VAR

    def weighted_sse(q, p, rtt_s, depth_s, sigma2):
        t, _, _ = _time_and_rows(q, p, ssp)
        sse = np.sum((rtt_s - t) ** 2 / sigma2, axis=-1)
        return sse + w_depth * (depth_s - q[..., 2]) ** 2

    q = np.array(q0, dtype=float)
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    singular = np.zeros(batch, dtype=bool)
    stalled_any = np.zeros(batch, dtype=bool)
    active = np.ones(batch, dtype=bool)
    gamma = np.ones(batch)
    prev_step = np.zeros((batch, 3))

    for _ in range(config.max_iterations):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        qa = q[idx]
        t, rows, r = _time_and_rows(qa, p_b[idx], ssp)
        sigma2 = _variance_at(noise, r)
        sigma = np.sqrt(sigma2)
        design = rows / sigma[..., None]
        resid = (rtt[idx] - t) / sigma
        sw = math.sqrt(w_depth)
        depth_row = np.zeros((len(idx), 1, 3))
        depth_row[:, 0, 2] = sw
        design = np.concatenate([design, depth_row], axis=1)
        resid = np.concatenate([resid, (sw * (depth[idx] - qa[:, 2]))[:, None]], axis=1)

        cur_sse = np.sum(resid**2, axis=1)
        jtj = np.einsum("bni,bnj->bij", design, design)
        jtr = np.einsum("bni,bn->bi", design, resid)
        bad = eigvalsh_rule(jtj)
        singular[idx[bad]] = True
        active[idx[bad]] = False
        good = ~bad
        if not good.any():
            continue
        sub = idx[good]
        sums = np.concatenate([jtj[:, (0, 1, 2, 0, 1, 0), (0, 1, 2, 1, 2, 2)].T, jtr.T])
        delta = _normal_steps(sums)[0][good]
        iterations[sub] += 1

        # a small Newton decrement: take the undamped step and stop
        final = np.sum(delta * jtr[good], axis=1) < DECREMENT_TOL
        q[sub[final]] = q[sub[final]] + delta[final]
        converged[sub[final]] = True
        active[sub[final]] = False
        good[good] = ~final
        sub, delta = sub[~final], delta[~final]
        if not sub.size:
            continue

        reversed_dir = np.einsum("bi,bi->b", prev_step[sub], delta) < 0.0
        gamma[sub] = np.where(
            reversed_dir,
            np.maximum(gamma[sub] * 0.5, DAMPING_FLOOR),
            np.minimum(gamma[sub] * 2.0, 1.0),
        )
        delta = delta * gamma[sub][:, None]
        # a step longer than max_step is scaled down to it
        step_norm = np.linalg.norm(delta, axis=1)
        with np.errstate(divide="ignore"):
            clip = np.minimum(1.0, max_step[sub] / step_norm)
        delta = delta * clip[:, None]
        step_norm = step_norm * clip
        frozen_s2 = sigma2[good]
        ref_sse = cur_sse[good]

        scale = np.ones(len(sub))
        accepted = np.zeros(len(sub), dtype=bool)
        new_q = q[sub] + delta
        new_sse = weighted_sse(new_q, p_b[sub], rtt[sub], depth[sub], frozen_s2)
        for k in range(BACKTRACK_LIMIT):
            accepted |= new_sse <= ref_sse
            if accepted.all() or k == BACKTRACK_LIMIT - 1:
                break
            rest = ~accepted
            scale[rest] *= 0.5
            new_q[rest] = q[sub[rest]] + scale[rest, None] * delta[rest]
            new_sse[rest] = weighted_sse(
                new_q[rest], p_b[sub[rest]], rtt[sub[rest]], depth[sub[rest]],
                frozen_s2[rest],
            )
        ms = sub[accepted]
        prev_step[ms] = scale[accepted, None] * delta[accepted]
        q[ms] = new_q[accepted]
        done = scale[accepted] * step_norm[accepted] <= config.position_tolerance
        converged[ms[done]] = True
        active[ms[done]] = False
        ss = sub[~accepted]
        stalled_any[ss] = True
        converged[ss] = step_norm[~accepted] <= config.position_tolerance
        active[ss] = False

    return (q, iterations, converged, singular), stalled_any


def recorded_inputs(spec, cells):
    """The estimate_trials arguments of the given (scheme, axis value) cells."""
    calls = []
    original = harness.estimate_trials

    def record(rtt, depth, anchors, ssp, noise, config):
        # one cell per task: each call holds exactly one block
        [r], [d], [p] = rtt, depth, anchors
        calls.append((r, d, p, ssp, noise, config))
        return original(rtt, depth, anchors, ssp, noise, config)

    harness.estimate_trials = record
    try:
        for scheme, value in cells:
            harness._sweep_one(spec, [(scheme, spec.schemes[scheme], value)])
    finally:
        harness.estimate_trials = original
    return calls


@functools.cache
def figure_inputs(maker):
    """The recorded estimator inputs of every cell of a 150-trial seed-0 figure."""
    spec = maker(master_seed=0, trials=150)
    return recorded_inputs(spec, [(scheme, n) for scheme in spec.schemes for n in spec.values])


class TestBatchMatchesReference:
    """_estimate_batch returns exactly what the plain loop returns."""

    def check(self, rtt, depth, anchors, ssp, noise, config, q0=None):
        # anchors (N, 3) shared or (batch, N, 3); q0 None starts where
        # estimate_trials does
        p_b = np.broadcast_to(anchors, (len(rtt), rtt.shape[1], 3))
        if q0 is None:
            q0 = depth_anchored_start(depth, p_b)
        got = _estimate_batch(rtt, depth, p_b, ssp, noise, config, q0)
        want, stalled = reference_estimate_batch(rtt, depth, p_b, ssp, noise, config, q0)
        for name, g, w in zip(("q", "iterations", "converged", "singular"), got, want):
            np.testing.assert_array_equal(g, w, err_msg=name)
        _, iters, conv, singular = want
        at_cap = ~conv & ~singular & (iters >= config.max_iterations)
        # every failure has a known cause: singular, the cap, or a stall
        unexplained = ~conv & ~singular & ~at_cap & ~stalled
        assert not unexplained.any(), f"{unexplained.sum()} failures have no cause"
        return int(at_cap.sum()), int(stalled.sum()), int(singular.sum())

    def test_fig4a_cube_and_random_cells(self):
        # trial 1507 of the cube n=7 cell rejects every step at seed 0
        spec = harness.fig4a_spec(master_seed=0, trials=1600)
        cells = [(scheme, n) for scheme in ("cube", "random") for n in (4.0, 8.0)] + [("cube", 7.0)]
        inputs = recorded_inputs(spec, cells)
        assert len(inputs) == len(cells)
        at_cap = stalled = 0
        for args in inputs:
            a, s, _ = self.check(*args)
            at_cap += a
            stalled += s
        # the cells reach both early exits of the line search loop
        assert at_cap > 0 and stalled > 0

    def test_fig5_shared_anchors_at_10_ms(self):
        spec = harness.fig5_spec(master_seed=0, trials=200)
        cells = [(scheme, 10.0) for scheme in ("usc", "cube", "random")]
        for rtt, depth, layout, ssp, noise, config in recorded_inputs(spec, cells):
            # fixed layouts: the harness passes the one (N, 3) array the trials share
            assert layout.shape == (8, 3)
            self.check(rtt, depth, layout, ssp, noise, config)

    def test_truth_perturbed_start(self):
        noise = NoiseModel.constant_variance(5e-3)
        rtt, depth = measure(USC8, noise, 100, seed=0)
        direction = np.random.default_rng(3).normal(size=(100, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        q0 = TRUTH.as_array() + 40.0 * direction
        self.check(rtt, depth, as_stack(USC8), SSP, noise, EstimatorConfig(), q0)

    def test_batch_with_singular_layouts(self):
        # every third trial puts anchors and AUV in one vertical plane
        plane = [(90.0, 50.0, 0.0), (140.0, 50.0, 0.0), (-10.0, 50.0, 0.0), (-60.0, 50.0, 0.0)]
        usc = [p.as_array() for p in usc_positions(TRUTH, 4, 1.0)]
        stack = np.array([plane if i % 3 == 0 else usc for i in range(30)])
        noise = NoiseModel.distance_dependent()
        rng = np.random.default_rng(0)
        t, _, _ = _time_and_rows(np.tile(TRUTH.as_array(), (30, 1)), stack, SSP)
        rtt = t + 1e-3 * rng.normal(size=t.shape)
        depth = TRUTH.z + rng.normal(size=30)
        _, _, singular = self.check(rtt, depth, stack, SSP, noise, EstimatorConfig())
        assert singular == 10


class TestStartPoint:
    def test_fig4a_usc_rmse_ignores_a_far_start(self):
        # the production start is the anchors' centroid, which for usc is
        # the true x, y; moving every trial's start 50 m away horizontally,
        # each along its own seeded bearing, moves the cell's RMSE 1.5%
        spec = harness.fig4a_spec(master_seed=0, trials=2000)
        [(rtt, depth, layout, ssp, noise, config)] = recorded_inputs(spec, [("usc", 4.0)])
        truth = spec.base.auv_truth.as_array()

        def rmse(q, converged):
            return math.sqrt(np.mean(np.sum((q[converged] - truth) ** 2, axis=1)))

        q, _, converged, _ = estimate_trials(rtt, depth, layout, ssp, noise, config)
        bearing = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, len(rtt))
        q0 = depth_anchored_start(depth, layout[None])
        q0[:, 0] += 50.0 * np.cos(bearing)
        q0[:, 1] += 50.0 * np.sin(bearing)
        far, _, far_converged, singular = _estimate_batch(
            rtt, depth, layout, ssp, noise, config, q0
        )
        assert converged.all() and far_converged.all() and not singular.any()
        assert abs(rmse(far, far_converged) / rmse(q, converged) - 1.0) <= 0.02


class TestSharedLayout:
    """One (N, 3) layout shared by every sample.

    It must give exactly what its materialized (batch, N, 3) copy gives,
    through _estimate_batch and through estimate_trials, which takes any
    two-dimensional anchor array as the layout every sample shares.
    """

    def check(self, rtt, depth, anchors, noise):
        layout = np.array([p.as_array() for p in anchors])
        stack = np.array(np.broadcast_to(layout, (len(rtt), *layout.shape)))
        q0 = depth_anchored_start(depth, stack)
        config = EstimatorConfig()
        names = ("q", "iterations", "converged", "singular")
        shared = _estimate_batch(rtt, depth, layout, SSP, noise, config, q0)
        copied = _estimate_batch(rtt, depth, stack, SSP, noise, config, q0)
        for name, s, c in zip(names, shared, copied):
            np.testing.assert_array_equal(s, c, err_msg=name)
        through_entry = estimate_trials(rtt, depth, layout, SSP, noise)
        for name, s, c in zip(names, through_entry, estimate_trials(rtt, depth, stack, SSP, noise)):
            np.testing.assert_array_equal(s, c, err_msg=name)
        return shared

    def test_cube_batch_with_distance_weights(self):
        cube = cube_positions(Position(50.0, 50.0, 25.0), 100.0, 8)
        noise = NoiseModel.distance_dependent()
        rtt, depth = measure(cube, noise, 300, seed=5)
        q, iterations, converged, singular = self.check(rtt, depth, cube, noise)
        assert converged.sum() > 250 and not singular.any()
        assert iterations.max() > iterations.min()

    def test_empty_batch(self):
        q, iterations, converged, singular = self.check(
            np.empty((0, 8)), np.empty(0), USC8, NOISE_1MS
        )
        assert q.shape == (0, 3) and iterations.size == converged.size == singular.size == 0

    def test_all_singular_batch(self):
        # anchors and AUV share one vertical plane: y is unobservable
        plane = [Position(x, 50.0, 0.0) for x in (90.0, 140.0, -10.0, -60.0)]
        rtt, depth = measure(plane, NOISE_1MS, 20, seed=6)
        q, iterations, converged, singular = self.check(rtt, depth, plane, NOISE_1MS)
        assert singular.all() and not converged.any() and not iterations.any()


class TestWindow:
    """Several cells through one estimate_trials call.

    Each cell's slice of the output is what the cell's own call returns,
    bit for bit, whatever the cells' anchor counts and order: the shape
    of the Monte-Carlo harness's grouped cells.  At most the largest
    block's worth of trials iterates at once, so cells cut into blocks of
    at most size trials run through a window of that size; a size at or
    above the largest cell (60, 2000, None) leaves every cell one block,
    as the harness passes them.  Cells of 7 and 8 anchors sit where
    ``np.sum`` would switch from in-order to pairwise addition; the
    estimator's anchor sums add in column order with padded terms
    zeroed, so padding a narrower cell moves none of its rounding.
    """

    NAMES = ("q", "iterations", "converged", "singular")

    @staticmethod
    def cells(noise):
        """(rtt, depth, anchors) of five cells, not in anchor-count order:
        a shared usc layout of 8, random layouts per trial of 7, a shared
        5-anchor layout in the AUV's vertical plane, where every trial is
        singular, a shared usc layout of 4 and random layouts per trial
        of 5."""
        rng = np.random.default_rng(8)
        q = np.tile(TRUTH.as_array(), (60, 1))

        def per_trial(n, trials):
            stack = random_layouts(default_box_for(TRUTH), n, rng, trials)
            dev = rng.normal(size=(trials, n + 1))
            rtt, depth, _, _ = harness._measurements(q[:trials], stack, SSP, noise, dev)
            return rtt, depth, stack

        def shared(anchors, trials, seed):
            return *measure(anchors, noise, trials, seed), np.array([p.as_array() for p in anchors])

        plane = [Position(x, 50.0, 0.0) for x in range(-100, 150, 50)]
        return [
            shared(USC8, 50, seed=1),
            per_trial(7, 60),
            shared(plane, 20, seed=2),
            shared(usc_positions(TRUTH, 4, 1.0), 30, seed=3),
            per_trial(5, 40),
        ]

    @staticmethod
    def merged(cells, size=None):
        """The cells as estimate_trials' three lists of blocks, each cell
        cut into blocks of at most size trials (None: one block each)."""
        blocks = []
        for rtt, depth, p in cells:
            step = size or max(len(rtt), 1)
            for a in range(0, len(rtt), step):
                b = a + step
                blocks.append((rtt[a:b], depth[a:b], p if p.ndim == 2 else p[a:b]))
        return tuple(list(part) for part in zip(*blocks))

    def check_merged(self, cells, ssp, noise, config, size):
        """The merged call's output, checked against each cell's own call."""
        alone = [estimate_trials(rtt, depth, p, ssp, noise, config) for rtt, depth, p in cells]
        got = estimate_trials(*self.merged(cells, size), ssp, noise, config)
        for name, g, parts in zip(self.NAMES, got, zip(*alone)):
            np.testing.assert_array_equal(g, np.concatenate(parts), err_msg=name)
        return got

    def check_cells(self, noise, size, max_iterations):
        config = EstimatorConfig(max_iterations=max_iterations)
        _, iterations, converged, singular = self.check_merged(
            self.cells(noise), SSP, noise, config, size
        )
        # the plane cell is singular throughout; the others converge, and
        # at a cap of 4 some of their trials stop there
        plane = np.zeros(200, dtype=bool)
        plane[110:130] = True
        np.testing.assert_array_equal(singular, plane)
        assert converged[~plane].any()
        assert (iterations[~plane] == max_iterations).any() == (max_iterations == 4)

    @pytest.mark.parametrize("size", [7, 60, None])
    @pytest.mark.parametrize("max_iterations", [4, 100])
    def test_concatenated_cells_match_their_own_calls(self, size, max_iterations):
        self.check_cells(NoiseModel.distance_dependent(), size, max_iterations)

    @pytest.mark.parametrize("size", [7, 2000, None])
    @pytest.mark.parametrize("max_iterations", [4, 100])
    def test_constant_noise_cells_match_their_own_calls(self, size, max_iterations):
        self.check_cells(NOISE_1MS, size, max_iterations)

    @pytest.mark.parametrize("maker", [harness.fig4a_spec, harness.fig4b_spec])
    @pytest.mark.parametrize("size, max_iterations", [(7, 4), (2000, 100), (None, 100)])
    def test_recorded_figure_cells(self, maker, size, max_iterations):
        # every seed-0 cell of the figure, usc and cube sharing a layout
        # and random drawing one per trial, at every anchor count 4 to 8;
        # at 2000 or None each cell of 150 trials is one block
        inputs = figure_inputs(maker)
        assert sorted({rtt.shape[1] for rtt, *_ in inputs}) == [4, 5, 6, 7, 8]
        _, _, _, ssp, noise, _ = inputs[0]
        config = EstimatorConfig(max_iterations=max_iterations)
        self.check_merged([args[:3] for args in inputs], ssp, noise, config, size)

    def test_blocks_run_in_anchor_count_order(self, monkeypatch):
        # fig4a's cells in row order (usc, cube, random, each n = 4..8)
        # cost the kernel as many pairs as in anchor-count order, because
        # estimate_trials sorts them; unsorted, the window pads far more,
        # but holds the counts out of order with the same output
        inputs = figure_inputs(harness.fig4a_spec)
        _, _, _, ssp, noise, config = inputs[0]
        by_count = sorted(inputs, key=lambda args: args[0].shape[1])
        pairs = []
        kernel = estimation._time_and_rows

        def counted(q, p, ssp):
            out = kernel(q, p, ssp)
            pairs[-1] += out[0].size
            return out

        monkeypatch.setattr(estimation, "_time_and_rows", counted)

        def count(solve, cells, *args):
            pairs.append(0)
            out = solve(*self.merged([c[:3] for c in cells]), ssp, noise, config, *args)
            return pairs[-1], out

        row_order, want = count(estimate_trials, inputs)
        assert row_order == count(estimate_trials, by_count)[0]
        q0 = np.concatenate([
            depth_anchored_start(d, np.broadcast_to(p, (len(r), *p.shape[-2:])))
            for r, d, p, *_ in inputs
        ])
        unsorted, (q, iterations, converged, singular) = count(_estimate_batch, inputs, q0)
        assert unsorted > 1.1 * row_order
        got = (q, iterations, converged & ~singular, singular)
        for name, g, w in zip(self.NAMES, got, want):
            np.testing.assert_array_equal(g, w, err_msg=name)

    def test_active_set_never_exceeds_the_window(self, monkeypatch):
        noise = NoiseModel.distance_dependent()
        cells = self.cells(noise)
        sizes = []
        variance = estimation._variance_at
        # the variances are taken once per iteration at the active samples' points
        monkeypatch.setattr(
            estimation, "_variance_at", lambda nm, r: sizes.append(len(r)) or variance(nm, r)
        )
        _, iterations, _, singular = estimate_trials(*self.merged(cells, 16), SSP, noise)
        assert max(sizes) == 16 and sizes[-1] < 16
        # every sample was admitted: each iterated or was found singular
        assert ((iterations > 0) | singular).all()
        assert sum(sizes) == iterations.sum() + singular.sum()

    def test_kernel_calls_stay_window_sized(self, monkeypatch):
        # the kernel sees a sample's start when it is admitted and then
        # its line-search candidates: no call covers more pairs than the
        # window times the widest count times the largest candidate group
        noise = NoiseModel.distance_dependent()
        pairs = []
        kernel = estimation._time_and_rows

        def counted(q, p, ssp):
            out = kernel(q, p, ssp)
            pairs.append(out[0].size)
            return out

        monkeypatch.setattr(estimation, "_time_and_rows", counted)
        estimate_trials(*self.merged(self.cells(noise), 16), SSP, noise)
        assert max(pairs) <= 16 * 8 * max(map(len, estimation._STEP_SCALES))
        assert sum(pairs) > 200 * 8

    def test_blocks_must_come_in_equal_lists(self):
        rtt, depth = measure(USC8, NOISE_1MS, 3, seed=0)
        layout = np.array([p.as_array() for p in USC8])
        with pytest.raises(ValueError):
            estimate_trials([rtt, rtt], [depth], [layout, layout], SSP, NOISE_1MS)

    @pytest.mark.parametrize("shape", [(1,), (5,), (10, 1)])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_depth_must_match_the_trials(self, shape, as_list):
        # ten trials of a shared usc layout; as a list, the bad block
        # follows a good one
        rtt, depth = measure(USC8, NOISE_1MS, 10, seed=0)
        layout = np.array([p.as_array() for p in USC8])
        bad = np.resize(depth, shape)
        args = ([rtt, rtt], [depth, bad], [layout, layout]) if as_list else (rtt, bad, layout)
        with pytest.raises(ValueError, match="depth shape"):
            estimate_trials(*args, SSP, NOISE_1MS)

    @pytest.mark.parametrize("as_list", [False, True])
    def test_travel_times_must_be_two_dimensional(self, as_list):
        # one trial's four travel times passed flat, with a (4, 3) layout;
        # as a list, the flat block follows a good one
        rtt, depth = measure(USC8[:4], NOISE_1MS, 1, seed=0)
        layout = np.array([p.as_array() for p in USC8[:4]])
        flat = rtt[0]
        if as_list:
            args = ([rtt, flat], [depth, depth], [layout, layout])
        else:
            args = (flat, depth, layout)
        with pytest.raises(ValueError, match=r"travel times must be \(trials, N\), got shape \(4,\)"):
            estimate_trials(*args, SSP, NOISE_1MS)


class TestOwnSums:
    @pytest.mark.parametrize("middle", [(), (3,)])
    @pytest.mark.parametrize("width", [8, 9])
    def test_each_sample_adds_its_own_columns_in_order(self, width, middle):
        # counts 4 to width, unsorted, at widths where np.sum adds
        # pairwise; terms spread over many decades so the order shows,
        # and every padded slot is NaN
        rng = np.random.default_rng(9)
        counts = rng.permutation(np.repeat(np.arange(4, width + 1), 12))
        x = rng.lognormal(0.0, 6.0, (len(counts), *middle, width))
        pad = np.arange(width) >= counts.reshape(-1, *(1,) * (x.ndim - 1))
        x[np.broadcast_to(pad, x.shape)] = np.nan
        own = [row[..., :n] for row, n in zip(x.copy(), counts)]
        got = _own_sums(x, counts)
        assert got.shape == x.shape[:-1]
        for g, cols in zip(got, own):
            flat = cols.reshape(-1, cols.shape[-1])
            want = [sum(c.tolist()) for c in flat]
            assert g.ravel().tolist() == want
        # np.sum rounds some of the same sums differently
        pairwise = [np.sum(cols, axis=-1) for cols in own]
        assert any((p != g).any() for p, g in zip(pairwise, got))


class TestConditionScreen:
    def test_flags_what_eigvalsh_flags(self):
        rng = np.random.default_rng(1)
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))

        def with_cond(c):
            return rot @ np.diag([2.0, 1.0, 2.0 / c]) @ rot.T

        near = [with_cond(1e12 * (1.0 + f)) for f in (-1e-3, 1e-3)]
        design = rng.normal(size=(9, 3))
        design[:, 2] = design[:, 0] - design[:, 1]
        mats = np.array(
            [
                with_cond(1e11),
                *near,
                with_cond(1e13),
                design.T @ design,  # rank two up to rounding
                np.diag([3.0, 1.0, 0.0]),  # exactly rank two
                np.zeros((3, 3)),
                np.diag([1.0, 2.0, -3.0]),  # indefinite, det < 0
                np.diag([1.0, 1.0, -1e-13]),  # indefinite, det < 0, cond 1e13
                np.full((3, 3), np.nan),
                np.diag([1.0, np.inf, 1.0]),
                np.eye(3),
            ]
        )
        want = eigvalsh_rule(mats)
        # the cases straddle the limit
        assert want.tolist() == [
            False, False, True, True, True, True, True, False, True, True, True, False
        ]
        np.testing.assert_array_equal(_condition_screen(mats)[0], want)

    def test_random_normal_matrices(self):
        # Gram matrices of designs whose column scales spread over many
        # decades: some are cleared, some checked, some flagged
        rng = np.random.default_rng(2)
        design = rng.normal(size=(500, 9, 3)) * rng.lognormal(0.0, 4.0, size=(500, 1, 3))
        jtj = np.einsum("bni,bnj->bij", design, design)
        want = eigvalsh_rule(jtj)
        assert 0 < want.sum() < 100
        np.testing.assert_array_equal(_condition_screen(jtj)[0], want)


class TestNormalSteps:
    """_normal_steps: cofactor steps where the screen clears, LAPACK elsewhere."""

    @staticmethod
    def sums(m, g):
        six = m[:, (0, 1, 2, 0, 1, 0), (0, 1, 2, 1, 2, 2)].T
        return np.concatenate([six, g.T])

    def test_cofactor_steps_match_lapack(self, monkeypatch):
        # seeded SPD matrices: eigenvalues s, s/mid and s/cond with cond
        # from 1 to 1e11, mid between 1 and cond, entry scale s from 1e-6
        # to 1e6, in random orientations
        rng = np.random.default_rng(4)
        n = 4000
        rot, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        cond = 10.0 ** rng.uniform(0.0, 11.0, n)
        mid = cond ** rng.uniform(0.0, 1.0, n)
        scale = 10.0 ** rng.uniform(-6.0, 6.0, n)
        lam = scale[:, None] * np.stack([np.ones(n), 1.0 / mid, 1.0 / cond], axis=1)
        m = np.einsum("bij,bj,bkj->bik", rot, lam, rot)
        m = 0.5 * (m + m.transpose(0, 2, 1))
        g = rng.normal(size=(n, 3)) * scale[:, None]
        # keep the matrices the screen clears without an eigenvalue solve
        bad, cleared = _condition_screen(m)
        assert not bad.any()
        m, g = m[cleared], g[cleared]
        assert len(m) > 2000
        want = np.linalg.solve(m, g[..., None])[..., 0]
        lapack_calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: lapack_calls.append(a) or solve(a, b))
        got, bad = _normal_steps(self.sums(m, g))
        assert not lapack_calls and not bad.any()
        # Tolerance: the relative gap stays below kappa * eps, where kappa
        # = tr^3 / det >= cond is the screen's bound (at most 1e11 here).
        # LAPACK errs by about cond * eps, but the cofactor determinant
        # loses digits in proportion to kappa, not cond: with
        # two small eigenvalues the gap reaches 5000 cond * eps here, and
        # 0.07 kappa * eps at most.
        kappa = np.trace(m, axis1=1, axis2=2) ** 3 / np.linalg.det(m)
        eigen = np.linalg.eigvalsh(m)
        assert (kappa >= eigen[:, -1] / eigen[:, 0] * (1.0 - 1e-6)).all()
        gap = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert (gap <= kappa * np.finfo(float).eps).all()

    def test_lapack_takes_exactly_the_screened_matrices(self, monkeypatch):
        # normal matrices that the tr^3 / det bound does not clear go
        # through eigvalsh; the ones eigvalsh then passes, and only
        # they, are solved by LAPACK
        rng = np.random.default_rng(2)
        design = rng.normal(size=(500, 9, 3)) * rng.lognormal(0.0, 4.0, size=(500, 1, 3))
        jtj = np.einsum("bni,bnj->bij", design, design)
        g = rng.normal(size=(500, 3))
        screened, solved = [], []
        eigvalsh, solve = np.linalg.eigvalsh, np.linalg.solve
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: screened.append(a) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
        _, bad = _normal_steps(self.sums(jtj, g))
        [checked] = screened
        [fallback] = solved
        np.testing.assert_array_equal(bad, eigvalsh_rule(jtj))
        passed = ~eigvalsh_rule(checked)
        assert 0 < passed.sum() < len(checked) < 500
        np.testing.assert_array_equal(fallback, checked[passed])

    def test_estimator_routes_screened_matrices_to_lapack(self, monkeypatch):
        # the 400-trial seed-0 fig4a cube n=5 cell has a few normal
        # matrices the tr^3 / det bound does not clear
        spec = harness.fig4a_spec(master_seed=0, trials=400)
        [args] = recorded_inputs(spec, [("cube", 5.0)])
        screened, solved = [], []
        eigvalsh, solve = np.linalg.eigvalsh, np.linalg.solve
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: screened.append(a) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
        estimate_trials(*args)
        checked, fallback = np.concatenate(screened), np.concatenate(solved)
        assert len(checked) > 0
        np.testing.assert_array_equal(fallback, checked[~eigvalsh_rule(checked)])
