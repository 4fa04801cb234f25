"""Batched Gauss-Newton position estimation.

Measurements are one-way travel times under the bent-ray model plus a
depth-sensor reading with 1 m^2 Gaussian noise.  The estimator runs
iterated Gauss-Newton on the weighted least-squares cost

    sum_i (rtt_i - t_i(q))^2 / sigma_i^2 + (depth_meas - q_z)^2 / DEPTH_NOISE_VAR,

which for a static position is algebraically the iterated-EKF
measurement update.  Timing weights are re-evaluated at the current
iterate when the noise model is distance dependent.  The whole solver is
vectorized over a batch of samples so Monte-Carlo sweeps pay one numpy
pass instead of a Python loop per trial.  ``estimate_trials`` is its one
entry point; it starts every sample at its anchors' horizontal centroid,
at the depth the sensor read.

Each iteration backtracks on the cost with the weights frozen: it tries
the full step, then the halved steps 1/2 .. 1/2**14 in groups of 1, 2,
4 and 7 scales, one broadcast kernel call per group over the samples
still rejected, and takes the first scale that passes.  The ray kernel's
travel times and Jacobian rows at an accepted candidate become the next
iterate's, so the kernel runs once on the starting points and then only
on candidates.  A normal matrix counts as singular under the same
screened cond > 1e12 test that ``fim`` applies to the Fisher matrix.

A sample stops by one of two rules.  When the Newton decrement of its
undamped step, delta . J^T W r, the whitened-cost decrease that step
predicts, falls below DECREMENT_TOL, it takes that step and is done;
this is tested before damping and the line search.  The final step is
taken because the iterate that passed the test still sits up to one
step from the solution: stopping without it leaves noiseless solves
millimetres from the truth.  Otherwise a sample stops once an accepted
step is no longer than ``position_tolerance``, or when the line search
rejects every scale.

The normal equations are solved in closed form: one cofactor pass over
the six sums of J^T W J gives the singular screen its determinant and
every matrix that the screen's tr^3 / det bound clears (cond <= 1e11)
its step adj J^T W r / det.  Below that clearance the determinant can
lose every digit, so the few matrices the bound does not clear, and the
eigenvalue check then passes, are solved by LAPACK.

The normal equations come from the N timing rows alone: the six
distinct entries of J^T W J and the three of J^T W r are summed row by
row in order, starting from zero, and the depth pseudo-row (0, 0, sw)
adds its terms last (sw^2 to the zz entry, sw times the depth residual
to the z entry, the squared depth residual to the cost).  That is the
order of one summation over all N + 1 rows, so the result is the same
to the bit without ever building the augmented matrix.  A layout that
every sample shares stays one (N, 3) array throughout: the kernel and
the noise model broadcast it against the samples' points instead of
copying it per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewAnchors
from .fisher import (
    NoiseModel,
    _condition_screen,
    _first_row_expansion,
    _sigma2,
    _time_and_rows,
)
from .geometry import SoundSpeedProfile

DEPTH_NOISE_VAR = 1.0  # m^2, depth-sensor error variance

BACKTRACK_LIMIT = 15
DIVERGENCE_SPAN_FACTOR = 10.0
# Rounding noise on the whitened cost: travel times carry a few 1e-15 s
# of absolute error, and dividing by millisecond sigmas lifts that to
# ~1e-11 on the summed cost.  Accepting steps within this slack keeps
# the line search from rejecting every move near the optimum; accepted
# uphill drift is bounded by slack * max_iterations.
SSE_SLACK = 1e-9
# A sample whose undamped step predicts a whitened-cost decrease below
# this stops after taking that step (Newton decrement, Boyd &
# Vandenberghe 2004, section 9.5.1).  At 1e-4 the step moves the point
# by about 1% of its standard deviation.
DECREMENT_TOL = 1e-4
# Distance-dependent weights make the reweighted iteration a fixed-point
# map that can settle into a stable two-point cycle at high noise.  A
# step that reverses direction against the previous one halves a
# per-sample damping factor (recovered on forward steps), which turns
# the cycle into a contraction toward the fixed point in between.
DAMPING_FLOOR = 1.0 / 1024.0


@dataclass(frozen=True)
class EstimatorConfig:
    # 0.1 mm stopping tolerance: far below any acoustic ranging error,
    # yet reachable in ~10-30 damped reweighted steps at heavy noise.
    max_iterations: int = 100
    position_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.position_tolerance > 0:
            raise ValueError("position_tolerance must be positive")


# the halved steps 1/2 .. 1/2**(BACKTRACK_LIMIT - 1) in groups of 1, 2, 4
# and 7 scales; ldexp keeps every scale an exact power of two
_HALVING_SCALES = tuple(
    np.ldexp(1.0, -np.arange(lo, hi)) for lo, hi in ((1, 2), (2, 4), (4, 8), (8, BACKTRACK_LIMIT))
)
# J^T W J, row-major, from the 00, 11, 22, 01, 12 and 02 sums that
# _estimate_batch accumulates
_JTJ_ENTRIES = [0, 3, 5, 3, 1, 4, 5, 4, 2]


def _normal_steps(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations given by their nine sums, (9, batch).

    Rows 0-5 are the 00, 11, 22, 01, 12 and 02 entries of J^T W J and
    rows 6-8 are J^T W r.  Returns the steps (batch, 3) and the singular
    mask of ``fisher._ill_conditioned``; a singular row's step is garbage.
    One cofactor pass gives the screen its determinant and every matrix
    the screen clears its step adj J^T W r / det.  The few that the
    tr^3 / det bound does not clear, where the determinant may have lost
    its digits, are solved by LAPACK.
    """
    s00, s11, s22, s01, s12, s02 = sums[:6]
    g0, g1, g2 = sums[6:]
    jtj = sums[_JTJ_ENTRIES].T.reshape(-1, 3, 3)
    with np.errstate(all="ignore"):
        det, (c00, c01, c02) = _first_row_expansion(s00, s01, s02, s11, s12, s22)
        bad, cleared = _condition_screen(jtj, det)
        c11 = s00 * s22 - s02 * s02
        c22 = s00 * s11 - s01 * s01
        c12 = s01 * s02 - s00 * s12
        delta = np.stack(
            [
                (c00 * g0 + c01 * g1 + c02 * g2) / det,
                (c01 * g0 + c11 * g1 + c12 * g2) / det,
                (c02 * g0 + c12 * g1 + c22 * g2) / det,
            ],
            axis=1,
        )
    lapack = np.flatnonzero(~bad & ~cleared)
    if lapack.size:
        delta[lapack] = np.linalg.solve(jtj[lapack], sums[6:, lapack].T[..., None])[..., 0]
    return delta, bad


def _weighted_sse(
    t: np.ndarray,
    q: np.ndarray,
    rtt: np.ndarray,
    depth: np.ndarray,
    sigma2: np.ndarray,
    w_depth: float,
) -> np.ndarray:
    """Frozen-weight cost of candidates q (..., 3) with travel times t (..., N)."""
    # sigma2 is frozen at the iterate that produced the step, so the line
    # search descends a fixed objective; re-deriving weights from the
    # candidate would let a good step raise the cost and stall the solver.
    r = rtt - t
    r *= r
    r /= sigma2
    sse = np.sum(r, axis=-1)
    return sse + w_depth * (depth - q[..., 2]) ** 2


def _estimate_batch(
    rtt: np.ndarray,
    depth: np.ndarray,
    p_b: np.ndarray,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    config: EstimatorConfig,
    q0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run every sample's Gauss-Newton iteration in lockstep from q0.

    ``p_b`` is the (batch, N, 3) anchor stack, or the (N, 3) layout every
    sample shares, and ``q0`` the (batch, 3) starting points.  Returns
    (q, iterations, converged, singular).  A sample leaves the active set
    when it converges, diverges, or hits a singular normal matrix;
    finished samples are frozen while the rest continue.

    The travel times and Jacobian rows at every sample's current point
    are kept alongside it: the kernel runs once on the starting points,
    and afterwards only on line-search candidates, whose output becomes
    the next iterate's when the candidate is accepted.
    """
    batch, n = rtt.shape
    shared = p_b.ndim == 2
    span = np.linalg.norm(p_b.max(axis=-2) - p_b.min(axis=-2), axis=-1)
    max_step = np.broadcast_to(DIVERGENCE_SPAN_FACTOR * span, (batch,))
    w_depth = 1.0 / DEPTH_NOISE_VAR
    sw = math.sqrt(w_depth)

    q = np.array(q0, dtype=float)
    t_q, rows_q = _time_and_rows(q, p_b, ssp)
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    singular = np.zeros(batch, dtype=bool)
    active = np.ones(batch, dtype=bool)
    gamma = np.ones(batch)
    prev_step = np.zeros((batch, 3))

    for _ in range(config.max_iterations):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        qa = q[idx]
        sigma2 = _sigma2(qa, p_b if shared else p_b[idx], noise)
        sigma = np.sqrt(sigma2)
        # whitened timing rows with the sample index last, (N, 3, active),
        # and the N timing residuals followed by the depth residual
        design = np.empty((n, 3, len(idx)))
        resid = np.empty((len(idx), n + 1))
        # per timing row: the 00, 11, 22, 01, 12 and 02 terms of J^T W J,
        # then those of J^T W r
        prod = np.empty((n, 9, len(idx)))
        # an overflowed variance gives NaN residuals, screened out as singular
        with np.errstate(invalid="ignore", over="ignore"):
            np.divide(rows_q[idx].transpose(1, 2, 0), sigma.T[:, None], out=design)
            np.divide(rtt[idx] - t_q[idx], sigma, out=resid[:, :n])
            resid[:, n] = sw * (depth[idx] - qa[:, 2])
            cur_sse = np.sum(resid**2, axis=1)
            np.multiply(design, design, out=prod[:, :3])
            np.multiply(design[:, :2], design[:, 1:], out=prod[:, 3:5])
            np.multiply(design[:, 0], design[:, 2], out=prod[:, 5])
            np.multiply(design, resid[:, :n].T[:, None], out=prod[:, 6:])
            # summed from zero over the timing rows in order, then the
            # depth pseudo-row (0, 0, sw): the order of one sum over all
            # N + 1 rows, so the depth row is never built
            acc = np.zeros((9, len(idx)))
            for row in prod:
                acc += row
            acc[2] += sw * sw
            acc[8] += sw * resid[:, n]
        delta, bad = _normal_steps(acc)
        if bad.any():
            singular[idx[bad]] = True
            active[idx[bad]] = False
        # positions in idx of the samples that take a step
        pos = np.flatnonzero(~bad)
        if not pos.size:
            continue
        sub = idx[pos]
        delta = delta[pos]
        iterations[sub] += 1

        # Newton decrement delta . J^T W r, the cost decrease the undamped
        # step predicts: below DECREMENT_TOL the sample takes that step
        # and is done
        final = np.sum(delta * acc[6:, pos].T, axis=1) < DECREMENT_TOL
        if final.any():
            fin = sub[final]
            q[fin] += delta[final]
            converged[fin] = True
            active[fin] = False
            rest = ~final
            pos, sub, delta = pos[rest], sub[rest], delta[rest]
            if not pos.size:
                continue

        reversed_dir = np.einsum("bi,bi->b", prev_step[sub], delta) < 0.0
        g = gamma[sub]
        g = np.where(reversed_dir, np.maximum(g * 0.5, DAMPING_FLOOR), np.minimum(g * 2.0, 1.0))
        gamma[sub] = g
        delta *= g[:, None]
        step_norm = np.linalg.norm(delta, axis=1)
        runaway = step_norm > max_step[sub]
        if runaway.any():
            active[sub[runaway]] = False
        keep = ~runaway
        if not keep.any():
            continue
        pos = pos[keep]
        sub = sub[keep]
        delta = delta[keep]
        step_norm = step_norm[keep]
        frozen_s2 = sigma2[pos]
        ref_sse = cur_sse[pos]
        limit = ref_sse + SSE_SLACK * (1.0 + ref_sse)

        # backtracking: take the first of the steps 1, 1/2, ... 1/2**14
        # whose frozen-weight cost does not worsen; after the full step,
        # each group of halved steps costs one kernel call over the
        # samples it still has to place
        q0 = q[sub]
        p_s = p_b if shared else p_b[sub]
        cand = q0 + delta
        t_c, rows_c = _time_and_rows(cand, p_s, ssp)
        accepted = _weighted_sse(t_c, cand, rtt[sub], depth[sub], frozen_s2, w_depth) <= limit
        hit = sub[accepted]
        q[hit], t_q[hit], rows_q[hit] = cand[accepted], t_c[accepted], rows_c[accepted]
        scale = np.ones(len(sub))
        rest = np.flatnonzero(~accepted)
        for scales in _HALVING_SCALES:
            if not rest.size:
                break
            cand = q0[rest, None] + scales[:, None] * delta[rest, None]
            t_c, rows_c = _time_and_rows(cand, p_s if shared else p_s[rest, None], ssp)
            rs = sub[rest]
            ok = _weighted_sse(
                t_c, cand, rtt[rs, None], depth[rs, None], frozen_s2[rest, None], w_depth
            ) <= limit[rest, None]
            found = ok.any(axis=1)
            first = ok[found].argmax(axis=1)
            pick = (np.flatnonzero(found), first)
            hit = rs[found]
            q[hit], t_q[hit], rows_q[hit] = cand[pick], t_c[pick], rows_c[pick]
            placed = rest[found]
            scale[placed] = scales[first]
            accepted[placed] = True
            rest = rest[~found]

        if accepted.any():
            ms = sub[accepted]
            prev_step[ms] = scale[accepted, None] * delta[accepted]
            done = scale[accepted] * step_norm[accepted] <= config.position_tolerance
            converged[ms[done]] = True
            active[ms[done]] = False
        if rest.size:
            # no decrease at float resolution: accept the point as final
            ss = sub[rest]
            converged[ss] = step_norm[rest] <= config.position_tolerance
            active[ss] = False

    return q, iterations, converged, singular


def estimate_trials(
    rtt: np.ndarray,
    depth: np.ndarray,
    anchor_stack: np.ndarray,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    config: EstimatorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array-in, array-out batch solve for Monte-Carlo harnesses.

    rtt is (trials, N), depth (trials,), anchor_stack (N, 3) shared or
    (trials, N, 3) per trial.  Returns (q_hat, iterations, converged,
    singular); singular trials are non-converged rather than raised.
    """
    rtt = np.asarray(rtt, dtype=float)
    depth = np.asarray(depth, dtype=float)
    p_b = np.asarray(anchor_stack, dtype=float)
    batch, n = rtt.shape
    if n < 4:
        raise TooFewAnchors(f"need at least 4 anchors, got {n}")
    if p_b.shape not in ((n, 3), (batch, n, 3)):
        raise ValueError("anchor stack shape does not match the samples")
    q0 = np.empty((batch, 3))
    q0[:, :2] = p_b[..., :2].mean(axis=-2)
    q0[:, 2] = depth
    q, iters, conv, singular = _estimate_batch(
        rtt, depth, p_b, ssp, noise, config or EstimatorConfig(), q0
    )
    return q, iters, conv & ~singular, singular
