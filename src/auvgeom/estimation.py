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

Each iteration backtracks on the cost with the weights frozen over one
tuple of candidate scales: the full step, then the halved steps 1/2 ..
1/2**14 in groups of 1, 2, 4 and 7 scales; a sample takes the first
scale that passes.  The full step is one kernel call over the whole
window (below), on its own arrays, and none when no sample steps; a
sample that stopped before it steps by zero, its candidate discarded.
Each halving group is one kernel call over the samples still rejected.
The kernel's travel times and Jacobian rows at an accepted candidate
become the next iterate's, so the kernel runs once on the starting
points and then only on candidates, and the timing variances come from
the slant ranges it returns.  A normal matrix counts as singular under
the cond > 1e12 rule that ``fim`` applies to the Fisher matrix,
screened by ``fisher._condition_screen`` so that most of a stack skips
the eigenvalue solve.

A sample stops in one of two places.  The first comes before the line
search: its normal matrix is singular; or the Newton decrement of its
undamped step, delta . J^T W r, the whitened-cost decrease that step
predicts, falls below DECREMENT_TOL, and it takes that step and is
done.  The final step is taken because the iterate that passed the
decrement test still sits up to one step from the solution: stopping
without it leaves noiseless solves millimetres from the truth.  The
second comes after the line search: the accepted step is no longer
than ``position_tolerance``, or the line search rejected every scale.
A damped step longer than STEP_SPAN_FACTOR anchor spans is clipped to
that length (a trust-region bound, Nocedal & Wright 2006, ch. 4), and
the line search accepts a scale whose cost does not exceed the iterate's.

A sample iterates at most ``max_iterations`` times, counted from when
it enters the window.  The samples come in blocks, one per Monte-Carlo
cell, and at most as many samples as the largest block holds are
active at once: the window.  An active sample lives in one slot of it,
which holds its per-pair arrays (travel times, anchors, and the
kernel's travel times, rows and slant ranges at its point) and its own
state (point, depth reading, step bound, damping factor, previous step
and iteration count); its outputs are written once, when it leaves.
The first window's worth enter at the start.  While samples wait, each
that leaves hands its slot to the next, in order, written in place;
once none waits, the window drops the slots that empty.  A sample's
trajectory depends only on its own inputs, so neither the window nor
its slot moves an output bit; the window lets a caller put several
cells through one call, whose long tails of a few slow samples then
share one loop, while the per-iteration arrays stay one cell in size.

The blocks of one call may differ in anchor count.  ``estimate_trials``
runs them in order of anchor count, stably, and returns its outputs in
the caller's order.  The per-pair arrays are padded to the widest count
admitted so far, a width that only grows; with the blocks sorted, only
the tails of the narrower blocks are ever padded, and per-sample state
never is.  A block's anchors are (N, 3) shared or one layout per
sample; either way each slot holds its own copy.  A padded column
repeats the sample's last anchor, so the kernel and the noise model see
only pairs they already see.  Padding and slot order move no output
bit: padded terms enter every sum as exact zeros, set rather than
multiplied because a pair may be NaN, and x + 0.0 == x; the two sums
along the anchors, the whitened cost (N timing terms, then the depth
term) and the line search's frozen-weight cost (N terms), add in anchor
order.  The start point and the step bound come from the sample's own
anchors, and the kernel and the noise model work pair by pair.

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
to the bit without ever building the augmented matrix.
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
    _time_and_rows,
    _variance_at,
)
from .geometry import SoundSpeedProfile

DEPTH_NOISE_VAR = 1.0  # m^2, depth-sensor error variance

BACKTRACK_LIMIT = 15
STEP_SPAN_FACTOR = 10.0  # a step's bound, in anchor bounding-box diagonals
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


# the line search's candidate steps, one kernel call per group: the full
# step, then the halved steps 1/2 .. 1/2**(BACKTRACK_LIMIT - 1) in groups
# of 1, 2, 4 and 7 scales; ldexp keeps every scale an exact power of two
_STEP_SCALES = tuple(
    np.ldexp(1.0, -np.arange(lo, hi))
    for lo, hi in ((0, 1), (1, 2), (2, 4), (4, 8), (8, BACKTRACK_LIMIT))
)
# J^T W J, row-major, from the 00, 11, 22, 01, 12 and 02 sums that
# _estimate_batch accumulates
_JTJ_ENTRIES = [0, 3, 5, 3, 1, 4, 5, 4, 2]


def _normal_steps(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations given by their nine sums, (9, batch).

    Rows 0-5 are the 00, 11, 22, 01, 12 and 02 entries of J^T W J and
    rows 6-8 are J^T W r.  Returns the steps (batch, 3) and the singular
    mask of ``fisher._condition_screen``; a singular row's step is garbage.
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


def _own_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of x (batch, ..., width) over its last axis in column order,
    sample i over its first counts[i] columns: the rest are set to zero in
    place (a padded pair may be NaN), and x + 0.0 == x for these terms."""
    width = x.shape[-1]
    if counts.min() < width:
        np.copyto(x, 0.0, where=np.arange(width) >= counts.reshape(-1, *(1,) * (x.ndim - 1)))
    out = x[..., 0].copy()
    for j in range(1, width):
        out += x[..., j]
    return out


def _normal_sums(
    rows: np.ndarray,
    t: np.ndarray,
    rtt: np.ndarray,
    depth: np.ndarray,
    q: np.ndarray,
    sigma2: np.ndarray,
    sw: float,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The nine normal sums (9, batch) and the whitened cost (batch,) at q.

    rows (batch, width, 3) and t (batch, width) are the kernel's Jacobian
    rows and travel times at q, sigma2 (batch, width) the timing variances
    there and sw the depth row's weight.  Sample i has counts[i] anchors:
    its columns past that are padding and add nothing.  The sums are
    ``_normal_steps``' input.  Its per-row products, the largest arrays
    of an iteration, are freed on return, before the line search
    allocates its candidates.
    """
    batch, width = t.shape
    sigma = np.sqrt(sigma2)
    # whitened timing rows with the sample index last, (width, 3, batch),
    # and the timing residuals
    design = np.empty((width, 3, batch))
    resid = np.empty((batch, width))
    # per timing row: the 00, 11, 22, 01, 12 and 02 terms of J^T W J,
    # then those of J^T W r
    prod = np.empty((width, 9, batch))
    # an overflowed or underflowed variance gives non-finite sums, screened out as singular
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        np.divide(rows.transpose(1, 2, 0), sigma.T[:, None], out=design)
        np.divide(rtt - t, sigma, out=resid)
        np.multiply(design, design, out=prod[:, :3])
        np.multiply(design[:, :2], design[:, 1:], out=prod[:, 3:5])
        np.multiply(design[:, 0], design[:, 2], out=prod[:, 5])
        np.multiply(design, resid.T[:, None], out=prod[:, 6:])
        if counts.min() < width:
            # padded rows are set, not scaled, to zero: a pair may be NaN
            np.copyto(prod, 0.0, where=np.arange(width)[:, None, None] >= counts)
        depth_resid = sw * (depth - q[:, 2])
        cur_sse = _own_sums(resid * resid, counts) + depth_resid * depth_resid
        # summed from zero over the timing rows in order, then the depth
        # pseudo-row (0, 0, sw): the order of one sum over all N + 1
        # rows, so the depth row is never built; a zero row adds +0.0,
        # which moves no bit
        acc = np.zeros((9, batch))
        for row in prod:
            acc += row
        acc[2] += sw * sw
        acc[8] += sw * depth_resid
    return acc, cur_sse


def _weighted_sse(
    t: np.ndarray,
    q: np.ndarray,
    rtt: np.ndarray,
    depth: np.ndarray,
    sigma2: np.ndarray,
    w_depth: float,
    counts: np.ndarray,
) -> np.ndarray:
    """Frozen-weight cost of candidates q (batch, ..., 3) with travel times
    t (batch, ..., width), sample i over its counts[i] anchors."""
    # sigma2 is frozen at the iterate that produced the step, so the line
    # search descends a fixed objective; re-deriving weights from the
    # candidate would let a good step raise the cost and stall the solver.
    r = rtt - t
    r *= r
    r /= sigma2
    return _own_sums(r, counts) + w_depth * (depth - q[..., 2]) ** 2


# one block of samples: travel times (T, N), depth readings (T,) and the
# anchors, (N, 3) shared by the block or (T, N, 3) per sample
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]
# the window's per-pair arrays, padded along the anchor axis: travel
# times, anchors, and the kernel's travel times, rows and slant ranges
_PAIRS = ("rtt", "p", "t", "rows", "r")


def _blocks(rtt, depth, anchors) -> list[_Block]:
    """One block's three arrays, or three equal-length lists of them, as blocks."""
    if not isinstance(rtt, (list, tuple)):
        rtt, depth, anchors = [rtt], [depth], [anchors]
    blocks = [
        tuple(np.asarray(x, dtype=float) for x in part)
        for part in zip(rtt, depth, anchors, strict=True)
    ]
    if not blocks:
        raise ValueError("need at least one block of samples")
    return blocks


def _pad(x: np.ndarray, width: int) -> np.ndarray:
    """x (k, n, ...) widened to width columns by repeating its last one."""
    n = x.shape[1]
    return x if n == width else x[:, np.minimum(np.arange(width), n - 1)]


def _admit(
    blocks: list[_Block], starts: np.ndarray, lo: int, hi: int, width: int,
    q0: np.ndarray, ssp: SoundSpeedProfile,
) -> dict:
    """Window slots of samples lo..hi-1, starting at their rows of q0.

    A slot holds the sample's index, anchor count and per-pair arrays,
    the kernel's at its start among them, padded to width columns or to
    the samples' widest count if more by repeating its last anchor, so
    every padded pair is one the kernel already sees.  It also holds the
    sample's state: its point, depth reading and step bound, a damping
    factor of 1, no previous step and no iterations.
    """
    parts = []
    for (r, d, p), s in zip(blocks, starts):
        a, b = max(lo - s, 0), min(hi - s, len(r))
        if a < b:
            parts.append((r[a:b], d[a:b], np.broadcast_to(p, (len(r), *p.shape[-2:]))[a:b]))
    rtt, depth, p = zip(*parts)
    counts = np.concatenate([np.full(len(r), r.shape[1]) for r in rtt])
    w = counts.max()
    width = max(width, w)
    with np.errstate(over="ignore"):
        span = [np.linalg.norm(x.max(axis=-2) - x.min(axis=-2), axis=-1) for x in p]
    new = {
        "ids": np.arange(lo, hi), "counts": counts, "q": q0[lo:hi].copy(),
        "depth": np.concatenate(depth), "max_step": STEP_SPAN_FACTOR * np.concatenate(span),
        "gamma": np.ones(hi - lo), "prev": np.zeros((hi - lo, 3)),
        "iters": np.zeros(hi - lo, dtype=int),
        "rtt": np.concatenate([_pad(r, width) for r in rtt]),
        "p": np.concatenate([_pad(x, width) for x in p]),
    }
    kernel = _time_and_rows(new["q"], new["p"][:, :w], ssp)
    new["t"], new["rows"], new["r"] = (_pad(x, width) for x in kernel)
    return new


def _estimate_batch(
    rtt,
    depth,
    anchors,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    config: EstimatorConfig,
    q0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run every sample's Gauss-Newton iteration in lockstep from q0.

    rtt, depth and anchors are one block of samples or lists of blocks,
    as ``estimate_trials`` takes them, and ``q0`` the (batch, 3) starting
    points of every block's samples in order.  Returns (q, iterations,
    converged, singular), in the same order, each written when its
    sample leaves the window: at one of the two exits the module
    docstring names, or after ``config.max_iterations`` iterations of
    its own; both exits need a regular normal matrix, so the converged
    and singular masks are disjoint.  At most the largest block's worth
    of samples are active at once, one per slot of the window.  Blocks
    given in order of anchor count pad only the narrower blocks' tails;
    any order gives the same output.  The full step's kernel outputs
    become the window's per-pair arrays as they are; a halving group
    gathers the slots of the samples it places and writes only theirs.
    """
    blocks = _blocks(rtt, depth, anchors)
    starts = np.cumsum([0] + [len(r) for r, _, _ in blocks])
    batch = int(starts[-1])
    window = max(len(r) for r, _, _ in blocks)
    w_depth = 1.0 / DEPTH_NOISE_VAR
    sw = math.sqrt(w_depth)

    q0 = np.asarray(q0, dtype=float)
    q = q0.copy()
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    singular = np.zeros(batch, dtype=bool)
    if not batch:
        return q, iterations, converged, singular
    win = _admit(blocks, starts, 0, window, 0, q0, ssp)
    admitted = window

    while win["ids"].size:
        counts, q_w = win["counts"], win["q"]
        with np.errstate(over="ignore"):
            sigma2 = _variance_at(noise, win["r"])
        acc, cur_sse = _normal_sums(
            win["rows"], win["t"], win["rtt"], win["depth"], q_w, sigma2, sw, counts
        )
        delta, bad = _normal_steps(acc)
        go = ~bad
        win["iters"] += go
        # the full step, over the whole window: a singular sample's step is
        # garbage, so it and each decrement-final sample step by zero, and
        # their candidates are discarded
        with np.errstate(all="ignore"):
            # Newton decrement delta . J^T W r, the cost decrease the
            # undamped step predicts: below DECREMENT_TOL the sample takes
            # that step and is done
            final = go & (np.sum(delta * acc[6:].T, axis=1) < DECREMENT_TOL)
            q_w[final] += delta[final]
            go &= ~final
            reversed_dir = np.einsum("bi,bi->b", win["prev"], delta) < 0.0
            g = win["gamma"]
            g = np.where(reversed_dir, np.maximum(g * 0.5, DAMPING_FLOOR), np.minimum(g * 2.0, 1.0))
            win["gamma"] = g
            delta *= g[:, None]
            # the damped step, clipped to max_step; a zero step stays as it is
            step_norm = np.linalg.norm(delta, axis=1)
            clip = np.minimum(1.0, win["max_step"] / step_norm)
            delta *= clip[:, None]
            step_norm *= clip
            delta[~go] = 0.0
            cand, sse = q_w + delta, cur_sse
            if go.any():  # else every sample leaves below, its slot refilled or dropped
                win["t"], win["rows"], win["r"] = _time_and_rows(cand, win["p"], ssp)
                sse = _weighted_sse(
                    win["t"], cand, win["rtt"], win["depth"], sigma2, w_depth, counts
                )
        ok = go & (sse <= cur_sse)
        q_w[ok] = cand[ok]

        # backtracking: the rest take the first halved scale of
        # _STEP_SCALES whose frozen-weight cost does not worsen, one kernel
        # call per group over the samples it still has to place, padded to
        # the widest of them; scale 0 marks a sample that every scale failed
        scale = ok.astype(float)
        rest = np.flatnonzero(go & ~ok)
        for scales in _STEP_SCALES[1:]:
            if not rest.size:
                break
            n_at = counts[rest]
            w = n_at.max()
            cand = q_w[rest, None] + scales[:, None] * delta[rest, None]
            t_c, rows_c, r_c = _time_and_rows(cand, win["p"][rest, None, :w], ssp)
            ok = _weighted_sse(
                t_c, cand, win["rtt"][rest, None, :w], win["depth"][rest, None],
                sigma2[rest, None, :w], w_depth, n_at,
            ) <= cur_sse[rest, None]
            found = ok.any(axis=1)
            first = ok[found].argmax(axis=1)
            pick = (np.flatnonzero(found), first)
            hit = rest[found]
            q_w[hit] = cand[pick]
            for key, x in (("t", t_c), ("rows", rows_c), ("r", r_c)):
                win[key][hit, :w] = x[pick]
            scale[hit] = scales[first]
            rest = rest[~found]
        win["prev"] = scale[:, None] * delta

        # second exit: an accepted step no longer than position_tolerance,
        # or no decrease at float resolution (scale 0), which counts as
        # converged only if the damped step itself was that short; a
        # sample still going leaves unconverged at its iteration cap
        stalled = scale == 0
        stop = go & (stalled | (scale * step_norm <= config.position_tolerance))
        conv = final | (stop & (~stalled | (step_norm <= config.position_tolerance)))
        free = np.flatnonzero(~go | stop | (win["iters"] >= config.max_iterations))
        done = win["ids"][free]
        q[done], iterations[done] = q_w[free], win["iters"][free]
        converged[done], singular[done] = conv[free], bad[free]
        # the leaving samples' slots go to waiting samples, in order, and
        # the window drops those left over once none waits
        fill = min(len(free), batch - admitted)
        if fill:
            new = _admit(blocks, starts, admitted, admitted + fill, win["p"].shape[1], q0, ssp)
            for k in _PAIRS:
                win[k] = _pad(win[k], new["p"].shape[1])
            for k, v in new.items():
                win[k][free[:fill]] = v
            admitted += fill
        if fill < len(free):
            win = {k: np.delete(v, free[fill:], axis=0) for k, v in win.items()}

    return q, iterations, converged, singular


def estimate_trials(
    rtt,
    depth,
    anchor_stack,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    config: EstimatorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array-in, array-out batch solve for Monte-Carlo harnesses.

    One block of trials is rtt (trials, N), depth (trials,) and
    anchor_stack (N, 3) shared or (trials, N, 3) per trial.  Several
    blocks, each with its own N, go through one call as three
    equal-length lists; they run in order of N and at most the largest
    block's worth of trials iterates at once.  Returns (q_hat,
    iterations, converged, singular) over every block's trials in the
    order given.  These name why a trial did not converge, checked in
    this order: singular (reported, never raised); iterations equal to
    ``max_iterations``, the cap; otherwise stalled, the line search
    having rejected every scale.
    """
    blocks = _blocks(rtt, depth, anchor_stack)
    for r, d, p in blocks:
        if r.ndim != 2:
            raise ValueError(f"travel times must be (trials, N), got shape {r.shape}")
        batch, n = r.shape
        if n < 4:
            raise TooFewAnchors(f"need at least 4 anchors, got {n}")
        if p.shape not in ((n, 3), (batch, n, 3)):
            raise ValueError("anchor stack shape does not match the samples")
        if d.shape != (batch,):
            raise ValueError("depth shape does not match the samples")
    # the blocks by anchor count, stably, which keeps the window's padding
    # low, and the input index of each of their samples in that order
    counts = np.concatenate([np.full(len(r), r.shape[1]) for r, _, _ in blocks])
    ids = np.argsort(counts, kind="stable")
    blocks = sorted(blocks, key=lambda b: b[0].shape[1])
    with np.errstate(over="ignore"):
        q0 = np.concatenate([
            np.column_stack((np.broadcast_to(p[..., :2].mean(axis=-2), (len(r), 2)), d))
            for r, d, p in blocks
        ])
    q, iters, conv, singular = _estimate_batch(
        *(list(x) for x in zip(*blocks)), ssp, noise, config or EstimatorConfig(), q0
    )
    back = np.argsort(ids)
    return q[back], iters[back], conv[back], singular[back]
