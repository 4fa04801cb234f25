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
tuple of candidate scales: the full step is the first group, and the
halved steps 1/2 .. 1/2**14 follow in groups of 1, 2, 4 and 7 scales.
Each group is one broadcast kernel call over the samples still rejected,
and a sample takes the first scale that passes.  The ray kernel's
travel times and Jacobian rows at an accepted candidate become the next
iterate's, so the kernel runs once on the starting points and then only
on candidates.  A normal matrix counts as singular under the same
screened cond > 1e12 test that ``fim`` applies to the Fisher matrix.

A sample stops in one of two places.  The first comes before the line
search: its normal matrix is singular; or the Newton decrement of its
undamped step, delta . J^T W r, the whitened-cost decrease that step
predicts, falls below DECREMENT_TOL, and it takes that step and is
done; or its damped step runs away past DIVERGENCE_SPAN_FACTOR anchor
spans.  The final step is taken because the iterate that passed the
decrement test still sits up to one step from the solution: stopping
without it leaves noiseless solves millimetres from the truth.  The
second comes after the line search: the accepted step is no longer
than ``position_tolerance``, or the line search rejected every scale.

A sample iterates at most ``max_iterations`` times, counted from when
it enters the active set.  Without a window every sample enters at the
start.  With ``window`` w, at most w samples are active at once: the
first w enter at the start, and each iteration admits waiting samples
in input order until w are active again.  A sample's trajectory depends
only on its own inputs, so the window moves no output bit; it lets a
caller put several Monte-Carlo cells through one call, whose long tails
of a few slow samples then share one loop, while the per-iteration
arrays stay one cell in size.  The kernel first sees a sample when it
is admitted, so no array outgrows the window.

The cells of one call may differ in anchor count: each is a block of
samples.  The active samples sit in window arrays padded to the widest
count among them, ordered by count and then by input order, so each
count is one contiguous run.  A padded slot repeats the sample's last
anchor, so the kernel and the noise model see only pairs they already
see.  Padding moves no output bit.  Padded rows enter the normal sums
as exact zeros, set rather than multiplied because a pair may be NaN,
and x + 0.0 == x.  The two sums along the anchors are another matter:
numpy adds fewer than 8 terms in order and 8 or more pairwise, so a
padded term would move their rounding.  Those two, the whitened cost
(N timing terms, then the depth term) and the line search's
frozen-weight cost (N terms), run once per count over exactly the
sample's own columns.  The start point and the runaway span come from
the sample's own anchors, and the kernel and ``_sigma2`` work pair by
pair.

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
to the bit without ever building the augmented matrix.  A lone block
whose layout every sample shares stays one (N, 3) array throughout,
with no padding: the kernel and the noise model broadcast it against
the samples' points instead of copying it per sample.
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


def _runs(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """(lo, hi, n) of each run of equal anchor counts n in sorted counts."""
    if counts[0] == counts[-1]:
        return [(0, len(counts), int(counts[0]))]
    bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
    return [(lo, hi, int(counts[lo])) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _own_sums(x: np.ndarray, runs: list[tuple[int, int, int]]) -> np.ndarray:
    """Sums of x (batch, ..., width) over its last axis, each run of
    samples over its first n columns only.

    numpy adds fewer than 8 terms in order and 8 or more pairwise, so a
    padded column, even an exact zero, could move a sum's rounding.
    """
    out = np.empty(x.shape[:-1])
    for lo, hi, n in runs:
        np.sum(x[lo:hi, ..., :n], axis=-1, out=out[lo:hi])
    return out


def _normal_sums(
    rows: np.ndarray,
    t: np.ndarray,
    rtt: np.ndarray,
    depth: np.ndarray,
    q: np.ndarray,
    sigma2: np.ndarray,
    sw: float,
    runs: list[tuple[int, int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """The nine normal sums (9, batch) and the whitened cost (batch,) at q.

    rows (batch, width, 3) and t (batch, width) are the kernel's Jacobian
    rows and travel times at q, sigma2 (batch, width) the timing variances
    there and sw the depth row's weight.  Each run (lo, hi, n) of samples
    has n anchors: its columns past n are padding and add nothing.  The
    sums are ``_normal_steps``' input.  Its per-row products, the largest
    arrays of an iteration, are freed on return, before the line search
    allocates its candidates.
    """
    batch, width = t.shape
    sigma = np.sqrt(sigma2)
    # whitened timing rows with the sample index last, (width, 3, batch),
    # and the timing residuals; a run's depth residual follows its own n
    design = np.empty((width, 3, batch))
    resid = np.empty((batch, width + 1))
    # per timing row: the 00, 11, 22, 01, 12 and 02 terms of J^T W J,
    # then those of J^T W r
    prod = np.empty((width, 9, batch))
    # an overflowed variance gives NaN residuals, screened out as singular
    with np.errstate(invalid="ignore", over="ignore"):
        np.divide(rows.transpose(1, 2, 0), sigma.T[:, None], out=design)
        np.divide(rtt - t, sigma, out=resid[:, :width])
        np.multiply(design, design, out=prod[:, :3])
        np.multiply(design[:, :2], design[:, 1:], out=prod[:, 3:5])
        np.multiply(design[:, 0], design[:, 2], out=prod[:, 5])
        np.multiply(design, resid[:, :width].T[:, None], out=prod[:, 6:])
        depth_resid = sw * (depth - q[:, 2])
        for lo, hi, n in runs:
            # padded rows are set, not scaled, to zero: a pair may be NaN
            prod[n:, :, lo:hi] = 0.0
            resid[lo:hi, n] = depth_resid[lo:hi]
        cur_sse = _own_sums(resid**2, [(lo, hi, n + 1) for lo, hi, n in runs])
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
    runs: list[tuple[int, int, int]],
) -> np.ndarray:
    """Frozen-weight cost of candidates q (batch, ..., 3) with travel times
    t (batch, ..., width), each run (lo, hi, n) of samples over its n anchors."""
    # sigma2 is frozen at the iterate that produced the step, so the line
    # search descends a fixed objective; re-deriving weights from the
    # candidate would let a good step raise the cost and stall the solver.
    r = rtt - t
    r *= r
    r /= sigma2
    return _own_sums(r, runs) + w_depth * (depth - q[..., 2]) ** 2


# one block of samples: travel times (T, N), depth readings (T,) and the
# anchors, (N, 3) shared by the block or (T, N, 3) per sample
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


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
    blocks: list[_Block], starts: np.ndarray, lo: int, hi: int, width: int, anchors: bool
) -> dict[str, np.ndarray]:
    """Window arrays of samples lo..hi-1: their indices, anchor counts and
    travel times, then their anchors when ``anchors`` is true.

    Each sample's travel times and anchors are padded to width columns
    with copies of its last anchor's, so every padded pair is one that
    the kernel and the noise model already see.
    """
    parts = []
    for (r, _, p), s in zip(blocks, starts):
        a, b = max(lo - s, 0), min(hi - s, len(r))
        if a < b:
            parts.append((r[a:b], np.broadcast_to(p, (len(r), *p.shape[-2:]))[a:b]))
    new = {
        "ids": np.arange(lo, hi),
        "counts": np.concatenate([np.full(len(r), r.shape[1]) for r, _ in parts]),
        "rtt": np.concatenate([_pad(r, width) for r, _ in parts]),
    }
    if anchors:
        new["p"] = np.concatenate([_pad(p, width) for _, p in parts])
    return new


def _estimate_batch(
    rtt,
    depth,
    anchors,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    config: EstimatorConfig,
    q0: np.ndarray,
    *,
    window: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run every sample's Gauss-Newton iteration in lockstep from q0.

    rtt, depth and anchors are one block of samples or lists of blocks,
    as ``estimate_trials`` takes them, and ``q0`` the (batch, 3) starting
    points of every block's samples in order.  Returns (q, iterations,
    converged, singular).  A sample leaves the active set at one of the
    two exits the module docstring names, or after
    ``config.max_iterations`` iterations of its own; finished samples are
    frozen while the rest continue.  At most ``window`` samples (None:
    all of them) are active at once, the rest admitted in input order as
    others leave.

    The active samples' travel times, anchors, and the travel times and
    Jacobian rows at their current points are kept in window arrays
    ordered by anchor count.  The kernel runs on a sample's starting
    point when it is admitted, and afterwards only on line-search
    candidates, whose output becomes the next iterate's when the
    candidate is accepted.
    """
    blocks = _blocks(rtt, depth, anchors)
    starts = np.cumsum([0] + [len(r) for r, _, _ in blocks])
    batch = int(starts[-1])
    widest = max(r.shape[1] for r, _, _ in blocks)
    # a lone block's (N, 3) layout is never copied per sample
    layout = blocks[0][2] if len(blocks) == 1 and blocks[0][2].ndim == 2 else None
    depth = np.concatenate([d for _, d, _ in blocks])
    max_step = np.concatenate([
        np.broadcast_to(
            DIVERGENCE_SPAN_FACTOR
            * np.linalg.norm(p.max(axis=-2) - p.min(axis=-2), axis=-1),
            len(r),
        )
        for r, _, p in blocks
    ])
    w_depth = 1.0 / DEPTH_NOISE_VAR
    sw = math.sqrt(w_depth)

    q = np.array(q0, dtype=float)
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    singular = np.zeros(batch, dtype=bool)
    gamma = np.ones(batch)
    prev_step = np.zeros((batch, 3))
    window = batch if window is None else window
    admitted = 0
    # the active samples, by anchor count and then in input order: their
    # indices and counts, then their travel times, the anchors, and the
    # kernel's travel times and rows at their points, padded to widest
    win = {
        "ids": np.zeros(0, dtype=int),
        "counts": np.zeros(0, dtype=int),
        "rtt": np.empty((0, widest)),
        "t": np.empty((0, widest)),
        "rows": np.empty((0, widest, 3)),
    }
    if layout is None:
        win["p"] = np.empty((0, widest, 3))

    while True:
        # refill the active set up to the window, in input order, and
        # keep it ordered by anchor count, so that each count is one run
        fill = min(window - len(win["ids"]), batch - admitted)
        if fill:
            new = _admit(blocks, starts, admitted, admitted + fill, widest, layout is None)
            w = new["counts"].max()
            t_new, rows_new = _time_and_rows(
                q[admitted : admitted + fill], new["p"][:, :w] if layout is None else layout, ssp
            )
            new["t"], new["rows"] = _pad(t_new, widest), _pad(rows_new, widest)
            win = {k: np.concatenate((v, new[k])) for k, v in win.items()}
            admitted += fill
            if (np.diff(win["counts"]) < 0).any():
                order = np.argsort(win["counts"], kind="stable")
                win = {k: v[order] for k, v in win.items()}
        ids, counts = win["ids"], win["counts"]
        if not ids.size:
            break
        width = counts[-1]
        qa = q[ids]
        sigma2 = _sigma2(qa, win["p"][:, :width] if layout is None else layout, noise)
        acc, cur_sse = _normal_sums(
            win["rows"][:, :width], win["t"][:, :width], win["rtt"][:, :width], depth[ids], qa,
            sigma2, sw, _runs(counts),
        )
        delta, bad = _normal_steps(acc)
        # window positions of the samples that take a step; a singular
        # sample's step is garbage and goes no further
        pos = np.flatnonzero(~bad)
        sub, delta = ids[pos], delta[pos]
        iterations[sub] += 1
        # Newton decrement delta . J^T W r, the cost decrease the undamped
        # step predicts: below DECREMENT_TOL the sample takes that step
        # and is done
        final = np.sum(delta * acc[6:, pos].T, axis=1) < DECREMENT_TOL
        q[sub[final]] += delta[final]
        # damping and the runaway test see the final samples too; they
        # leave at the first exit, and their gamma is never read again
        reversed_dir = np.einsum("bi,bi->b", prev_step[sub], delta) < 0.0
        g = gamma[sub]
        g = np.where(reversed_dir, np.maximum(g * 0.5, DAMPING_FLOOR), np.minimum(g * 2.0, 1.0))
        gamma[sub] = g
        delta *= g[:, None]
        step_norm = np.linalg.norm(delta, axis=1)
        # first exit: the singular, decrement-final and runaway samples
        leave = final | (step_norm > max_step[sub])
        singular[ids[bad]] = True
        converged[sub[final]] = True
        keep = ~leave
        pos, sub, delta, step_norm = pos[keep], sub[keep], delta[keep], step_norm[keep]
        frozen_s2 = sigma2[pos]
        ref_sse = cur_sse[pos]
        limit = ref_sse + SSE_SLACK * (1.0 + ref_sse)

        # backtracking: take the first scale of _STEP_SCALES whose
        # frozen-weight cost does not worsen, one kernel call per group
        # over the samples it still has to place, padded to the widest
        # of them; scale 0 marks a sample that every scale failed
        base = q[sub]
        scale = np.zeros(len(sub))
        rest = np.arange(len(sub))
        for scales in _STEP_SCALES:
            if not rest.size:
                break
            at = pos[rest]
            n_at = counts[at]
            w = n_at[-1]
            cand = base[rest, None] + scales[:, None] * delta[rest, None]
            p_c = win["p"][at, None, :w] if layout is None else layout
            t_c, rows_c = _time_and_rows(cand, p_c, ssp)
            rs = sub[rest]
            ok = _weighted_sse(
                t_c, cand, win["rtt"][at, None, :w], depth[rs, None], frozen_s2[rest, None, :w],
                w_depth, _runs(n_at),
            ) <= limit[rest, None]
            found = ok.any(axis=1)
            first = ok[found].argmax(axis=1)
            pick = (np.flatnonzero(found), first)
            hit = at[found]
            q[rs[found]] = cand[pick]
            win["t"][hit, :w], win["rows"][hit, :w] = t_c[pick], rows_c[pick]
            scale[rest[found]] = scales[first]
            rest = rest[~found]
        prev_step[sub] = scale[:, None] * delta

        # second exit: an accepted step no longer than position_tolerance,
        # or no decrease at float resolution (scale 0), which counts as
        # converged only if the damped step itself was that short; a
        # sample still going leaves unconverged at its iteration cap
        stalled = scale == 0
        stop = stalled | (scale * step_norm <= config.position_tolerance)
        converged[sub[stop]] = ~stalled[stop] | (step_norm[stop] <= config.position_tolerance)
        stay = pos[~stop & (iterations[sub] < config.max_iterations)]
        if len(stay) < len(ids):
            win = {k: v[stay] for k, v in win.items()}

    return q, iterations, converged, singular


def estimate_trials(
    rtt,
    depth,
    anchor_stack,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    config: EstimatorConfig | None = None,
    *,
    window: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array-in, array-out batch solve for Monte-Carlo harnesses.

    One block of trials is rtt (trials, N), depth (trials,) and
    anchor_stack (N, 3) shared or (trials, N, 3) per trial.  Several
    blocks, each with its own N, go through one call as three
    equal-length lists.  Returns (q_hat, iterations, converged, singular)
    over every block's trials in order; singular trials are non-converged
    rather than raised.  window, when given, caps how many trials iterate
    at once; it bounds the working memory of a long batch and moves no
    output bit.
    """
    blocks = _blocks(rtt, depth, anchor_stack)
    for r, _, p in blocks:
        batch, n = r.shape
        if n < 4:
            raise TooFewAnchors(f"need at least 4 anchors, got {n}")
        if p.shape not in ((n, 3), (batch, n, 3)):
            raise ValueError("anchor stack shape does not match the samples")
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")
    q0 = np.empty((sum(len(r) for r, _, _ in blocks), 3))
    end = 0
    for r, d, p in blocks:
        start, end = end, end + len(r)
        q0[start:end, :2] = p[..., :2].mean(axis=-2)
        q0[start:end, 2] = d
    q, iters, conv, singular = _estimate_batch(
        rtt, depth, anchor_stack, ssp, noise, config or EstimatorConfig(), q0, window=window
    )
    return q, iters, conv & ~singular, singular
