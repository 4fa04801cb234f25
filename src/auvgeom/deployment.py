"""Anchor layout generation and radius-scale optimization.

The uniform sea-surface circumference (USC) layout places N anchors
equally spaced on a surface circle of radius d = k*z centered above the
AUV at depth z.  That symmetry diagonalizes the Fisher matrix, and the
trace of the CRLB collapses to a univariate function of the scale k:

    tr(CRLB)(k) = A * (1/k^2 + (Z + z)^2 / (4 (Z - k^2 z)^2)),
    A = a^2 sigma^2 (1 + k^2) (k^2 z^2 + Z^2) / N,    Z = 2b/a + z,

with both terms exactly proportional to 1/N.  ``optimize_k`` minimizes
this by plain gradient descent with a finite-difference gradient and
backtracking on the step, on an objective built once per search with
its k-free terms worked out; ``grid_search_k`` is its independent oracle.
The grid is evaluated in one numpy pass: slant range for every k, then
the variances, then the same closed form the scalar objective uses.  Its
values match the scalar objective's to a few ulp (numpy squares where
Python calls pow), and the grid refuses to return an argmin when any
value is not finite and positive.
Cube and random baselines used in the accuracy comparisons live here
too.

Default baseline parameters: the comparison literature does not publish
its cube and random box settings, so this module picks a cube of side
equal to the AUV depth whose center is offset horizontally by 2.1 times
the depth, and a random box filling the same region.  Under those
defaults the Monte-Carlo RMSE reductions land in the bands reported for
the reference comparison; both are plain arguments, not hard-wired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAfterRetries,
    NonPositiveK,
    TooFewAnchors,
    UnsupportedCount,
)
from .fisher import KIND_CONSTANT, NoiseModel, _variance_at, noise_variance
from .geometry import Position, SoundSpeedProfile

# Cube/random-box defaults relative to the AUV depth (see module docstring).
BASELINE_SIDE_DEPTH_RATIO = 1.0
BASELINE_OFFSET_DEPTH_RATIO = 2.1


@dataclass(frozen=True)
class OptimizerConfig:
    """Gradient-descent settings for the radius-scale search.

    fd_step_h is relative to the current iterate; precision_eps applies
    to the gradient of the objective normalized by its value at the
    initial iterate, so the default threshold is scale-free.
    """

    initial_k: float = 1.0
    step_size_t: float = 0.1
    precision_eps: float = 1e-6
    max_iterations_Nmax: int = 200
    fd_step_h: float = 1e-5

    def __post_init__(self) -> None:
        # one message per field, each check written so that NaN fails it
        nmax = self.max_iterations_Nmax
        for name, value, ok, rule in (
            ("initial_k", float(self.initial_k), self.initial_k > 0, "be positive"),
            ("step_size_t", float(self.step_size_t), 0 < self.step_size_t < 1, "lie in (0, 1)"),
            ("precision_eps", float(self.precision_eps), self.precision_eps > 0, "be positive"),
            ("max_iterations_Nmax", nmax, nmax >= 1, "be >= 1"),
            ("fd_step_h", float(self.fd_step_h), self.fd_step_h > 0, "be positive"),
        ):
            if not ok:
                raise ValueError(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class KSearchResult:
    k_star: float
    iterations: int
    converged: bool
    objective: float


def usc_positions(auv: Position, n: int, k: float) -> list[Position]:
    """N surface anchors on the circle of radius k*z centered above the AUV.

    Anchor i (1-based) sits at angle 2*pi*i/N.  Requires n >= 4 (raises
    TooFewAnchors), k > 0, and a submerged AUV.
    """
    if n < 4:
        raise TooFewAnchors(f"USC needs at least 4 anchors, got {n}")
    if not k > 0:
        raise ValueError("scale k must be positive")
    if not auv.z > 0:
        raise ValueError("AUV must be submerged (z > 0)")
    d = k * auv.z
    angles = [2.0 * math.pi * i / n for i in range(1, n + 1)]
    return [Position(auv.x + d * math.cos(a), auv.y + d * math.sin(a), 0.0) for a in angles]


def _usc_circles(centers: np.ndarray, n: int, k: float) -> np.ndarray:
    # usc_positions above each row of centers (m, 3), unchecked, as (m, n, 3):
    # the same arithmetic on its unit circle, so equal centers give equal bits
    unit = np.array([(p.x, p.y) for p in usc_positions(Position(0.0, 0.0, 1.0), n, 1.0)])
    out = np.zeros((len(centers), n, 3))
    out[..., :2] = centers[:, None, :2] + (k * centers[:, 2])[:, None, None] * unit
    return out


def _k_objective_fn(z: float, n: int, ssp: SoundSpeedProfile, noise: NoiseModel | float):
    """The radius-scale objective of one USC scene, as (f, trace).

    noise is a NoiseModel or a fixed timing variance in s^2.  f(k) is the
    checked objective; trace(k, sigma2) the unchecked closed form, for
    floats or arrays.  The k-free terms are worked out here once, by the
    same operations, so no bit moves.  An error among them is raised by
    trace, so f raises it after its own checks, as a per-k evaluation did.
    """
    if isinstance(noise, NoiseModel):
        fixed = noise.sigma ** 2 if noise.kind == KIND_CONSTANT else None
    else:
        fixed = noise
    if fixed is not None and not z > 0:  # a varying variance checks z at each k
        raise ValueError("k, z, sigma2 must be positive")
    failure = TooFewAnchors(f"USC needs at least 4 anchors, got {n}") if n < 4 else None
    a = ssp.steepness_a
    big_z = 2.0 * ssp.surface_speed_b / a + z
    try:
        a2, z2, big_z2, zz2 = a ** 2, z ** 2, big_z ** 2, (big_z + z) ** 2
    except OverflowError as e:
        failure = failure or e

    def trace(k, sigma2):
        if failure is not None:
            raise failure
        k2 = k ** 2
        common = a2 * sigma2 * (1.0 + k2) * (k2 * z2 + big_z2) / n
        return common / k2 + common * zz2 / (4.0 * (big_z - k2 * z) ** 2)

    def f(k: float) -> float:
        sigma2 = fixed if fixed is not None else noise_variance(noise, z * math.sqrt(1.0 + k * k))
        if not (k > 0 and sigma2 > 0):
            raise ValueError("k, z, sigma2 must be positive")
        return trace(k, sigma2)

    return f, trace


def usc_trace_crlb_closed_form(
    k: float, z: float, n: int, ssp: SoundSpeedProfile, sigma2: float
) -> float:
    """Closed-form tr(CRLB) of a USC layout with equal timing variance.

    Exact under the layout symmetry; cross-checked against the generic
    Fisher-matrix route in the test suite.  Both terms scale as 1/N, so
    the optimal k does not depend on the anchor count.
    """
    return _k_objective_fn(z, n, ssp, sigma2)[0](k)


def k_objective(
    k: float, z: float, n: int, ssp: SoundSpeedProfile, noise: NoiseModel
) -> float:
    """tr(CRLB)(k) with the noise variance re-evaluated at each k."""
    return _k_objective_fn(z, n, ssp, noise)[0](k)


def _k_objective_grid(
    k: np.ndarray, z: float, n: int, ssp: SoundSpeedProfile, noise: NoiseModel
) -> np.ndarray:
    """k_objective at every scale in k, in one numpy pass and unchecked.

    The variance at each slant range, then the scene's closed form;
    overflow gives inf or NaN, not a warning.
    """
    with np.errstate(all="ignore"):
        r = z * np.sqrt(1.0 + k * k)
        return _k_objective_fn(z, n, ssp, noise)[1](k, _variance_at(noise, r))


def _objective_error(k: float, value: float) -> ValueError:
    return ValueError(f"objective tr(CRLB)(k) is {value!r} at k={k!r}, not finite and positive")


# overflow, and the log of a distance that underflows over l0, are
# silenced once per search: an errstate inside every objective
# evaluation made the search about 50% slower
@np.errstate(over="ignore", divide="ignore")
def optimize_k(
    z: float,
    n: int,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    config: OptimizerConfig | None = None,
) -> KSearchResult:
    """Gradient descent on the radius-scale objective.

    Central finite-difference gradient with relative step fd_step_h;
    update k <- k - t * grad with the step halved while the objective
    would increase or the iterate would leave k > 0.  Stops when the
    normalized-gradient magnitude drops to precision_eps; returns
    converged=False when the iteration budget runs out first.  Raises
    ValueError when the objective at initial_k is not finite and
    positive, and NonPositiveK only if no halving keeps the iterate
    positive.
    """
    cfg = config or OptimizerConfig()
    f, _ = _k_objective_fn(z, n, ssp, noise)
    k = cfg.initial_k
    f0 = f(k)
    if not (math.isfinite(f0) and f0 > 0):
        raise _objective_error(k, f0)
    f_k = 1.0
    for iterations in range(1, cfg.max_iterations_Nmax + 1):
        h = cfg.fd_step_h * k
        grad = (f(k + h) / f0 - f(k - h) / f0) / (2.0 * h)
        if abs(grad) <= cfg.precision_eps:
            break
        step = cfg.step_size_t
        for _ in range(60):
            k_new = k - step * grad
            if k_new > 0 and (f_new := f(k_new) / f0) <= f_k:
                break
            step *= 0.5
        else:
            if k - step * grad <= 0:
                raise NonPositiveK("cannot keep the iterate positive")
            break  # no descent at float resolution; treat as stationary
        k, f_k = k_new, f_new
    return KSearchResult(k, iterations, abs(grad) <= cfg.precision_eps, f_k * f0)


def grid_search_k(
    z: float,
    n: int,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    k_min: float = 0.1,
    k_max: float = 3.0,
    steps: int = 2000,
) -> float:
    """Argmin of the radius-scale objective over a uniform grid.

    Raises ValueError, naming the first k, when the objective there is
    not finite and positive.
    """
    if not 0 < k_min < k_max:
        raise ValueError("need 0 < k_min < k_max")
    if steps < 100:
        raise ValueError("need at least 100 grid steps")
    if not z > 0:
        raise ValueError("z must be positive")
    if n < 4:
        raise TooFewAnchors(f"USC needs at least 4 anchors, got {n}")
    grid = np.linspace(k_min, k_max, steps + 1)
    values = _k_objective_grid(grid, z, n, ssp, noise)
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        i = int(bad[0])
        raise _objective_error(float(grid[i]), float(values[i]))
    return float(grid[int(np.argmin(values))])


# Cube vertex order: corners cycle (+,+), (-,+), (-,-), (+,-) with depths
# alternating top, bottom, top, bottom; anchors 5..8 repeat the corners at
# the complementary depths.  Any prefix of length >= 4 spans 3-D.
_CUBE_CORNERS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def cube_positions(center: Position, side: float, n: int) -> list[Position]:
    """First n vertices of a cube with its top face at the surface.

    The cube is centered horizontally on ``center`` (its depth coordinate
    is ignored) and spans depths [0, side].  Supports n in {4..8} with a
    fixed alternating top/bottom vertex order.
    """
    if n > 8:
        raise UnsupportedCount(f"a cube has 8 vertices, got n={n}")
    if n < 4:
        raise TooFewAnchors(f"need at least 4 anchors, got {n}")
    if not side > 0:
        raise ValueError("side must be positive")
    half = side / 2.0
    out = []
    for idx in range(n):
        sx, sy = _CUBE_CORNERS[idx % 4]
        top = (idx % 2 == 0) if idx < 4 else (idx % 2 == 1)
        out.append(
            Position(center.x + sx * half, center.y + sy * half, 0.0 if top else side)
        )
    return out


def default_cube_for(auv: Position) -> tuple[Position, float]:
    """Default comparison cube for a scene: (center, side).

    Side equals the AUV depth; the center is offset along +x by 2.1
    times the depth.
    """
    side = BASELINE_SIDE_DEPTH_RATIO * auv.z
    center = Position(auv.x + BASELINE_OFFSET_DEPTH_RATIO * auv.z, auv.y, side / 2.0)
    return center, side


def default_box_for(auv: Position) -> tuple[tuple[float, float], ...]:
    """Default random-deployment box: the default cube's bounding region."""
    center, side = default_cube_for(auv)
    half = side / 2.0
    return (
        (center.x - half, center.x + half),
        (center.y - half, center.y + half),
        (0.0, side),
    )


def _degenerate(points: np.ndarray) -> np.ndarray:
    # per layout (..., n, 3): a coincident pair, or all anchors on one vertical
    # plane (horizontally collinear), Fisher-singular for AUVs in that plane.
    # A pair closer than 1e-18 m^2 is closer than 1e-9 m in x, so only pairs
    # within 2e-9 m of each other in x order are measured, in O(n) memory.
    # Coordinates near the largest double overflow to inf or NaN, and the
    # layout is judged on those without a warning
    n = points.shape[-2]
    with np.errstate(all="ignore"):
        s = np.take_along_axis(points, points[..., :1].argsort(axis=-2), axis=-2)
        close = np.zeros(points.shape[:-2], dtype=bool)
        for k in range(1, n):
            diff = s[..., k:, :] - s[..., :-k, :]
            near = diff[..., 0] < 2e-9
            if not near.any():
                break
            close |= (near & ((diff * diff).sum(axis=-1) < 1e-18)).any(axis=-1)
        xy = points[..., :2] - points[..., :2].mean(axis=-2, keepdims=True)
        sv = np.linalg.svd(xy, compute_uv=False)
    return close | (sv[..., -1] < 1e-9 * (1.0 + sv[..., 0]))


def random_layouts(
    box: tuple[tuple[float, float], ...], n: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """size layouts (size, n, 3) of n anchors drawn i.i.d. uniform from a box.

    box is ((xmin, xmax), (ymin, ymax), (zmin, zmax)) with zmin >= 0.  A
    round draws every x, then every y, then every z.  Degenerate layouts
    (a coincident pair, or all anchors in one vertical plane) are redrawn
    from rng for up to 100 rounds, then DegenerateAfterRetries is raised.
    """
    if n < 4:
        raise TooFewAnchors(f"need at least 4 anchors, got {n}")
    (x0, x1), (y0, y1), (z0, z1) = box
    if not (x0 <= x1 and y0 <= y1 and 0.0 <= z0 <= z1):
        raise ValueError("box must have ordered bounds and depths >= 0")
    out = np.empty((size, n, 3))
    todo = np.arange(size)
    for _ in range(100):
        out[todo] = np.stack([rng.uniform(lo, hi, (len(todo), n)) for lo, hi in box], axis=-1)
        todo = todo[_degenerate(out[todo])]
        if not todo.size:
            return out
    raise DegenerateAfterRetries(f"{todo.size} random layouts still degenerate after 100 draws")


def random_positions(
    box: tuple[tuple[float, float], ...], n: int, seed: int | np.random.Generator
) -> list[Position]:
    """One random_layouts layout as Positions; ``seed`` may be a Generator."""
    pts = random_layouts(box, n, np.random.default_rng(seed), 1)[0]
    return [Position(*row) for row in pts.tolist()]
