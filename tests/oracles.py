"""Reference formulas that the vectorized code is checked against.

Apart from ``reference_fim``, they share no code with the batched kernel
``fisher._time_and_rows``, its slant ranges, the noise model's
``fisher._variance_at`` or ``fim``:

- ``snell_travel_time_oracle`` integrates the travel time from Snell's
  law, with no use of the closed form;
- ``log_form_time`` writes the closed form in its ln((1 + sin)/cos) form
  from the per-pair angles;
- ``closed_row``, ``chain_row``, ``anchor_variance`` and ``angle_sum_fim``
  rebuild the Jacobian, the timing variances and the Fisher matrix one
  anchor at a time from the same angles.

The radius-scale grid is evaluated point by point through the scalar
``k_objective``, against the one-pass ``deployment.grid_search_k``.
``reference_k_objective``, ``reference_optimize_k`` and
``reference_grid_formula`` are the radius objective, its search and its
grid as they were written before the scene's k-free terms were hoisted
into ``deployment._k_objective_fn``: every evaluation re-derives the
scene and runs every check.

``reference_degenerate`` is ``deployment._degenerate`` by brute force:
the squared distance of every pair of anchors, one layout at a time.

``reference_fim`` and ``reference_diagonal_lower_bound`` are ``fim`` and
``diagonal_lower_bound`` as they were written before ``fim`` judged its
matrix by its own ``eigvalsh``: the same kernel rows, variances at its
slant ranges and weighted product, refused by the batched ``fisher._condition_screen``,
reduced by numpy, and with numpy's SVD-based ``np.linalg.cond`` as the
condition number.  Bits compare, so they call the kernel themselves.
"""

import math

import numpy as np

from auvgeom.deployment import KSearchResult, k_objective
from auvgeom.errors import (
    DegenerateGeometry,
    NonPositiveK,
    SingularFim,
    TooFewAnchors,
    ZeroDiagonal,
)
from auvgeom.fisher import (
    CONDITION_LIMIT,
    KIND_CONSTANT,
    FimResult,
    _condition_screen,
    _time_and_rows,
    _variance_at,
    noise_variance,
)
from auvgeom.geometry import COINCIDENT_TOL


class NoEigenray(Exception):
    """No launch angle connects the endpoints without a turning point."""


def _horizontal_range(q, p):
    return math.hypot(q.x - p.x, q.y - p.y)


def _slant_range(q, p):
    return math.hypot(_horizontal_range(q, p), q.z - p.z)


def _bearing(q, p):
    """Bearing phi of q as seen from p, in (-pi, pi]."""
    phi = math.atan2(q.y - p.y, q.x - p.x)
    return math.pi if phi == -math.pi else phi


def _elevation(q, p):
    """Chord elevation theta = arctan((z - z_i) / d)."""
    return math.atan((q.z - p.z) / _horizontal_range(q, p))


def _deviation(q, p, ssp):
    """Ray deviation from the chord, alpha = arctan(d / (2b/a + z + z_i))."""
    axial = 2.0 * ssp.surface_speed_b / ssp.steepness_a + q.z + p.z
    return math.atan2(_horizontal_range(q, p), axial)


def log_form_time(q, p, ssp):
    """(1/a) * [F(theta + alpha) - F(theta - alpha)], F(x) = ln((1 + sin x) / cos x)."""
    theta = _elevation(q, p)
    alpha = _deviation(q, p, ssp)

    def F(x):
        return math.log((1 + math.sin(x)) / math.cos(x))

    return (F(theta + alpha) - F(theta - alpha)) / ssp.steepness_a


def _simpson(values, h):
    # Composite Simpson over an odd number of equally spaced samples.
    return float(
        (h / 3.0)
        * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum())
    )


def snell_travel_time_oracle(q, p, ssp, steps=20000):
    """Travel time by numerical ray integration, independent of the closed form.

    Uses the Snell invariant kappa = cos(gamma(z))/C(z) along the ray.
    For a non-turning ray between depths z_lo < z_hi the horizontal
    advance and travel time are depth integrals

        D(kappa) = integral kappa*C / sqrt(1 - kappa^2 C^2) dz
        t(kappa) = integral 1 / (C * sqrt(1 - kappa^2 C^2)) dz,

    both evaluated by composite Simpson quadrature over ``steps`` panels.
    The launch grazing angle at the shallow endpoint is found by bisection
    (tolerance 1e-12 rad) so that D matches the requested horizontal
    range.  Requires distinct depths; the vertical case integrates to
    (1/a)*ln(C_hi/C_lo) exactly.  Raises NoEigenray when no non-turning
    ray reaches the requested range (launch angles within 1e-7 rad of the
    turning limit are treated as unreachable).
    """
    if steps < 1000:
        raise ValueError("steps must be at least 1000")
    if abs(q.z - p.z) <= COINCIDENT_TOL:
        raise ValueError("oracle requires distinct depths")
    d = _horizontal_range(q, p)
    z_lo, z_hi = sorted((q.z, p.z))
    a = ssp.steepness_a
    c_lo = ssp.surface_speed_b + a * z_lo
    c_hi = ssp.surface_speed_b + a * z_hi
    if d <= COINCIDENT_TOL:
        return math.log(c_hi / c_lo) / a

    if steps % 2:
        steps += 1
    z = np.linspace(z_lo, z_hi, steps + 1)
    h = (z_hi - z_lo) / steps
    c = ssp.surface_speed_b + a * z

    def advance(gamma):
        # Horizontal range of the ray launched at grazing angle gamma
        # (measured from horizontal) at the shallow endpoint.
        kappa = math.cos(gamma) / c_lo
        with np.errstate(invalid="ignore", divide="ignore"):
            integrand = kappa * c / np.sqrt(1.0 - (kappa * c) ** 2)
        return _simpson(integrand, h)

    # gamma = pi/2 is the vertical ray (zero advance); the turning limit
    # is where the ray becomes horizontal at the deep endpoint.
    gamma_min = math.acos(c_lo / c_hi)
    gamma_probe = gamma_min + 1e-7
    if advance(gamma_probe) < d:
        raise NoEigenray(f"horizontal range {d:.6g} m unreachable without a turning point")
    lo, hi = gamma_probe, math.pi / 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if advance(mid) > d:
            lo = mid
        else:
            hi = mid
    gamma = 0.5 * (lo + hi)

    kappa = math.cos(gamma) / c_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = 1.0 / (c * np.sqrt(1.0 - (kappa * c) ** 2))
    return _simpson(integrand, h)


def closed_row(q, p, ssp):
    """(2 sin(alpha) / (a r)) * (cos(phi), sin(phi), tan(theta - alpha))."""
    theta = _elevation(q, p)
    alpha = _deviation(q, p, ssp)
    phi = _bearing(q, p)
    r = _slant_range(q, p)
    scale = 2.0 * math.sin(alpha) / (ssp.steepness_a * r)
    return (
        scale * math.cos(phi),
        scale * math.sin(phi),
        scale * math.tan(theta - alpha),
    )


def chain_row(q, p, ssp):
    """The same gradient through the chain rule over theta and alpha.

    dt/dq = dt/dtheta * dtheta/dq + dt/dalpha * dalpha/dq, with
    l = sqrt(d^2 + (2b/a + z + z_i)^2) the hypotenuse paired with alpha.
    """
    a = ssp.steepness_a
    d = _horizontal_range(q, p)
    theta = _elevation(q, p)
    alpha = _deviation(q, p, ssp)
    phi = _bearing(q, p)
    r = _slant_range(q, p)
    l = math.hypot(d, 2.0 * ssp.surface_speed_b / a + q.z + p.z)
    denom = math.cos(theta) ** 2 - math.sin(alpha) ** 2
    dt_dtheta = 2.0 * math.sin(theta) * math.sin(alpha) / (a * denom)
    dt_dalpha = 2.0 * math.cos(theta) * math.cos(alpha) / (a * denom)
    dtheta = (
        -math.sin(theta) * math.cos(phi) / r,
        -math.sin(theta) * math.sin(phi) / r,
        math.cos(theta) / r,
    )
    dalpha = (
        math.cos(alpha) * math.cos(phi) / l,
        math.cos(alpha) * math.sin(phi) / l,
        -math.sin(alpha) / l,
    )
    return tuple(dt_dtheta * dth + dt_dalpha * dal for dth, dal in zip(dtheta, dalpha))


def anchor_variance(q, p, noise):
    """sigma^2 at the slant range."""
    return noise_variance(noise, _slant_range(q, p))


def angle_sum_fim(q, anchors, ssp, noise):
    """The Fisher matrix from entrywise sums over the per-anchor angles.

    With w_i = sin^2(alpha) cos^2(theta) / (d^2 sigma^2) and prefactor
    4/a^2, e.g. psi_11 = (4/a^2) * sum w_i cos^2(phi_i) and
    psi_33 = (4/a^2) * sum w_i tan^2(theta_i - alpha_i).
    """
    d = np.array([_horizontal_range(q, p) for p in anchors])
    theta = np.array([_elevation(q, p) for p in anchors])
    alpha = np.array([_deviation(q, p, ssp) for p in anchors])
    phi = np.array([_bearing(q, p) for p in anchors])
    sigma2 = np.array([anchor_variance(q, p, noise) for p in anchors])
    w = np.sin(alpha) ** 2 * np.cos(theta) ** 2 / (d ** 2 * sigma2)
    u = np.stack([np.cos(phi), np.sin(phi), np.tan(theta - alpha)])
    psi = np.empty((3, 3))
    for j in range(3):
        for k in range(3):
            psi[j, k] = 4.0 / ssp.steepness_a ** 2 * np.sum(w * u[j] * u[k])
    return psi


def reference_grid_values(z, n, ssp, noise, k_min=0.1, k_max=3.0, steps=2000):
    """(grid, values): the scalar objective at every grid point, in a loop."""
    grid = np.linspace(k_min, k_max, steps + 1)
    with np.errstate(over="ignore"):  # the noise variance may overflow to inf
        values = [k_objective(float(k), z, n, ssp, noise) for k in grid]
    return grid, np.array(values)


def reference_grid_search_k(z, n, ssp, noise, k_min=0.1, k_max=3.0, steps=2000):
    """grid_search_k as a loop over k_objective, refusing a grid that holds
    a value that is not finite and positive."""
    grid, values = reference_grid_values(z, n, ssp, noise, k_min, k_max, steps)
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError("objective not finite and positive on the grid")
    return float(grid[int(np.argmin(values))])


def _reference_trace(k, z, n, ssp, sigma2):
    a = ssp.steepness_a
    big_z = 2.0 * ssp.surface_speed_b / a + z
    common = a ** 2 * sigma2 * (1.0 + k ** 2) * (k ** 2 * z ** 2 + big_z ** 2) / n
    term_xy = common / k ** 2
    term_z = common * (big_z + z) ** 2 / (4.0 * (big_z - k ** 2 * z) ** 2)
    return term_xy + term_z


def reference_k_objective(k, z, n, ssp, noise):
    """The checked scalar objective, re-deriving the whole scene at k."""
    if noise.kind == KIND_CONSTANT:
        sigma2 = noise.sigma ** 2
    else:
        sigma2 = noise_variance(noise, z * math.sqrt(1.0 + k * k))
    if not (k > 0 and z > 0 and sigma2 > 0):
        raise ValueError("k, z, sigma2 must be positive")
    if n < 4:
        raise TooFewAnchors(f"USC needs at least 4 anchors, got {n}")
    return _reference_trace(k, z, n, ssp, sigma2)


def reference_grid_formula(k, z, n, ssp, noise):
    """The objective at every scale of the array k, in one unchecked pass."""
    with np.errstate(all="ignore"):
        r = z * np.sqrt(1.0 + k * k)
        return _reference_trace(k, z, n, ssp, _variance_at(noise, r))


@np.errstate(over="ignore")
def reference_optimize_k(z, n, ssp, noise, cfg):
    """deployment.optimize_k with one reference_k_objective call per evaluation."""
    k = cfg.initial_k
    f0 = reference_k_objective(k, z, n, ssp, noise)
    if not (math.isfinite(f0) and f0 > 0):
        raise ValueError(f"objective tr(CRLB)(k) is {f0!r} at k={k!r}, not finite and positive")
    f_k = 1.0

    def g(kk):
        return reference_k_objective(kk, z, n, ssp, noise) / f0

    for iterations in range(1, cfg.max_iterations_Nmax + 1):
        h = cfg.fd_step_h * k
        grad = (g(k + h) - g(k - h)) / (2.0 * h)
        if abs(grad) <= cfg.precision_eps:
            break
        step = cfg.step_size_t
        for _ in range(60):
            k_new = k - step * grad
            if k_new > 0 and (f_new := g(k_new)) <= f_k:
                break
            step *= 0.5
        else:
            if k - step * grad <= 0:
                raise NonPositiveK("cannot keep the iterate positive")
            break
        k, f_k = k_new, f_new
    return KSearchResult(k, iterations, abs(grad) <= cfg.precision_eps, f_k * f0)


def reference_fim(q, anchors, ssp, noise):
    """fim refused by the batched screen, with numpy reductions and np.linalg.cond."""
    if len(anchors) < 4:
        raise TooFewAnchors(f"need at least 4 anchors, got {len(anchors)}")
    q_xyz, p_xyz = q.as_array(), np.array([p.as_array() for p in anchors])
    _, rows, r = _time_and_rows(q_xyz, p_xyz, ssp)
    bad = np.flatnonzero(np.isnan(rows).any(axis=1))
    if bad.size:
        i = int(bad[0])
        if np.hypot(*(q_xyz[:2] - p_xyz[i, :2])) <= COINCIDENT_TOL:
            reason = "zero horizontal range"
        else:
            reason = "grazing ray or |cos^2(theta) - sin^2(alpha)| below tolerance"
        raise DegenerateGeometry(f"anchor {i}: {reason}")
    with np.errstate(all="ignore"):
        f = np.einsum("...ni,...nj->...ij", rows / _variance_at(noise, r)[..., None], rows)
        f = 0.5 * (f + f.T)
    if _condition_screen(f)[0]:
        raise SingularFim(f"FIM not finite or condition number above {CONDITION_LIMIT:.0e}")
    crlb = np.linalg.inv(f)
    crlb = 0.5 * (crlb + crlb.T)
    offdiag = max(abs(f[0, 1]), abs(f[0, 2]), abs(f[1, 2])) / np.diagonal(f).max()
    return FimResult(
        fim=f,
        crlb=crlb,
        trace_crlb=float(np.trace(crlb)),
        offdiag_residual=float(offdiag),
        condition_number=float(np.linalg.cond(f)),
    )


def reference_diagonal_lower_bound(result):
    """Sum of the reciprocal Fisher diagonals, as one numpy reduction."""
    diag = np.diagonal(result.fim)
    if np.any(diag == 0.0):
        raise ZeroDiagonal("a diagonal Fisher entry is zero")
    return float(np.sum(1.0 / diag))


def reference_degenerate(layout):
    """deployment._degenerate of one layout (n, 3), pair by pair.

    A layout is degenerate when some pair's squared distance, dx*dx +
    dy*dy + dz*dz, is below 1e-18 m^2, or when its centred horizontal
    coordinates have a smallest singular value below 1e-9 (1 + largest).
    """
    n = len(layout)
    coincident = False
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy, dz = (layout[i] - layout[j]).tolist()
            coincident |= dx * dx + dy * dy + dz * dz < 1e-18
    xy = layout[:, :2] - layout[:, :2].mean(axis=0)
    s = np.linalg.svd(xy, compute_uv=False)
    return coincident or bool(s[-1] < 1e-9 * (1.0 + s[0]))
