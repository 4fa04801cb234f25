"""Ray kernel, measurement noise, Fisher information, and CRLB.

Between an anchor p and the AUV q the bent ray is a circular arc.  With
d the horizontal range, r the slant range and phi the bearing, two
angles fix it:

    theta = arctan((z_q - z_p) / d)          chord elevation
    alpha = arctan(d / (2b/a + z_q + z_p))   ray deviation from the chord

The travel time is t = (1/a) [asinh(tan(theta + alpha)) -
asinh(tan(theta - alpha))], and its gradient with respect to the AUV is
(2 sin(alpha) / (a r)) (cos(phi), sin(phi), tan(theta - alpha)).  With
dz = z_q - z_p, A = 2b/a + z_q + z_p, P = 2b/a + 2 z_p, Q = 2b/a + 2 z_q
and rho = sqrt(d^2 + A^2), the angle sums are exactly

    r rho cos(theta + alpha) = d P,     r rho cos(theta - alpha) = d Q,
    r rho sin(theta +/- alpha) = dz A +/- d^2,

so the kernel takes no angle: tan(theta +/- alpha) = (dz A +/- d^2) /
(d P or d Q), and the gradient is 2 (dx, dy, (dz A - d^2) / Q) / (a r rho),
two square roots and two ``asinh`` per pair that keep, near the
vertical, the digits an arctan / tan round trip loses.

The measurement vector stacks one travel time per anchor.  With
independent zero-mean Gaussian timing errors of variance sigma_i^2 the
Fisher information matrix for the AUV position is

    FIM = J^T Sigma^{-1} J,    Sigma = diag(sigma_i^2),

where row i of J is the gradient above for anchor i.

``_time_and_rows`` evaluates travel times, these rows and the slant
ranges for any batch of anchor-AUV pairs in one pass, ``_variance_at``
turns ranges into timing variances, and ``_information`` is the one
assembly of J^T Sigma^{-1} J, for ``fim`` and the harness bound.  The
estimator's normal sums stay their own: anchor-ordered row sums over a
padded window that carry the residual terms too, far faster there than
a batched ``einsum``.  A matrix whose condition number exceeds 1e12 has
no bound, by one rule: ``fim`` judges its one matrix by one ``eigvalsh``
that also gives the condition number it reports, and the harness bound
and the estimator screen their stacks by ``_condition_screen``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    SingularFim,
    TooFewAnchors,
    ZeroDiagonal,
)
from .geometry import COINCIDENT_TOL, Position, SoundSpeedProfile

DEGENERACY_TOL = 1e-12
CONDITION_LIMIT = 1e12

KIND_CONSTANT = "constant_variance"
KIND_DISTANCE = "distance_dependent"


@dataclass(frozen=True)
class NoiseModel:
    """Timing-error model for the ToF measurements.

    kind "constant_variance" uses sigma (seconds) for every anchor.  kind
    "distance_dependent" converts an energy-to-noise floor ke_db plus the
    path loss over the slant range l

        A_db(l) = 10 * beta * log10(l / l0) + (l - l0) * l_f_db_per_km / 1000

    into a variance sigma^2 = 10^((ke_db + A_db)/10), in squared seconds
    by convention (the decibel reading of the model; see README).
    """

    kind: str = KIND_DISTANCE
    sigma: float = 1e-3
    ke_db: float = -10.0
    beta: float = 2.0
    l0: float = 1000.0
    l_f_db_per_km: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_CONSTANT, KIND_DISTANCE):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == KIND_CONSTANT and not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not 1.0 <= self.beta <= 2.0:
            raise ValueError("beta must lie in [1, 2]")
        if not self.l0 > 0.0:
            raise ValueError("l0 must be positive")

    @staticmethod
    def constant_variance(sigma: float) -> "NoiseModel":
        return NoiseModel(kind=KIND_CONSTANT, sigma=sigma)

    @staticmethod
    def distance_dependent(
        ke_db: float = -10.0,
        beta: float = 2.0,
        l0: float = 1000.0,
        l_f_db_per_km: float = 1.0,
    ) -> "NoiseModel":
        return NoiseModel(
            kind=KIND_DISTANCE,
            ke_db=ke_db,
            beta=beta,
            l0=l0,
            l_f_db_per_km=l_f_db_per_km,
        )


@dataclass(frozen=True)
class FimResult:
    """Fisher matrix, its inverse, and diagnostic scalars.

    offdiag_residual is max |F_jk| over j != k divided by max |F_jj|; it
    is the numerical witness of layout diagonality.  condition_number is
    ``_condition_number`` of the Fisher matrix, the number ``fim`` compares
    against 1e12 (NaN when the result was built by hand).
    """

    fim: np.ndarray
    crlb: np.ndarray
    trace_crlb: float
    offdiag_residual: float
    condition_number: float = math.nan


def _time_and_rows(q_xyz: np.ndarray, p_xyz: np.ndarray, ssp: SoundSpeedProfile):
    """Vectorized travel times, Jacobian rows and slant ranges: the one production source.

    q_xyz broadcasts as (..., 3) and p_xyz as (..., N, 3); returns
    (t, rows, r) with shapes (..., N), (..., N, 3) and (..., N).  t and
    rows are NaN wherever the pair is vertical, grazing (either cosine of
    the module docstring at most 1e-12), or has |cos^2(theta) -
    sin^2(alpha)| < 1e-12, so the caller can treat invalid geometry as an
    infinite-cost region; r is every pair's slant range.  Every pair is
    tested: neither cosine exceeds 1, so the last two tests come to P > 0
    and d^2 P Q >= 1e-12 (r rho)^2, and P is clamped at 0.
    """
    b = ssp.surface_speed_b
    a = ssp.steepness_a
    c = 2.0 * b / a
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        dx = q_xyz[..., None, 0] - p_xyz[..., 0]
        dy = q_xyz[..., None, 1] - p_xyz[..., 1]
        zq = q_xyz[..., None, 2]
        zp = p_xyz[..., 2]
        # P and Q have one endpoint's shape each, often far smaller than the batch
        big_p = np.maximum(c + 2.0 * zp, 0.0)
        big_q = c + 2.0 * zq
        d2 = dx * dx + dy * dy
        d = np.sqrt(d2)
        dz = zq - zp
        axial = c + zq + zp
        r = dz * dz + d2  # r^2, its square root taken last
        rr2 = (axial * axial + d2) * r  # (r rho)^2
        ok = d2 * (big_p * big_q) >= DEGENERACY_TOL * rr2
        ok &= d > COINCIDENT_TOL
        # r rho sin(theta -/+ alpha) = dz A -/+ d^2; over d Q and d P they
        # are the two tangents, and (dz A - d^2) / Q is d tan(theta - alpha);
        # each is written over an intermediate that is no longer needed
        lo = np.multiply(dz, axial, out=dz)
        hi = np.add(lo, d2, out=axial)
        lo -= d2
        lo /= big_q
        hi /= big_p
        t = np.arcsinh(np.divide(hi, d, out=hi), out=hi)
        t -= np.arcsinh(np.divide(lo, d, out=d))
        t /= a
        scale = np.divide(2.0 / a, np.sqrt(rr2, out=rr2), out=rr2)
        rows = np.empty(t.shape + (3,))
        np.multiply(scale, dx, out=rows[..., 0])
        np.multiply(scale, dy, out=rows[..., 1])
        np.multiply(scale, lo, out=rows[..., 2])
        if not ok.all():
            t[~ok] = np.nan
            rows[~ok] = np.nan
        np.sqrt(r, out=r)
    return t, rows, r


def _variance_at(noise: NoiseModel, distance_l):
    # sigma^2 in s^2 at distance_l in meters, elementwise; inf past the
    # largest double, where callers silence numpy's overflow warning
    if noise.kind == KIND_CONSTANT:
        return np.full(np.shape(distance_l), noise.sigma ** 2)
    a_db = 10.0 * noise.beta * np.log10(distance_l / noise.l0) + (distance_l - noise.l0) * (
        noise.l_f_db_per_km / 1000.0
    )
    return np.power(10.0, (noise.ke_db + a_db) / 10.0)


def _information(rows: np.ndarray, sigma2: np.ndarray, depth_var: float | None = None):
    # Fisher matrices (..., 3, 3) of rows (..., N, 3) under timing variances
    # (..., N); a depth reading of variance depth_var adds 1/depth_var to zz
    f = np.einsum("...ni,...nj->...ij", rows / sigma2[..., None], rows)
    if depth_var is not None:
        f[..., 2, 2] += 1.0 / depth_var
    return f


def noise_variance(noise: NoiseModel, distance_l: float) -> float:
    """Timing variance sigma^2 in s^2 at the given distance in meters."""
    if not distance_l > 0.0:
        raise ValueError("distance_l must be positive")
    return float(_variance_at(noise, distance_l))


def _first_row_expansion(a, b, c, e, f, i):
    """Determinant of the symmetric [[a, b, c], [b, e, f], [c, f, i]].

    The arguments are arrays of the six distinct entries.  Returns det,
    expanded along the first row, and that row's cofactors, which are
    also the adjugate's 00, 01 and 02 entries.
    """
    adj00 = e * i - f * f
    adj01 = f * c - b * i
    adj02 = b * f - e * c
    return a * adj00 + b * adj01 + c * adj02, (adj00, adj01, adj02)


def _condition_screen(
    m: np.ndarray, det: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(ill, cleared) masks of a (..., 3, 3) stack of symmetric matrices.

    ill marks the matrices whose ``_condition_number`` exceeds 1e12.
    They are Fisher or normal matrices, positive semi-definite up to
    rounding, and such a matrix with det > 0 has cond <= tr^3 / det,
    since tr^3 >= l_max^2 * l_mid.  cleared marks the finite matrices
    this bound passes at 1e11, a decade below the limit so that rounding
    in tr and det cannot matter: they skip the eigenvalue solve.  det,
    when given, must be ``_first_row_expansion``'s determinant of the
    stack, flattened.
    """
    entries = m.reshape(-1, 9).T
    finite = np.isfinite(entries).all(axis=0)
    bad = ~finite
    with np.errstate(all="ignore"):
        a, b, c, _, e, f, _, _, i = entries
        if det is None:
            det, _ = _first_row_expansion(a, b, c, e, f, i)
        clear = finite & (det > 0.0) & ((a + e + i) ** 3 <= CONDITION_LIMIT / 10 * det)
        check = np.flatnonzero(finite & ~clear)
        if check.size:
            ev = np.abs(np.linalg.eigvalsh(m.reshape(-1, 3, 3)[check]))
            ratio = ev.max(axis=1) / ev.min(axis=1)
            bad[check] = np.where(np.isnan(ratio), np.inf, ratio) > CONDITION_LIMIT
    return bad.reshape(m.shape[:-2]), clear.reshape(m.shape[:-2])


def _condition_number(m: np.ndarray) -> float:
    """2-norm condition number of one symmetric 3x3 matrix, from one ``eigvalsh``.

    The ratio of the largest to the smallest absolute eigenvalue; inf
    when the smallest is zero or the matrix is not finite.
    """
    if not all(map(math.isfinite, m.ravel().tolist())):
        return math.inf
    ev = [abs(e) for e in np.linalg.eigvalsh(m).tolist()]
    lo = min(ev)
    return max(ev) / lo if lo > 0.0 else math.inf


def fim(
    q: Position,
    anchors: list[Position],
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
) -> FimResult:
    """Fisher information and CRLB for one AUV position and anchor set.

    Forms J^T Sigma^{-1} J from the kernel's rows and the variances at
    its slant ranges.  Raises TooFewAnchors below four anchors,
    DegenerateGeometry naming the first anchor whose row is undefined,
    and SingularFim when the matrix is not finite or its condition
    number (``_condition_number``, returned too) exceeds 1e12; otherwise
    the CRLB is its inverse.
    """
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
        f = _information(rows, _variance_at(noise, r))
        f = 0.5 * (f + f.T)  # the product is symmetric only up to rounding
    cond = _condition_number(f)
    if not cond <= CONDITION_LIMIT:
        raise SingularFim(f"FIM not finite or condition number above {CONDITION_LIMIT:.0e}")
    crlb = np.linalg.inv(f)
    crlb = 0.5 * (crlb + crlb.T)  # symmetrize roundoff
    f00, f01, f02, _, f11, f12, _, _, f22 = f.ravel().tolist()
    c00, _, _, _, c11, _, _, _, c22 = crlb.ravel().tolist()
    return FimResult(
        fim=f,
        crlb=crlb,
        trace_crlb=c00 + c11 + c22,
        offdiag_residual=max(abs(f01), abs(f02), abs(f12)) / max(f00, f11, f22),
        condition_number=cond,
    )


def diagonal_lower_bound(result: FimResult) -> float:
    """Sum of reciprocal Fisher diagonals, a lower bound on trace_crlb.

    Equals trace_crlb exactly when the FIM is diagonal.  Raises
    ZeroDiagonal when a diagonal entry vanishes.
    """
    diag = np.diagonal(result.fim).tolist()
    if 0.0 in diag:
        raise ZeroDiagonal("a diagonal Fisher entry is zero")
    d0, d1, d2 = diag
    return 1.0 / d0 + 1.0 / d1 + 1.0 / d2
