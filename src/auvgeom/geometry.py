"""Bent-ray acoustic geometry under a depth-linear sound-speed profile.

Sound speed grows linearly with depth, C(z) = b + a*z, with z positive
downward and z = 0 at the sea surface.  Between two points the acoustic
ray is a circular arc; all quantities of interest (elevation of the
straight chord, deviation of the launch direction from that chord, and
the travel time along the arc) have closed forms built from two angles:

    theta = arctan((z_q - z_p) / d)          chord elevation
    alpha = arctan(d / (2b/a + z_q + z_p))   ray deviation from the chord

and the travel time is

    t = (1/a) * [F(theta + alpha) - F(theta - alpha)],
    F(x) = ln((1 + sin x) / cos x) = asinh(tan x).

The asinh form is used internally: it is the same function analytically
but does not cancel catastrophically for small angles, and it makes the
endpoint-swap symmetry (theta -> -theta) exact in floating point.

An independent numerical integrator, ``snell_travel_time_oracle``, finds
the connecting ray from the Snell invariant cos(gamma)/C(z) = const by
bisection on the launch angle and integrates the travel time by composite
Simpson quadrature.  It shares no algebra with the closed form and serves
as its validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GrazingRay, NoEigenray, VerticalRay, ZeroHorizontalRange

# Horizontal separations below this are treated as exactly vertical.
COINCIDENT_TOL = 1e-12
# cos(theta +/- alpha) at or below this makes the travel-time log diverge.
GRAZING_COS_TOL = 1e-12


@dataclass(frozen=True)
class SoundSpeedProfile:
    """Linear sound-speed profile C(z) = b + a*z.

    surface_speed_b is the speed at the surface in m/s, steepness_a the
    depth gradient in 1/s.  Both must be strictly positive; the constant-
    speed case is approached through small positive steepness values.
    """

    surface_speed_b: float = 1480.0
    steepness_a: float = 0.1

    def __post_init__(self) -> None:
        if not self.surface_speed_b > 0.0:
            raise ValueError("surface_speed_b must be positive")
        if not self.steepness_a > 0.0:
            raise ValueError("steepness_a must be positive")


@dataclass(frozen=True)
class Position:
    """A point with depth coordinate z positive downward (surface z = 0).

    Scene positions (AUV and anchors) are expected to satisfy z >= 0;
    intermediate estimator iterates may leave that halfspace, so the type
    itself does not enforce it.
    """

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def sound_speed(ssp: SoundSpeedProfile, z: float) -> float:
    """Sound speed C(z) = b + a*z in m/s."""
    c = ssp.surface_speed_b + ssp.steepness_a * z
    if not c > 0.0:
        raise ValueError(f"sound speed not positive at z={z}")
    return c


def horizontal_range(q: Position, p: Position) -> float:
    """Horizontal separation sqrt((x-x_i)^2 + (y-y_i)^2)."""
    return math.hypot(q.x - p.x, q.y - p.y)


def bearing(q: Position, p: Position) -> float:
    """Four-quadrant horizontal bearing of q as seen from p, in (-pi, pi].

    Raises ZeroHorizontalRange when the two points are (numerically)
    vertically aligned and the bearing is undefined.
    """
    dx = q.x - p.x
    dy = q.y - p.y
    if math.hypot(dx, dy) <= COINCIDENT_TOL:
        raise ZeroHorizontalRange(
            f"horizontal range {math.hypot(dx, dy):.3e} m is below tolerance"
        )
    phi = math.atan2(dy, dx)
    if phi == -math.pi:  # normalize the branch cut to (-pi, pi]
        phi = math.pi
    return phi


def elevation_angle(q: Position, p: Position) -> float:
    """Elevation of the straight chord from p to q, arctan((z-z_i)/d).

    In (-pi/2, pi/2) for any non-vertical pair.  Raises VerticalRay when
    the horizontal range vanishes, where the chord is vertical and the
    bent-ray expressions below are undefined.
    """
    d = horizontal_range(q, p)
    if d <= COINCIDENT_TOL:
        raise VerticalRay(
            "elevation undefined: endpoints are vertically aligned "
            f"(d={d:.3e} m)"
        )
    return math.atan((q.z - p.z) / d)


def _axial_span(q: Position, p: Position, ssp: SoundSpeedProfile) -> float:
    # 2b/a + z + z_i, the vertical distance between the endpoints' mirror
    # images through the (virtual) zero-speed plane at z = -b/a.
    span = 2.0 * ssp.surface_speed_b / ssp.steepness_a + q.z + p.z
    if not span > 0.0:
        raise ValueError("2b/a + z + z_i must be positive")
    return span


def deviation_angle(q: Position, p: Position, ssp: SoundSpeedProfile) -> float:
    """Angle between the launch direction of the bent ray and the chord.

    alpha = arctan(d / (2b/a + z + z_i)), in [0, pi/2).  Zero for a
    vertical pair (a vertical ray does not bend).
    """
    d = horizontal_range(q, p)
    return math.atan2(d, _axial_span(q, p, ssp))


def _travel_time_core(
    d: np.ndarray,
    zq: np.ndarray,
    zp: np.ndarray,
    ssp: SoundSpeedProfile,
) -> np.ndarray:
    """Vectorized travel time; NaN where the grazing guard trips.

    Broadcasts over any common shape.  Coincident pairs (d = 0 and equal
    depths) come out as exactly 0; vertical pairs with distinct depths
    fall under the grazing guard and come out NaN.
    """
    b = ssp.surface_speed_b
    a = ssp.steepness_a
    axial = 2.0 * b / a + zq + zp
    theta = np.arctan2(zq - zp, d)
    alpha = np.arctan2(d, axial)
    hi = theta + alpha
    lo = theta - alpha
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        bad = (np.cos(hi) <= GRAZING_COS_TOL) | (np.cos(lo) <= GRAZING_COS_TOL)
        t = (np.arcsinh(np.tan(hi)) - np.arcsinh(np.tan(lo))) / a
        return np.where(bad, np.nan, t)


def ray_travel_time(q: Position, p: Position, ssp: SoundSpeedProfile) -> float:
    """Travel time along the bent ray between q and p, Eq.-(4)-style:

        t = (1/a) * [F(theta+alpha) - F(theta-alpha)],
        F(x) = ln((1+sin x)/cos x),

    evaluated as asinh(tan(x)) for numerical stability; the scalar
    reference for the batched kernel ``fisher._time_and_rows``.  Symmetric
    in the endpoints.  Returns exactly 0 for coincident points.  Raises
    VerticalRay for a vertical pair and GrazingRay when either log
    argument is within the 1e-12 cosine guard of its singularity.
    """
    d = horizontal_range(q, p)
    if d <= COINCIDENT_TOL:
        if abs(q.z - p.z) <= COINCIDENT_TOL:
            return 0.0
        raise VerticalRay(
            "travel-time closed form undefined for a vertical ray; "
            "use snell_travel_time_oracle"
        )
    _axial_span(q, p, ssp)  # precondition check
    t = float(_travel_time_core(np.float64(d), np.float64(q.z), np.float64(p.z), ssp))
    if math.isnan(t):
        raise GrazingRay(
            "cos(theta +/- alpha) within 1e-12 of zero; ray too close to vertical"
        )
    return t


def arc_length(q: Position, p: Position, ssp: SoundSpeedProfile) -> float:
    """Length of the circular ray arc between q and p.

    The arc subtends 2*alpha at its center and the chord is r, giving
    s = r * alpha / sin(alpha); equals the chord in the alpha -> 0 limit.
    The scalar reference for the arc-length distance that the
    distance-dependent noise model uses when asked to measure path loss
    along the ray instead of the chord (``fisher._sigma2``).
    """
    d = horizontal_range(q, p)
    r = math.hypot(d, q.z - p.z)
    if d <= COINCIDENT_TOL:
        return abs(q.z - p.z)
    alpha = deviation_angle(q, p, ssp)
    if alpha < 1e-9:
        return r
    return r * alpha / math.sin(alpha)


def _simpson(values: np.ndarray, h: float) -> float:
    # Composite Simpson over an odd number of equally spaced samples.
    return float(
        (h / 3.0)
        * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum())
    )


def snell_travel_time_oracle(
    q: Position, p: Position, ssp: SoundSpeedProfile, steps: int = 20000
) -> float:
    """Travel time by numerical ray integration, independent of Eq. (4).

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
    d = horizontal_range(q, p)
    z_lo, z_hi = sorted((q.z, p.z))
    a = ssp.steepness_a
    c_lo = sound_speed(ssp, z_lo)
    c_hi = sound_speed(ssp, z_hi)
    if d <= COINCIDENT_TOL:
        return math.log(c_hi / c_lo) / a

    if steps % 2:
        steps += 1
    z = np.linspace(z_lo, z_hi, steps + 1)
    h = (z_hi - z_lo) / steps
    c = ssp.surface_speed_b + a * z

    def advance(gamma: float) -> float:
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
        raise NoEigenray(
            f"horizontal range {d:.6g} m unreachable without a turning point"
        )
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
