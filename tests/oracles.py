"""Scalar reference formulas that the vectorized code is checked against.

They rebuild the travel-time Jacobian and the Fisher matrix from the
per-pair angles of ``auvgeom.geometry`` one anchor at a time, sharing no
code with the batched kernel ``fisher._time_and_rows``, the shared
variance function ``fisher._sigma2`` or ``fim``.  The radius-scale grid
is evaluated point by point through the scalar ``k_objective``, against
the one-pass ``deployment.grid_search_k``.
"""

import math

import numpy as np

from auvgeom.deployment import k_objective
from auvgeom.fisher import noise_variance
from auvgeom.geometry import (
    arc_length,
    bearing,
    deviation_angle,
    elevation_angle,
    horizontal_range,
)


def closed_row(q, p, ssp):
    """(2 sin(alpha) / (a r)) * (cos(phi), sin(phi), tan(theta - alpha))."""
    theta = elevation_angle(q, p)
    alpha = deviation_angle(q, p, ssp)
    phi = bearing(q, p)
    r = math.hypot(horizontal_range(q, p), q.z - p.z)
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
    d = horizontal_range(q, p)
    theta = elevation_angle(q, p)
    alpha = deviation_angle(q, p, ssp)
    phi = bearing(q, p)
    r = math.hypot(d, q.z - p.z)
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


def anchor_variance(q, p, ssp, noise):
    """sigma^2 at the slant range, or at the arc length when asked for."""
    if noise.use_arc_length:
        distance = arc_length(q, p, ssp)
    else:
        distance = math.hypot(horizontal_range(q, p), q.z - p.z)
    return noise_variance(noise, distance)


def angle_sum_fim(q, anchors, ssp, noise):
    """The Fisher matrix from entrywise sums over the per-anchor angles.

    With w_i = sin^2(alpha) cos^2(theta) / (d^2 sigma^2) and prefactor
    4/a^2, e.g. psi_11 = (4/a^2) * sum w_i cos^2(phi_i) and
    psi_33 = (4/a^2) * sum w_i tan^2(theta_i - alpha_i).
    """
    d = np.array([horizontal_range(q, p) for p in anchors])
    theta = np.array([elevation_angle(q, p) for p in anchors])
    alpha = np.array([deviation_angle(q, p, ssp) for p in anchors])
    phi = np.array([bearing(q, p) for p in anchors])
    sigma2 = np.array([anchor_variance(q, p, ssp, noise) for p in anchors])
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
