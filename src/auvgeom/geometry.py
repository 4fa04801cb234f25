"""The two value types of the bent-ray model: the sound-speed profile and a point.

Sound speed grows linearly with depth, C(z) = b + a*z, with z positive
downward and z = 0 at the sea surface.  Between two points the acoustic
ray is a circular arc, and its travel time and Jacobian have closed
forms in the chord elevation theta and the ray's deviation alpha from
the chord.  Those closed forms live in one place, the batched kernel
``fisher._time_and_rows``; the tests check it against independent
references in ``tests/oracles.py``, among them a numerical Snell-law
ray integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Horizontal separations below this are treated as exactly vertical.
COINCIDENT_TOL = 1e-12


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
