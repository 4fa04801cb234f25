"""The profile and position types, the kernel's travel times against
independent references, and the per-pair angles the oracles are built from."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auvgeom.errors import DegenerateGeometry
from auvgeom.fisher import NoiseModel, fim
from auvgeom.geometry import Position, SoundSpeedProfile
from adapters import kernel_pair
from oracles import (
    NoEigenray,
    _bearing,
    _deviation,
    _elevation,
    _horizontal_range,
    log_form_time,
    snell_travel_time_oracle,
)

SSP = SoundSpeedProfile(1480.0, 0.1)

# Frozen 50-digit evaluations of the ln-form travel time (independent
# high-precision route), rounded to float64.
T_CANONICAL = 0.044046779716597165669  # q=(50,50,50), p=(92,50,0)
T_DEEP = 0.27749628256273256284  # q=(200,-100,300), p=(-50,40,0)
T_CONST_LIMIT = 0.067570943578688586973  # b=1480, a=1e-6, d=1, dz=100


def travel_time(q, p, ssp):
    return kernel_pair(q, p, ssp)[0]


def local_speed(ssp, z):
    """1 m over the kernel's travel time along a level 1 m ray at depth z.

    The ray deviates from its chord by alpha ~ a / (2 C(z)), so this is
    C(z) up to a relative O(alpha^2) below 1e-9.
    """
    return 1.0 / travel_time(Position(0.0, 0.0, z), Position(1.0, 0.0, z), ssp)


def degenerate_anchor_error(q, p):
    """fim's DegenerateGeometry for p as anchor 0 among three good anchors."""
    good = [Position(q.x + 60, q.y, 0), Position(q.x, q.y + 60, 0), Position(q.x - 60, q.y, 0)]
    with pytest.raises(DegenerateGeometry) as info:
        fim(q, [p, *good], SSP, NoiseModel.constant_variance(1e-3))
    return str(info.value)


def scene_positions(min_z=0.0, max_z=1000.0):
    coord = st.floats(-2000.0, 2000.0)
    depth = st.floats(min_z, max_z)
    return st.builds(Position, coord, coord, depth)


@st.composite
def separated_pairs(draw, min_d=10.0):
    q = draw(scene_positions())
    p = draw(scene_positions())
    d = _horizontal_range(q, p)
    if d < min_d:
        # push p horizontally away from q instead of rejecting the draw
        phi = draw(st.floats(-math.pi, math.pi))
        p = Position(q.x + min_d * math.cos(phi) + (p.x - q.x),
                     q.y + min_d * math.sin(phi) + (p.y - q.y), p.z)
    return q, p


class TestSoundSpeed:
    def test_surface(self):
        assert local_speed(SSP, 0.0) == pytest.approx(1480.0, rel=1e-9)

    def test_linear(self):
        assert local_speed(SSP, 50.0) == pytest.approx(1485.0, rel=1e-9)
        ssp = SoundSpeedProfile(1500.0, 0.2)
        assert local_speed(ssp, 1000.0) == pytest.approx(1700.0, rel=1e-9)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SoundSpeedProfile(-1.0, 0.1)
        with pytest.raises(ValueError):
            SoundSpeedProfile(1480.0, 0.0)


class TestHorizontalRangeAndBearing:
    def test_coincident_horizontal(self):
        assert _horizontal_range(Position(50, 50, 50), Position(50, 50, 0)) == 0.0

    def test_three_four_five(self):
        assert _horizontal_range(Position(3, 4, 10), Position(0, 0, 0)) == pytest.approx(5.0)

    def test_bearing_axes(self):
        assert _bearing(Position(1, 0, 5), Position(0, 0, 0)) == 0.0
        assert _bearing(Position(0, 1, 5), Position(0, 0, 0)) == pytest.approx(math.pi / 2)
        assert _bearing(Position(-1, -1, 5), Position(0, 0, 0)) == pytest.approx(-3 * math.pi / 4)

    def test_bearing_zero_range(self):
        # no bearing at zero horizontal range: the kernel gives NaN and
        # fim names the anchor and the reason
        q, p = Position(0, 0, 50), Position(0, 0, 0)
        t, row = kernel_pair(q, p, SSP)
        assert math.isnan(t) and np.all(np.isnan(row))
        assert degenerate_anchor_error(q, p) == "anchor 0: zero horizontal range"

    @given(separated_pairs())
    def test_bearing_interval(self, pair):
        q, p = pair
        phi = _bearing(q, p)
        assert -math.pi < phi <= math.pi


class TestAngles:
    def test_elevation_horizontal(self):
        assert _elevation(Position(10, 0, 5), Position(0, 0, 5)) == 0.0

    def test_elevation_45(self):
        assert _elevation(Position(0, 0, 50), Position(50, 0, 0)) == pytest.approx(math.pi / 4)

    def test_elevation_canonical(self):
        got = _elevation(Position(50, 50, 50), Position(92, 50, 0))
        assert got == pytest.approx(math.atan(50.0 / 42.0), rel=1e-15)

    def test_elevation_vertical(self):
        # a vertical pair is at elevation pi/2, where the closed form has
        # no row: the kernel gives NaN for both the time and the row
        q, p = Position(0, 0, 50), Position(0, 0, 0)
        t, row = kernel_pair(q, p, SSP)
        assert math.isnan(t) and np.all(np.isnan(row))

    def test_deviation_vertical_is_zero(self):
        assert _deviation(Position(0, 0, 50), Position(0, 0, 0), SSP) == 0.0

    def test_deviation_canonical(self):
        got = _deviation(Position(50, 50, 50), Position(92, 50, 0), SSP)
        assert got == pytest.approx(math.atan(42.0 / 29650.0), rel=1e-15)

    def test_deviation_small_steepness(self):
        ssp = SoundSpeedProfile(1480.0, 1e-6)
        assert _deviation(Position(0, 0, 50), Position(100, 0, 0), ssp) < 1e-7

    @given(st.floats(1.0, 5000.0), st.floats(1.0, 5000.0), st.floats(0.0, 500.0), st.floats(0.0, 500.0))
    def test_deviation_monotone_in_d(self, d1, d2, zq, zp):
        lo, hi = sorted((d1, d2))
        a_lo = _deviation(Position(lo, 0, zq), Position(0, 0, zp), SSP)
        a_hi = _deviation(Position(hi, 0, zq), Position(0, 0, zp), SSP)
        assert a_lo <= a_hi
        assert 0.0 <= a_lo < math.pi / 2


class TestTravelTime:
    """The kernel's travel time against the frozen constants, the limits
    and the ln form, and its undefined pairs."""

    def test_coincident_is_zero(self):
        # the time shrinks to zero as the points close up, at the local
        # speed C(20) = 1482 m/s; at exact coincidence it is undefined
        q = Position(7, -3, 20)
        t = travel_time(q, Position(7 + 1e-6, -3, 20), SSP)
        assert t == pytest.approx(1e-6 / 1482.0, rel=1e-6)
        assert math.isnan(travel_time(q, q, SSP))

    def test_vertical_raises(self):
        q, p = Position(0, 0, 100), Position(0, 0, 0)
        assert math.isnan(travel_time(q, p, SSP))
        assert degenerate_anchor_error(q, p) == "anchor 0: zero horizontal range"

    def test_grazing_raises(self):
        # cos(theta + alpha) ~ 1e-13, past the horizontal tolerance
        q, p = Position(0, 0, 1000), Position(1e-10, 0, 0)
        assert math.isnan(travel_time(q, p, SSP))
        assert degenerate_anchor_error(q, p).startswith("anchor 0: grazing ray")

    def test_canonical_frozen(self):
        t = travel_time(Position(50, 50, 50), Position(92, 50, 0), SSP)
        assert t == pytest.approx(T_CANONICAL, rel=1e-12)

    def test_deep_frozen(self):
        t = travel_time(Position(200, -100, 300), Position(-50, 40, 0), SSP)
        assert t == pytest.approx(T_DEEP, rel=1e-12)

    def test_constant_speed_limit(self):
        # near-vertical geometry at tiny steepness stacks two float
        # cancellations; accuracy here is ~1e-7, well inside the 1e-4
        # contract for this regime
        ssp = SoundSpeedProfile(1480.0, 1e-6)
        t = travel_time(Position(0, 0, 100), Position(1, 0, 0), ssp)
        assert t == pytest.approx(T_CONST_LIMIT, rel=1e-6)
        r = math.hypot(1.0, 100.0)
        assert abs(t - r / 1480.0) / t < 1e-4

    def test_constant_speed_limit_improves(self):
        # the spans are abstract numerical-limit scales, chosen so the
        # O(a^2) model error stays above the float cancellation floor on
        # all three rungs
        q, p = Position(0, 0, 30000.0), Position(5000.0, 0, 0)
        r = math.hypot(_horizontal_range(q, p), q.z - p.z)
        errs = []
        for a in (1e-4, 1e-5, 1e-6):
            ssp = SoundSpeedProfile(1480.0, a)
            b_mid = ssp.surface_speed_b + a * (q.z + p.z) / 2
            t = travel_time(q, p, ssp)
            errs.append(abs(t - r / b_mid) / t)
        assert errs[0] > errs[1] > errs[2]

    @given(separated_pairs())
    def test_reciprocity(self, pair):
        q, p = pair
        t1 = travel_time(q, p, SSP)
        t2 = travel_time(p, q, SSP)
        assert t2 == pytest.approx(t1, rel=1e-12)

    @given(separated_pairs())
    def test_positive(self, pair):
        q, p = pair
        assert travel_time(q, p, SSP) > 0.0

    @given(separated_pairs())
    def test_matches_log_form(self, pair):
        # the documented ln((1+sin)/cos) form, written out directly
        q, p = pair
        assert travel_time(q, p, SSP) == pytest.approx(log_form_time(q, p, SSP), rel=1e-9)


class TestRayGeometry:
    """The per-pair ray quantities taken together."""

    def test_fields_consistent(self):
        q, p = Position(50, 50, 50), Position(92, 50, 0)
        d = _horizontal_range(q, p)
        assert d == pytest.approx(42.0)
        assert _bearing(q, p) == pytest.approx(math.pi)
        assert _elevation(q, p) == pytest.approx(math.atan(50.0 / 42.0))
        assert _deviation(q, p, SSP) == pytest.approx(math.atan(42.0 / 29650.0))
        assert travel_time(q, p, SSP) == pytest.approx(T_CANONICAL, rel=1e-12)

    def test_near_vertical_rejected(self):
        # below the 1e-12 m horizontal tolerance the kernel has no closed form
        t, row = kernel_pair(Position(50, 50, 50), Position(50 + 1e-13, 50, 0), SSP)
        assert math.isnan(t) and np.all(np.isnan(row))

    @given(separated_pairs())
    def test_invariants(self, pair):
        q, p = pair
        d = _horizontal_range(q, p)
        theta = _elevation(q, p)
        alpha = _deviation(q, p, SSP)
        assert math.hypot(d, q.z - p.z) >= d
        assert 0.0 <= alpha < math.pi / 2
        assert -math.pi / 2 < theta < math.pi / 2
        assert abs(theta + alpha) < math.pi / 2
        assert abs(theta - alpha) < math.pi / 2
        assert travel_time(q, p, SSP) > 0


class TestSnellOracle:
    def test_canonical_agreement(self):
        q, p = Position(50, 50, 50), Position(92, 50, 0)
        t_closed = travel_time(q, p, SSP)
        t_oracle = snell_travel_time_oracle(q, p, SSP)
        assert abs(t_oracle - t_closed) / t_closed < 1e-6

    def test_swap_identical(self):
        q, p = Position(50, 50, 50), Position(92, 50, 0)
        assert snell_travel_time_oracle(q, p, SSP) == snell_travel_time_oracle(p, q, SSP)

    def test_vertical_closed_form(self):
        t = snell_travel_time_oracle(Position(0, 0, 100), Position(0, 0, 0), SSP)
        expected = math.log(1490.0 / 1480.0) / 0.1
        assert t == pytest.approx(expected, rel=1e-12)

    def test_constant_speed_limit(self):
        ssp = SoundSpeedProfile(1480.0, 1e-6)
        q, p = Position(0, 0, 100), Position(1, 0, 0)
        t = snell_travel_time_oracle(q, p, ssp)
        r = math.hypot(1.0, 100.0)
        assert abs(t - r / 1480.0) / t < 1e-5

    def test_equal_depths_rejected(self):
        with pytest.raises(ValueError):
            snell_travel_time_oracle(Position(0, 0, 50), Position(100, 0, 50), SSP)

    def test_step_floor(self):
        with pytest.raises(ValueError):
            snell_travel_time_oracle(Position(0, 0, 50), Position(100, 0, 0), SSP, steps=10)

    def test_no_eigenray(self):
        # nearly equal depths, huge horizontal range: only a turning ray
        # could connect these endpoints
        with pytest.raises(NoEigenray):
            snell_travel_time_oracle(Position(0, 0, 101), Position(10000, 0, 100), SSP)

    @settings(max_examples=40)
    @given(
        st.floats(20.0, 2000.0),
        st.floats(5.0, 400.0),
        st.floats(1420.0, 1540.0),
        st.floats(0.02, 0.3),
    )
    def test_matches_closed_form(self, d, dz, b, a):
        # keep the chord elevation away from the vertical (grazing) and
        # safely above the turning limit arccos(C_lo/C_hi), below which
        # no non-turning eigenray exists
        gamma_min = math.acos((b + a * 3.0) / (b + a * (dz + 3.0)))
        floor = max(0.05, 2.5 * gamma_min)
        theta = math.atan2(dz, d)
        if not floor < theta < 1.4:
            d = dz / math.tan(min(max(floor * 1.5, 0.7), 1.4))
        ssp = SoundSpeedProfile(b, a)
        q, p = Position(0, 0, dz + 3.0), Position(d, 0, 3.0)
        t_closed = travel_time(q, p, ssp)
        t_oracle = snell_travel_time_oracle(q, p, ssp)
        assert abs(t_oracle - t_closed) / t_closed < 1e-6
