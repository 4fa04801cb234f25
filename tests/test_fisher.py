import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auvgeom.errors import (
    DegenerateGeometry,
    SingularFim,
    TooFewAnchors,
    ZeroDiagonal,
)
from auvgeom.deployment import cube_positions, random_positions, usc_positions
from auvgeom.fisher import (
    CONDITION_LIMIT,
    DEGENERACY_TOL,
    FimResult,
    NoiseModel,
    _condition_number,
    _condition_screen,
    _time_and_rows,
    _variance_at,
    diagonal_lower_bound,
    fim,
    noise_variance,
)
from auvgeom.geometry import COINCIDENT_TOL, Position, SoundSpeedProfile
from adapters import kernel_pair
from oracles import (
    _deviation,
    _elevation,
    _horizontal_range,
    _slant_range,
    anchor_variance,
    angle_sum_fim,
    chain_row,
    closed_row,
    log_form_time,
    reference_diagonal_lower_bound,
    reference_fim,
)

SSP = SoundSpeedProfile(1480.0, 0.1)
NOISE_1MS = NoiseModel.constant_variance(1e-3)

# frozen 50-digit evaluations
SIGMA2_L2000 = 0.50357016471766688417
JAC_CANON = (-0.00043385594679723012456, 0.0, 0.00051501212060024318239)


def fd_row(q, p, ssp, h=1e-3):
    """Central finite differences of the kernel's travel time, the Jacobian oracle."""
    out = []
    for axis in range(3):
        delta = [0.0, 0.0, 0.0]
        delta[axis] = h
        hi = Position(q.x + delta[0], q.y + delta[1], q.z + delta[2])
        lo = Position(q.x - delta[0], q.y - delta[1], q.z - delta[2])
        out.append((kernel_pair(hi, p, ssp)[0] - kernel_pair(lo, p, ssp)[0]) / (2 * h))
    return tuple(out)


def kernel_rows(q, anchors):
    """The kernel's (N, 3) Jacobian rows from q to each anchor."""
    return _time_and_rows(q.as_array(), np.array([p.as_array() for p in anchors]), SSP)[1]


def oracle_invalid(q, p):
    """(invalid, near): the pair's validity from the oracle angles.

    Invalid is zero horizontal range, cos(theta + alpha) or
    cos(theta - alpha) at most 1e-12, or |cos^2(theta) - sin^2(alpha)|
    below 1e-12.  Near marks a pair whose cosines or difference sit within
    rounding of their threshold, where the kernel's own arithmetic may
    land on the other side; the range is the same hypot on both sides.
    """
    d = _horizontal_range(q, p)
    if d <= COINCIDENT_TOL:
        return True, False
    theta = _elevation(q, p)
    alpha = _deviation(q, p, SSP)
    cos_hi = math.cos(theta + alpha)
    cos_lo = math.cos(theta - alpha)
    diff = math.cos(theta) ** 2 - math.sin(alpha) ** 2
    invalid = cos_hi <= 1e-12 or cos_lo <= 1e-12 or abs(diff) < DEGENERACY_TOL
    margin = min(abs(cos_hi - 1e-12), abs(cos_lo - 1e-12), abs(abs(diff) - DEGENERACY_TOL))
    return invalid, margin < 1e-15


def random_scene(rng, n=6, min_d=12.0):
    q = Position(*(rng.uniform(-300, 300, 2)), rng.uniform(20, 400))
    anchors = []
    while len(anchors) < n:
        p = Position(*(rng.uniform(-500, 500, 2)), rng.uniform(0, 300))
        if math.hypot(q.x - p.x, q.y - p.y) >= min_d:
            anchors.append(p)
    return q, anchors


class TestNoiseVariance:
    def test_reference_distance(self):
        noise = NoiseModel.distance_dependent()
        assert noise_variance(noise, 1000.0) == pytest.approx(0.1, rel=1e-14)

    def test_constant_one_ms(self):
        noise = NoiseModel.constant_variance(1e-3)
        assert noise_variance(noise, 123.0) == pytest.approx(1e-6, rel=1e-15)

    def test_two_km_frozen(self):
        noise = NoiseModel.distance_dependent()
        assert noise_variance(noise, 2000.0) == pytest.approx(SIGMA2_L2000, rel=1e-14)

    def test_nonpositive_distance(self):
        with pytest.raises(ValueError):
            noise_variance(NoiseModel.distance_dependent(), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.constant_variance(0.0)
        with pytest.raises(ValueError):
            NoiseModel.distance_dependent(beta=2.5)
        with pytest.raises(ValueError):
            NoiseModel(kind="bogus")

    @given(st.floats(10.0, 50000.0), st.floats(10.0, 50000.0))
    def test_monotone_in_distance(self, l1, l2):
        noise = NoiseModel.distance_dependent()
        lo, hi = sorted((l1, l2))
        assert noise_variance(noise, lo) <= noise_variance(noise, hi)


class TestJacobianRow:
    """The kernel's rows against frozen values, differences and the chain rule."""

    def test_canonical_frozen(self):
        _, row = kernel_pair(Position(50, 50, 50), Position(92, 50, 0), SSP)
        assert row[0] == pytest.approx(JAC_CANON[0], rel=1e-12)
        assert abs(row[1]) < 1e-18
        assert row[2] == pytest.approx(JAC_CANON[2], rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q, anchors = random_scene(rng, n=1)
            p = anchors[0]
            _, got = kernel_pair(q, p, SSP)
            want = fd_row(q, p, SSP)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-5, abs=1e-12)

    def test_chain_matches_closed(self):
        # the kernel's closed form against the chain-rule oracle
        rng = np.random.default_rng(11)
        for _ in range(200):
            q, anchors = random_scene(rng, n=1)
            p = anchors[0]
            _, closed = kernel_pair(q, p, SSP)
            chain = chain_row(q, p, SSP)
            for c, h in zip(closed, chain):
                assert h == pytest.approx(c, rel=1e-12, abs=1e-20)

    def test_mirrored_anchors_antisymmetric_x(self):
        q = Position(0, 0, 60)
        _, row_e = kernel_pair(q, Position(80, 0, 0), SSP)
        _, row_w = kernel_pair(q, Position(-80, 0, 0), SSP)
        assert row_e[0] == pytest.approx(-row_w[0], rel=1e-12)
        assert row_e[2] == pytest.approx(row_w[2], rel=1e-12)

    def test_degenerate_vertical(self):
        q = Position(0, 0, 50)
        anchors = [Position(0, 0, 0), Position(60, 0, 0), Position(0, 60, 0), Position(-60, 0, 0)]
        with pytest.raises(DegenerateGeometry, match="anchor 0: zero horizontal range"):
            fim(q, anchors, SSP, NOISE_1MS)


class TestJacobian:
    """The whole Jacobian: kernel rows over an anchor set, and fim's checks on it."""

    def test_too_few(self):
        q = Position(0, 0, 50)
        anchors = [Position(60, 0, 0), Position(0, 60, 0), Position(-60, 0, 0)]
        with pytest.raises(TooFewAnchors):
            fim(q, anchors, SSP, NOISE_1MS)

    def test_error_tagged_with_index(self):
        q = Position(0, 0, 50)
        anchors = [
            Position(60, 0, 0),
            Position(0, 60, 0),
            Position(0, 0, 0),  # vertical, degenerate
            Position(-60, 0, 0),
        ]
        with pytest.raises(DegenerateGeometry, match="anchor 2"):
            fim(q, anchors, SSP, NOISE_1MS)

    def test_shape_and_fd(self):
        rng = np.random.default_rng(3)
        q, anchors = random_scene(rng, n=6)
        rows = kernel_rows(q, anchors)
        assert rows.shape == (6, 3)
        assert np.all(np.isfinite(rows))
        for i, p in enumerate(anchors):
            want = fd_row(q, p, SSP)
            for j in range(3):
                assert rows[i, j] == pytest.approx(want[j], rel=1e-5, abs=1e-12)


class TestFim:
    def test_vertical_plane_singular(self):
        q = Position(0, 0, 50)
        anchors = [Position(x, 0, 0) for x in (40, 90, -60, -120)]
        with pytest.raises(SingularFim):
            fim(q, anchors, SSP, NoiseModel.constant_variance(1e-3))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            q, anchors = random_scene(rng)
            res = fim(q, anchors, SSP, NoiseModel.distance_dependent())
            assert np.allclose(res.fim, res.fim.T, rtol=1e-12)
            eig = np.linalg.eigvalsh(res.fim)
            assert eig.min() >= -1e-12 * eig.max()

    def test_crlb_inverts_fim(self):
        rng = np.random.default_rng(23)
        q, anchors = random_scene(rng)
        res = fim(q, anchors, SSP, NoiseModel.constant_variance(1e-3))
        assert np.allclose(res.fim @ res.crlb, np.eye(3), atol=1e-9)

    def test_sigma_scaling_exact(self):
        rng = np.random.default_rng(29)
        q, anchors = random_scene(rng)
        r1 = fim(q, anchors, SSP, NoiseModel.constant_variance(1e-3))
        r2 = fim(q, anchors, SSP, NoiseModel.constant_variance(3e-3))
        assert r2.trace_crlb == pytest.approx(9.0 * r1.trace_crlb, rel=1e-12)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel.constant_variance(1e-3),
            NoiseModel.distance_dependent(),
        ],
        ids=["constant", "distance"],
    )
    def test_matches_angle_sum_oracle(self, noise):
        rng = np.random.default_rng(37)
        for _ in range(100):
            q, anchors = random_scene(rng, n=int(rng.integers(4, 12)))
            want = angle_sum_fim(q, anchors, SSP, noise)
            got = fim(q, anchors, SSP, noise).fim
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_matches_chain_rule_rows(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            q, anchors = random_scene(rng)
            rows = kernel_rows(q, anchors)
            want = np.array([chain_row(q, p, SSP) for p in anchors])
            gap = np.linalg.norm(rows - want, axis=1)
            assert np.all(gap <= 1e-12 * np.linalg.norm(want, axis=1))

    def test_vanishing_variance_is_singular(self):
        # sigma^2 underflows to 0, so the Fisher matrix is not finite
        q, anchors = random_scene(np.random.default_rng(53))
        with pytest.raises(SingularFim):
            fim(q, anchors, SSP, NoiseModel.distance_dependent(ke_db=-2.2e163))


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def oracle_scenes(rng, count):
    """count seeded (q, anchors, ssp, noise) scenes.

    The layouts cycle through usc, cube and random and the noise models
    through distance-dependent and constant, so every pairing recurs;
    n runs over 4-8, z over 1-300 m and the steepness over 1e-4-1 s^-1.
    """
    for i in range(count):
        z = rng.uniform(1.0, 300.0)
        q = Position(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0), z)
        n = int(rng.integers(4, 9))
        layout = i % 3
        if layout == 0:
            anchors = usc_positions(q, n, 10.0 ** rng.uniform(-1.0, 0.7))
        elif layout == 1:
            offset = z * rng.uniform(-3.0, 3.0, 2)
            center = Position(q.x + offset[0], q.y + offset[1], 0.0)
            anchors = cube_positions(center, z * rng.uniform(0.2, 3.0), n)
        else:
            half = z * rng.uniform(0.5, 3.0)
            box = ((q.x - half, q.x + half), (q.y - half, q.y + half), (0.0, z * rng.uniform(0.0, 2.0)))
            anchors = random_positions(box, n, rng)
        ssp = SoundSpeedProfile(1480.0, 10.0 ** rng.uniform(-4.0, 0.0))
        if i % 2:
            noise = NoiseModel.constant_variance(10.0 ** rng.uniform(-5.0, -2.0))
        else:
            noise = NoiseModel.distance_dependent(
                ke_db=rng.uniform(-40.0, 10.0),
                beta=rng.uniform(1.0, 2.0),
                l0=10.0 ** rng.uniform(1.0, 4.0),
                l_f_db_per_km=rng.uniform(0.0, 5.0),
            )
        yield q, anchors, ssp, noise


def _ring(q, d=60.0):
    return [Position(q.x + d, q.y, 0), Position(q.x, q.y + d, 0), Position(q.x - d, q.y, 0)]


# the error scenes the suite builds elsewhere, with the error each raises
ERROR_SCENES = {
    "anchor straight above": (
        Position(0, 0, 100), [Position(0, 0, 0), *_ring(Position(0, 0, 100))], DegenerateGeometry
    ),
    "grazing pair": (
        Position(0, 0, 1000), [Position(1e-10, 0, 0), *_ring(Position(0, 0, 1000))],
        DegenerateGeometry,
    ),
    "one vertical plane": (
        Position(0, 0, 50), [Position(x, 0, 0) for x in (40, 90, -60, -120)], SingularFim
    ),
    "three anchors": (Position(0, 0, 50), _ring(Position(0, 0, 50)), TooFewAnchors),
}


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (DegenerateGeometry, SingularFim, TooFewAnchors, ZeroDiagonal) as e:
        return type(e), str(e)


class TestFimOracle:
    """fim against the reference written with the batched screen and np.linalg.cond."""

    def assert_same(self, q, anchors, ssp, noise):
        got = outcome(fim, q, anchors, ssp, noise)
        want = outcome(reference_fim, q, anchors, ssp, noise)
        if isinstance(want, tuple):
            assert got == want
            return want[0]
        assert isinstance(got.trace_crlb, float) and isinstance(got.offdiag_residual, float)
        assert isinstance(got.condition_number, float)
        for name in ("fim", "crlb", "trace_crlb", "offdiag_residual"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name
        assert bits(outcome(diagonal_lower_bound, got)) == bits(
            outcome(reference_diagonal_lower_bound, want)
        )
        assert got.condition_number == pytest.approx(want.condition_number, rel=1e-9)
        return None

    def test_seeded_scenes_match_bit_for_bit(self):
        errors = [
            self.assert_same(*scene)
            for scene in oracle_scenes(np.random.default_rng(59), 5400)
        ]
        assert errors.count(None) > 5000

    @pytest.mark.parametrize("name", sorted(ERROR_SCENES))
    def test_error_scenes_raise_alike(self, name):
        q, anchors, error = ERROR_SCENES[name]
        assert self.assert_same(q, anchors, SSP, NOISE_1MS) is error

    def test_underflowing_variance_raises_alike(self):
        # sigma^2 underflows to 0, so the Fisher matrix is not finite
        q, anchors = random_scene(np.random.default_rng(53))
        noise = NoiseModel.distance_dependent(ke_db=-2.2e163)
        assert self.assert_same(q, anchors, SSP, noise) is SingularFim

    def test_hand_built_result_has_no_condition_number(self):
        f = np.eye(3)
        res = FimResult(fim=f, crlb=f, trace_crlb=3.0, offdiag_residual=0.0)
        assert math.isnan(res.condition_number)


class TestConditionRule:
    """fim's refusal is the batched screen's verdict, one rule for both."""

    def test_refusal_is_the_screen_verdict(self):
        # seeded symmetric PSD matrices with cond log-uniform over 1e9-1e14,
        # a middle eigenvalue between, entry scales over 1e-8-1e8 and random
        # orientations, plus non-finite and exactly singular matrices
        rng = np.random.default_rng(67)
        n = 3000
        rot, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        cond = 10.0 ** rng.uniform(9.0, 14.0, n)
        mid = cond ** rng.uniform(0.0, 1.0, n)
        scale = 10.0 ** rng.uniform(-8.0, 8.0, n)
        lam = scale[:, None] * np.stack([np.ones(n), 1.0 / mid, 1.0 / cond], axis=1)
        m = np.einsum("bij,bj,bkj->bik", rot, lam, rot)
        m = 0.5 * (m + m.transpose(0, 2, 1))
        special = np.array(
            [
                np.full((3, 3), np.nan),
                np.diag([1.0, np.inf, 1.0]),
                np.array([[1.0, -np.inf, 0.0], [-np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.zeros((3, 3)),
                np.diag([3.0, 1.0, 0.0]),
                np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                np.eye(3),
            ]
        )
        m = np.concatenate([m, special])
        ill, cleared = _condition_screen(m)
        refused = np.array([not _condition_number(x) <= CONDITION_LIMIT for x in m])
        np.testing.assert_array_equal(refused, ill)
        # most matrices take the eigenvalue solve, and the verdicts split
        assert (~cleared).sum() > 2000
        assert 500 < ill.sum() < n
        assert ill[-7:].tolist() == [True] * 6 + [False]

    def test_reported_number_is_the_compared_one(self):
        rng = np.random.default_rng(71)
        q, anchors = random_scene(rng)
        res = fim(q, anchors, SSP, NOISE_1MS)
        assert res.condition_number == _condition_number(res.fim)


class TestDiagonalLowerBound:
    def test_bound_below_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            q, anchors = random_scene(rng)
            try:
                res = fim(q, anchors, SSP, NoiseModel.constant_variance(1e-3))
            except SingularFim:
                continue
            bound = diagonal_lower_bound(res)
            assert bound <= res.trace_crlb * (1 + 1e-12)

    def test_diagonal_equality(self):
        f = np.diag([4.0, 9.0, 16.0])
        res = FimResult(fim=f, crlb=np.diag([0.25, 1 / 9, 1 / 16]),
                        trace_crlb=0.25 + 1 / 9 + 1 / 16, offdiag_residual=0.0)
        assert diagonal_lower_bound(res) == pytest.approx(res.trace_crlb, rel=1e-15)

    def test_zero_diagonal(self):
        f = np.diag([1.0, 0.0, 2.0])
        res = FimResult(fim=f, crlb=f, trace_crlb=0.0, offdiag_residual=0.0)
        with pytest.raises(ZeroDiagonal):
            diagonal_lower_bound(res)

    def test_perturbed_anchor_strict(self):
        # symmetric ring gives equality; nudging one anchor off the ring
        # makes the bound strictly smaller than the trace
        q = Position(50, 50, 50)
        ring = [Position(50 + 45 * math.cos(2 * math.pi * i / 4),
                         50 + 45 * math.sin(2 * math.pi * i / 4), 0) for i in range(1, 5)]
        ring[0] = Position(ring[0].x + 5, ring[0].y + 3, 0)
        res = fim(q, ring, SSP, NoiseModel.constant_variance(1e-3))
        assert diagonal_lower_bound(res) < res.trace_crlb * (1 - 1e-10)


class TestBatchedCore:
    def test_matches_scalar_ops(self):
        rng = np.random.default_rng(41)
        q, anchors = random_scene(rng, n=5)
        q_xyz = q.as_array()
        p_xyz = np.array([p.as_array() for p in anchors])
        t, rows, _ = _time_and_rows(q_xyz, p_xyz, SSP)
        assert t.shape == (5,)
        assert rows.shape == (5, 3)
        for i, p in enumerate(anchors):
            assert t[i] == pytest.approx(log_form_time(q, p, SSP), rel=1e-9)
            want = closed_row(q, p, SSP)
            for j in range(3):
                assert rows[i, j] == pytest.approx(want[j], rel=1e-12, abs=1e-20)

    def test_invalid_rows_nan(self):
        q_xyz = np.array([0.0, 0.0, 50.0])
        p_xyz = np.array([[0.0, 0.0, 0.0], [60.0, 0.0, 0.0]])
        t, rows, _ = _time_and_rows(q_xyz, p_xyz, SSP)
        assert math.isnan(t[0]) and np.all(np.isnan(rows[0]))
        assert math.isfinite(t[1]) and np.all(np.isfinite(rows[1]))
        # a grazing pair (cos(theta + alpha) ~ 1e-13) and a coincident pair
        q_xyz = np.array([[0.0, 0.0, 1000.0], [7.0, -3.0, 20.0]])
        p_xyz = np.array([[[1e-10, 0.0, 0.0]], [[7.0, -3.0, 20.0]]])
        t, rows, _ = _time_and_rows(q_xyz, p_xyz, SSP)
        assert np.all(np.isnan(t)) and np.all(np.isnan(rows))

    def test_nan_pairs_match_angle_oracle(self):
        # seeded fuzz: ordinary pairs; near-vertical pairs whose horizontal
        # range spans the cos^2(theta) - sin^2(alpha) bound and the
        # grazing cosines; depths far above the surface, where
        # 2b/a + z_q + z_p turns negative and rays pass pi/2; and
        # coincident pairs on and around the 1e-12 m range bound
        rng = np.random.default_rng(44)
        q = rng.uniform(-300.0, 300.0, (900, 3))
        q[:, 2] = rng.uniform(1.0, 400.0, 900)
        p = rng.uniform(-300.0, 300.0, (900, 3))
        p[:, 2] = rng.uniform(0.0, 100.0, 900)
        phi = rng.uniform(-math.pi, math.pi, 300)
        d = 10.0 ** rng.uniform(-13.0, -2.0, 300)
        p[300:600, 0] = q[300:600, 0] + d * np.cos(phi)
        p[300:600, 1] = q[300:600, 1] + d * np.sin(phi)
        q[600:800, 2] = rng.uniform(-20000.0, -10000.0, 200)
        p[600:800, 2] = rng.uniform(-20000.0, -10000.0, 200)
        p[600:800, :2] = q[600:800, :2] + 10.0 ** rng.uniform(0.0, 4.0, (200, 1)) * [1.0, 0.0]
        offsets = np.array([0.0, 0.0, 5e-13, 1e-12, 1e-12 * (1 + 2**-52), 2e-12])
        p[800:, 0] = 0.0
        q[800:] = p[800:] + np.tile(offsets, 17)[:100, None] * [1.0, 0.0, 0.0]
        t, rows, _ = _time_and_rows(q, p[:, None], SSP)
        assert t.shape == (900, 1)
        nan_t = np.isnan(t[:, 0])
        assert (np.isnan(rows[:, 0]) == nan_t[:, None]).all()

        pairs = [(Position(*qi), Position(*pi)) for qi, pi in zip(q, p)]
        want, near = map(np.array, zip(*(oracle_invalid(qi, pi) for qi, pi in pairs)))
        # every group holds both outcomes
        for lo, hi in ((300, 600), (600, 800), (800, 900)):
            assert 0 < want[lo:hi].sum() < hi - lo
        differ = np.flatnonzero(nan_t != want)
        far = [int(i) for i in differ if not near[i]]
        assert not far, f"kernel NaN pattern differs from the oracle at pairs {far}"
        if differ.size:
            warnings.warn(f"pairs straddling a threshold by rounding: {differ.tolist()}")

    def test_near_vertical_matches_the_straight_ray(self):
        # at steepness 1e-6 the bent-ray correction is about 1e-14, so the
        # travel time is the straight-ray form (r / dz) * ln(c(z_q) / c(z_p)) / a;
        # an arctan / tan round trip near the vertical loses 3e-5 here
        rng = np.random.default_rng(45)
        ssp = SoundSpeedProfile(1480.0, 1e-6)
        d = 10.0 ** rng.uniform(-2.0, 1.0, 2000)
        phi = rng.uniform(-math.pi, math.pi, 2000)
        zq = rng.uniform(20.0, 300.0, 2000)
        zp = rng.uniform(0.0, 10.0, 2000)
        q = np.column_stack((d * np.cos(phi), d * np.sin(phi), zq))
        p = np.column_stack((np.zeros(2000), np.zeros(2000), zp))
        t, _, _ = _time_and_rows(q, p[:, None], ssp)
        dz = zq - zp
        a, b = ssp.steepness_a, ssp.surface_speed_b
        straight = np.sqrt(d * d + dz * dz) / dz * np.log1p(a * dz / (b + a * zp)) / a
        assert np.max(np.abs(t[:, 0] / straight - 1.0)) < 1e-6

    def test_broadcast_trials(self):
        rng = np.random.default_rng(43)
        q_xyz = rng.uniform(-100, 100, (7, 3))
        q_xyz[:, 2] = rng.uniform(20, 200, 7)
        p_xyz = rng.uniform(-300, 300, (7, 4, 3))
        p_xyz[..., 2] = rng.uniform(0, 100, (7, 4))
        t, rows, _ = _time_and_rows(q_xyz, p_xyz, SSP)
        assert t.shape == (7, 4)
        assert rows.shape == (7, 4, 3)
        # one entry of the batch against the kernel on that pair alone
        t0, row0 = kernel_pair(Position(*q_xyz[3]), Position(*p_xyz[3, 2]), SSP)
        assert t[3, 2] == pytest.approx(t0, rel=1e-14)
        for j in range(3):
            assert rows[3, 2, j] == pytest.approx(row0[j], rel=1e-14)


class TestKernelRange:
    """The kernel's third output: the slant range of every pair, from
    which the noise model's variances come."""

    @staticmethod
    def check_ranges(q_xyz, p_xyz, r):
        # each pair of the broadcast against the oracle's hypot form
        qs, ps = np.broadcast_arrays(q_xyz[..., None, :], p_xyz)
        assert r.shape == qs.shape[:-1]
        for idx in np.ndindex(r.shape):
            want = _slant_range(Position(*qs[idx]), Position(*ps[idx]))
            assert r[idx] == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_batch_against_samples(self):
        # q (B, S, 3) against one layout per batch entry, p (B, 1, N, 3)
        rng = np.random.default_rng(46)
        q_xyz = rng.uniform(-300.0, 300.0, (4, 3, 3))
        q_xyz[..., 2] = rng.uniform(20.0, 400.0, (4, 3))
        p_xyz = rng.uniform(-500.0, 500.0, (4, 1, 6, 3))
        p_xyz[..., 2] = rng.uniform(0.0, 300.0, (4, 1, 6))
        t, rows, r = _time_and_rows(q_xyz, p_xyz, SSP)
        assert t.shape == r.shape == (4, 3, 6) and rows.shape == (4, 3, 6, 3)
        self.check_ranges(q_xyz, p_xyz, r)

    def test_one_point_against_a_layout(self):
        q, anchors = random_scene(np.random.default_rng(47), n=7)
        p_xyz = np.array([p.as_array() for p in anchors])
        _, _, r = _time_and_rows(q.as_array(), p_xyz, SSP)
        assert r.shape == (7,)
        self.check_ranges(q.as_array(), p_xyz, r)

    @pytest.mark.parametrize(
        "noise", [NoiseModel.distance_dependent(), NoiseModel.constant_variance(2e-3)]
    )
    def test_variances_match_the_oracle(self, noise):
        q, anchors = random_scene(np.random.default_rng(48), n=8)
        p_xyz = np.array([p.as_array() for p in anchors])
        _, _, r = _time_and_rows(q.as_array(), p_xyz, SSP)
        got = _variance_at(noise, r)
        for g, p in zip(got.tolist(), anchors):
            assert g == pytest.approx(anchor_variance(q, p, noise), rel=1e-13)

    def test_nan_pairs_keep_their_range(self):
        # a vertical pair, a grazing pair and a coincident pair: t and
        # rows are NaN, r is still the slant range
        q_xyz = np.array([[0.0, 0.0, 50.0], [0.0, 0.0, 1000.0], [7.0, -3.0, 20.0]])
        p_xyz = np.array([[[0.0, 0.0, 0.0]], [[1e-10, 0.0, 0.0]], [[7.0, -3.0, 20.0]]])
        t, rows, r = _time_and_rows(q_xyz, p_xyz, SSP)
        assert np.isnan(t).all() and np.isnan(rows).all()
        assert r[:, 0].tolist() == [50.0, 1000.0, 0.0]
        self.check_ranges(q_xyz, p_xyz, r)
