"""Tests for anchor layout generation and the radius-scale search."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auvgeom import deployment
from auvgeom.deployment import (
    KSearchResult,
    OptimizerConfig,
    cube_positions,
    default_box_for,
    default_cube_for,
    grid_search_k,
    k_objective,
    optimize_k,
    random_layouts,
    random_positions,
    usc_positions,
    usc_trace_crlb_closed_form,
)
from auvgeom.errors import (
    DegenerateAfterRetries,
    NonPositiveK,
    TooFewAnchors,
    UnsupportedCount,
)
from auvgeom.fisher import NoiseModel, fim
from auvgeom.geometry import Position, SoundSpeedProfile
from auvgeom.harness import Cube, Random, Scenario, Usc, _fixed_layout

from oracles import (
    reference_degenerate,
    reference_grid_formula,
    reference_grid_search_k,
    reference_grid_values,
    reference_k_objective,
    reference_optimize_k,
)

SSP = SoundSpeedProfile(surface_speed_b=1480.0, steepness_a=0.1)

def scene(auv, deployment):
    return Scenario(
        auv_truth=auv,
        deployment=deployment,
        ssp=SSP,
        noise=NoiseModel.constant_variance(1e-3),
        trials=1,
        master_seed=0,
    )


# Frozen against a 50-digit evaluation of the closed form.
TRACE_K1_Z50_N4 = 5.5019688345307934624
TRACE_KSTAR_Z50_N8 = 3.0878224268268687682


class TestUscPositions:
    def test_square_at_unit_scale(self):
        got = usc_positions(Position(50.0, 50.0, 50.0), 4, 1.0)
        want = [(50.0, 100.0), (0.0, 50.0), (50.0, 0.0), (100.0, 50.0)]
        for p, (wx, wy) in zip(got, want):
            assert p.x == pytest.approx(wx, abs=1e-9)
            assert p.y == pytest.approx(wy, abs=1e-9)
            assert p.z == 0.0

    def test_all_on_surface_circle(self):
        auv = Position(-20.0, 35.0, 80.0)
        k = 0.85
        for p in usc_positions(auv, 7, k):
            assert p.z == 0.0
            d = math.hypot(p.x - auv.x, p.y - auv.y)
            assert d == pytest.approx(k * auv.z, rel=1e-12)

    def test_angles_uniform(self):
        auv = Position(0.0, 0.0, 60.0)
        pts = usc_positions(auv, 6, 1.2)
        angles = sorted(math.atan2(p.y, p.x) for p in pts)
        gaps = np.diff(angles)
        assert np.allclose(gaps, 2.0 * math.pi / 6, atol=1e-12)

    def test_layout_builder(self):
        auv = Position(1.0, 2.0, 30.0)
        anchors, k = _fixed_layout(scene(auv, Usc(scale_k=0.9, n=5)))
        assert k == 0.9
        assert anchors == usc_positions(auv, 5, 0.9)

    def test_too_few_anchors(self):
        with pytest.raises(TooFewAnchors):
            usc_positions(Position(0.0, 0.0, 50.0), 3, 1.0)

    def test_bad_scale_and_depth(self):
        with pytest.raises(ValueError):
            usc_positions(Position(0.0, 0.0, 50.0), 4, 0.0)
        with pytest.raises(ValueError):
            usc_positions(Position(0.0, 0.0, 0.0), 4, 1.0)


class TestClosedFormTrace:
    def test_frozen_values(self):
        got = usc_trace_crlb_closed_form(1.0, 50.0, 4, SSP, 1e-6)
        assert got == pytest.approx(TRACE_K1_Z50_N4, rel=1e-13)
        got = usc_trace_crlb_closed_form(0.8526, 50.0, 8, SSP, 1e-6)
        assert got == pytest.approx(TRACE_KSTAR_Z50_N8, rel=1e-13)

    def test_inverse_anchor_count(self):
        # both terms carry 1/N, so doubling N exactly halves the trace
        t4 = usc_trace_crlb_closed_form(1.3, 75.0, 4, SSP, 1e-6)
        t8 = usc_trace_crlb_closed_form(1.3, 75.0, 8, SSP, 1e-6)
        assert t4 / t8 == pytest.approx(2.0, rel=1e-15)

    def test_strictly_decreasing_in_n(self):
        vals = [usc_trace_crlb_closed_form(0.9, 50.0, n, SSP, 1e-6) for n in range(4, 17)]
        assert all(lo < hi for lo, hi in zip(vals[1:], vals))

    def test_validation(self):
        with pytest.raises(ValueError):
            usc_trace_crlb_closed_form(0.0, 50.0, 4, SSP, 1e-6)
        with pytest.raises(ValueError):
            usc_trace_crlb_closed_form(1.0, -5.0, 4, SSP, 1e-6)
        with pytest.raises(TooFewAnchors):
            usc_trace_crlb_closed_form(1.0, 50.0, 3, SSP, 1e-6)

    @settings(max_examples=60)
    @given(
        k=st.floats(0.2, 3.0),
        z=st.floats(5.0, 200.0),
        n=st.integers(4, 12),
    )
    def test_matches_generic_fim_route(self, k, z, n):
        # the symmetry argument behind the closed form, checked against
        # the anchor-by-anchor Fisher assembly
        sigma2 = 1e-6
        auv = Position(10.0, -4.0, z)
        anchors = usc_positions(auv, n, k)
        noise = NoiseModel.constant_variance(math.sqrt(sigma2))
        res = fim(auv, anchors, SSP, noise)
        want = usc_trace_crlb_closed_form(k, z, n, SSP, sigma2)
        assert res.trace_crlb == pytest.approx(want, rel=1e-8)

    @settings(max_examples=60)
    @given(
        k=st.floats(0.2, 3.0),
        z=st.floats(5.0, 200.0),
        n=st.integers(4, 12),
    )
    def test_fim_orthogonality(self, k, z, n):
        # equal spacing makes the cross terms cancel
        auv = Position(0.0, 0.0, z)
        anchors = usc_positions(auv, n, k)
        res = fim(auv, anchors, SSP, NoiseModel.constant_variance(1e-3))
        assert res.offdiag_residual <= 1e-12

    def test_orthogonality_wide_count_range(self):
        auv = Position(25.0, 25.0, 50.0)
        for n in (4, 5, 8, 16, 33, 64):
            res = fim(
                auv,
                usc_positions(auv, n, 0.8526),
                SSP,
                NoiseModel.constant_variance(1e-3),
            )
            assert res.offdiag_residual <= 1e-12


DD_NOISE = NoiseModel.distance_dependent()


class TestOptimizeK:
    def test_distance_dependent_optimum(self):
        res = optimize_k(50.0, 4, SSP, DD_NOISE)
        assert res.converged
        assert 0.83 <= res.k_star <= 0.86
        ref = grid_search_k(50.0, 4, SSP, DD_NOISE, 0.1, 3.0, 4000)
        assert res.k_star == pytest.approx(ref, abs=2e-3)

    def test_constant_noise_optimum(self):
        noise = NoiseModel.constant_variance(1e-3)
        res = optimize_k(50.0, 4, SSP, noise)
        assert res.converged
        ref = grid_search_k(50.0, 4, SSP, noise, 0.1, 3.0, 4000)
        assert res.k_star == pytest.approx(ref, abs=2e-3)
        assert 1.35 <= res.k_star <= 1.45

    def test_optimum_independent_of_anchor_count(self):
        # the objective is proportional to 1/N, so the argmin is not
        ks = [optimize_k(50.0, n, SSP, DD_NOISE).k_star for n in (4, 8, 16)]
        assert max(ks) - min(ks) <= 1e-9

    def test_descent_never_worsens_objective(self):
        for k0 in (0.3, 1.0, 2.5):
            cfg = OptimizerConfig(initial_k=k0)
            res = optimize_k(60.0, 6, SSP, DD_NOISE, cfg)
            start = k_objective(k0, 60.0, 6, SSP, DD_NOISE)
            assert res.objective <= start * (1.0 + 1e-12)

    def test_reported_objective_matches_iterate(self):
        res = optimize_k(50.0, 8, SSP, DD_NOISE)
        want = k_objective(res.k_star, 50.0, 8, SSP, DD_NOISE)
        assert res.objective == pytest.approx(want, rel=1e-12)

    def test_budget_exhaustion_flags_not_converged(self):
        cfg = OptimizerConfig(initial_k=2.8, max_iterations_Nmax=2)
        res = optimize_k(50.0, 4, SSP, DD_NOISE, cfg)
        assert not res.converged
        assert res.iterations == 2

    @staticmethod
    def inject(monkeypatch, objective):
        # the search evaluates the objective its scene builder returns;
        # returns the scales the search evaluated it at
        calls = []

        def build(z, n, ssp, noise):
            def f(k):
                calls.append(k)
                return objective(k)

            return f, None

        monkeypatch.setattr(deployment, "_k_objective_fn", build)
        return calls

    def test_non_positive_guard(self, monkeypatch):
        # a pathological objective whose gradient outruns every backtracking
        # halving; the real closed form cannot reach this branch
        calls = self.inject(monkeypatch, lambda k: 1.0 + 1e25 * (k - 1.0))
        with pytest.raises(NonPositiveK):
            optimize_k(50.0, 4, SSP, DD_NOISE)
        # the start and both finite-difference points; no halving stays positive
        assert len(calls) == 3 and calls[0] == 1.0

    def test_no_descent_at_float_resolution_stops(self, monkeypatch):
        # a kink at k = 1 steeper than the slope: every halved step that
        # keeps k positive raises the objective, down to float resolution
        calls = self.inject(monkeypatch, lambda k: 1.0 + 1e6 * abs(k - 1.0) + 1e4 * (k - 1.0))
        res = optimize_k(50.0, 4, SSP, DD_NOISE)
        assert res.k_star == 1.0
        assert res.iterations == 1
        assert res.converged is False
        # the start, both finite-difference points, then every halved candidate
        assert len(calls) > 3 and calls[0] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(initial_k=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(step_size_t=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(precision_eps=-1e-6)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations_Nmax=0)
        with pytest.raises(ValueError):
            OptimizerConfig(fd_step_h=0.0)

    def test_non_finite_start_raises(self):
        # 10^(ke_db/10) overflows, so the objective is inf at initial_k
        with pytest.raises(ValueError, match=r"objective .* is inf at k=1\.0"):
            optimize_k(50.0, 8, SSP, NoiseModel.distance_dependent(ke_db=1e308))

    @staticmethod
    def oracle_configs(count, seed=18):
        # seeded scenes and search settings; one in ten takes a steepness
        # extreme of TestGridSearchK, and the noise draws include variances
        # that overflow or underflow everywhere or only part of the way
        rng = np.random.default_rng(seed)
        extremes = (5e-324, 1e30, 4e257)
        for i in range(count):
            z = float(10.0 ** rng.uniform(0.0, math.log10(3000.0)))
            n = int(rng.integers(4, 13))
            a = extremes[i // 10 % 3] if i % 10 == 9 else float(10.0 ** rng.uniform(-4.0, 0.0))
            ssp = SoundSpeedProfile(float(rng.uniform(1400.0, 1600.0)), a)
            if i % 2:
                sigma = rng.choice(
                    [1e305, 1e-200, 10.0 ** rng.uniform(-5.0, -1.0)], p=[0.05, 0.05, 0.9]
                )
                noise = NoiseModel.constant_variance(float(sigma))
            else:
                ke_db = rng.choice(
                    [-2.2e163, 1e308, rng.uniform(-3260.0, -3200.0),
                     rng.uniform(3060.0, 3140.0), rng.uniform(-40.0, 10.0)],
                    p=[0.05, 0.05, 0.1, 0.1, 0.7],
                )
                noise = NoiseModel.distance_dependent(
                    float(ke_db), float(rng.uniform(1.0, 2.0)),
                    float(10.0 ** rng.uniform(1.0, 4.0)), float(rng.uniform(0.0, 5.0)),
                )
            fd = rng.uniform(1.0, 3.0) if rng.random() < 0.1 else 10.0 ** rng.uniform(-9.0, -2.0)
            cfg = OptimizerConfig(
                initial_k=float(10.0 ** rng.uniform(-2.0, 1.5)),
                step_size_t=float(rng.uniform(0.01, 0.99)),
                precision_eps=float(10.0 ** rng.uniform(-10.0, -2.0)),
                max_iterations_Nmax=int(rng.integers(1, 250)),
                fd_step_h=float(fd),
            )
            yield z, n, ssp, noise, cfg

    def test_matches_the_per_evaluation_loop(self):
        # the objective is built once per search; the reference re-derives
        # the scene and runs every check at each evaluation: same result
        # bits, or the same exception and message, on every config
        def outcome(search, *args):
            try:
                return search(*args)
            except Exception as e:
                return type(e), str(e)

        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning leaks out of a search
            for z, n, ssp, noise, cfg in self.oracle_configs(3000):
                want = outcome(reference_optimize_k, z, n, ssp, noise, cfg)
                got = outcome(optimize_k, z, n, ssp, noise, cfg)
                assert repr(got) == repr(want), (z, n, ssp, noise, cfg)
                if isinstance(want, KSearchResult):
                    seen.add(want.converged)
                else:
                    seen.add((want[0], want[1].split(" is ")[0]))
        # both exits of the search, a bad start, and every error an evaluation raises
        assert seen >= {
            True,
            False,
            (ValueError, "objective tr(CRLB)(k)"),
            (ValueError, "k, z, sigma2 must be positive"),
            (OverflowError, "(34, 'Numerical result out of range')"),
        }, seen

    def test_objective_errors_match_the_reference(self):
        # a direct call on inputs with several faults at once raises the
        # error the reference meets first
        scenes = itertools.product(
            (1.0, 0.0, -1.0, math.nan),
            (50.0, 0.0, -5.0),
            (8, 3),
            (SSP, SoundSpeedProfile(1480.0, 4e257), SoundSpeedProfile(1480.0, 5e-324)),
            (DD_NOISE, NoiseModel.distance_dependent(ke_db=-2.2e163),
             NoiseModel.constant_variance(1e-3), NoiseModel.constant_variance(1e-200),
             NoiseModel.constant_variance(1e305)),
        )
        with np.errstate(all="ignore"):
            for scene in scenes:
                outcomes = []
                for objective in (reference_k_objective, k_objective):
                    try:
                        outcomes.append(repr(objective(*scene)))
                    except Exception as e:
                        outcomes.append((type(e), str(e)))
                assert outcomes[0] == outcomes[1], scene

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_search_k(50.0, 4, SSP, DD_NOISE, 2.0, 1.0)
        with pytest.raises(ValueError):
            grid_search_k(50.0, 4, SSP, DD_NOISE, steps=50)


class TestGridSearchK:
    """The one-pass grid against the scalar objective evaluated in a loop."""

    @staticmethod
    def scenes(count, seed=5):
        rng = np.random.default_rng(seed)
        for i in range(count):
            z = float(rng.uniform(20.0, 200.0))
            n = int(rng.integers(4, 9))
            if i % 3 == 2:
                noise = NoiseModel.constant_variance(float(rng.uniform(1e-4, 1e-2)))
            else:
                noise = NoiseModel.distance_dependent()
            yield z, n, noise

    def test_matches_scalar_loop(self):
        for z, n, noise in self.scenes(300):
            grid, want = reference_grid_values(z, n, SSP, noise)
            got = deployment._k_objective_grid(grid, z, n, SSP, noise)
            ulps = np.abs(got - want) / np.spacing(want)
            # numpy squares where Python calls pow: a few ulp apart
            assert ulps.max() <= 4, (z, n, noise, ulps.max())
            assert grid_search_k(z, n, SSP, noise) == grid[np.argmin(want)], (z, n, noise)

    def test_hoisting_moves_no_bit(self):
        # the closed form with its k-free terms worked out once per scene
        # against the same formula written out at every k
        for z, n, noise in self.scenes(300):
            grid = np.linspace(0.1, 3.0, 2001)
            want = reference_grid_formula(grid, z, n, SSP, noise)
            got = deployment._k_objective_grid(grid, z, n, SSP, noise)
            assert got.tobytes() == want.tobytes(), (z, n, noise)

    @pytest.mark.parametrize(
        "ssp, noise",
        [
            # the CLI fuzz test's extreme @example values as optimize-k --grid
            # scenes, then a noise floor whose variance overflows
            (SoundSpeedProfile(1480.0, 5e-324), DD_NOISE),
            (SSP, NoiseModel.distance_dependent(ke_db=-2.2e163)),
            (SoundSpeedProfile(1480.0, 1e30), DD_NOISE),
            (SSP, NoiseModel.constant_variance(1e305)),
            (SoundSpeedProfile(1480.0, 4e257), DD_NOISE),
            (SSP, NoiseModel.distance_dependent(ke_db=1e308)),
        ],
    )
    def test_extreme_inputs_agree_with_loop(self, ssp, noise):
        outcomes = []
        for search in (reference_grid_search_k, grid_search_k):
            try:
                outcomes.append(search(50.0, 8, ssp, noise))
            except (ValueError, ArithmeticError) as e:  # exit 2 in the CLI
                outcomes.append(type(e))
        ref, got = outcomes
        assert got == ref or (isinstance(ref, type) and isinstance(got, type)), outcomes

    def test_never_returns_argmin_of_non_finite_values(self):
        with pytest.raises(ValueError, match=r"objective .* is nan at k=0\.1"):
            grid_search_k(50.0, 8, SoundSpeedProfile(1480.0, 5e-324), DD_NOISE)


class TestCubePositions:
    CENTER = Position(100.0, 0.0, 25.0)

    def test_eight_vertices(self):
        got = cube_positions(self.CENTER, 50.0, 8)
        want = [
            (125.0, 25.0, 0.0),
            (75.0, 25.0, 50.0),
            (75.0, -25.0, 0.0),
            (125.0, -25.0, 50.0),
            (125.0, 25.0, 50.0),
            (75.0, 25.0, 0.0),
            (75.0, -25.0, 50.0),
            (125.0, -25.0, 0.0),
        ]
        assert [(p.x, p.y, p.z) for p in got] == want

    def test_prefix_property(self):
        full = cube_positions(self.CENTER, 50.0, 8)
        for n in range(4, 8):
            assert cube_positions(self.CENTER, 50.0, n) == full[:n]

    def test_depths_span_cube(self):
        for n in range(4, 9):
            depths = [p.z for p in cube_positions(self.CENTER, 50.0, n)]
            assert set(depths) == {0.0, 50.0}

    def test_every_count_spans_three_dimensions(self):
        # guarantees a regular Fisher matrix for generic AUV positions
        for n in range(4, 9):
            pts = np.array(
                [p.as_array() for p in cube_positions(self.CENTER, 50.0, n)]
            )
            centered = pts - pts.mean(axis=0)
            assert np.linalg.matrix_rank(centered, tol=1e-9) == 3

    def test_count_limits(self):
        with pytest.raises(UnsupportedCount):
            cube_positions(self.CENTER, 50.0, 9)
        with pytest.raises(TooFewAnchors):
            cube_positions(self.CENTER, 50.0, 3)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            cube_positions(self.CENTER, 0.0, 8)


class TestRandomPositions:
    BOX = ((50.0, 150.0), (-50.0, 50.0), (0.0, 50.0))

    def test_deterministic_per_seed(self):
        a = random_positions(self.BOX, 8, 7)
        b = random_positions(self.BOX, 8, 7)
        assert a == b
        c = random_positions(self.BOX, 8, 8)
        assert a != c

    def test_inside_box(self):
        for p in random_positions(self.BOX, 30, 123):
            assert 50.0 <= p.x <= 150.0
            assert -50.0 <= p.y <= 50.0
            assert 0.0 <= p.z <= 50.0

    def test_count_and_box_validation(self):
        with pytest.raises(TooFewAnchors):
            random_positions(self.BOX, 3, 0)
        with pytest.raises(ValueError):
            random_positions(((1.0, 0.0), (0.0, 1.0), (0.0, 1.0)), 4, 0)
        with pytest.raises(ValueError):
            random_positions(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)), 4, 0)

    def test_vertical_plane_box_exhausts_retries(self):
        # zero y-extent forces horizontal collinearity on every draw
        flat = ((0.0, 100.0), (5.0, 5.0), (0.0, 50.0))
        with pytest.raises(DegenerateAfterRetries):
            random_positions(flat, 4, 0)
        with pytest.raises(DegenerateAfterRetries, match="^50 random layouts"):
            random_layouts(flat, 4, np.random.default_rng(0), 50)

    def test_single_layout_matches_positions_and_draw_order(self):
        # random_positions is random_layouts at size 1, bit for bit, and
        # keeps drawing every x, then every y, then every z per attempt
        thin = ((0.0, 100.0), (5.0, 5.0 + 1e-7), (0.0, 50.0))
        redraws = 0
        for box in (self.BOX, thin):
            for seed in range(40):
                layout = random_layouts(box, 6, np.random.default_rng(seed), 1)
                assert layout.shape == (1, 6, 3)
                positions = random_positions(box, 6, seed)
                assert layout[0].tolist() == [[p.x, p.y, p.z] for p in positions]
                (x0, x1), (y0, y1), (z0, z1) = box
                rng = np.random.default_rng(seed)
                while True:
                    pts = np.column_stack(
                        [rng.uniform(x0, x1, 6), rng.uniform(y0, y1, 6), rng.uniform(z0, z1, 6)]
                    )
                    if not deployment._degenerate(pts):
                        break
                    redraws += 1
                assert np.array_equal(pts, layout[0])
        assert redraws > 0

    def test_batch_redraws_only_flagged_layouts(self):
        thin = ((0.0, 100.0), (5.0, 5.0 + 1e-7), (0.0, 50.0))
        layouts = random_layouts(thin, 5, np.random.default_rng(3), 400)
        assert layouts.shape == (400, 5, 3)
        assert not deployment._degenerate(layouts).any()
        # the first round's good layouts are kept as drawn
        rng = np.random.default_rng(3)
        first = np.stack([rng.uniform(lo, hi, (400, 5)) for lo, hi in thin], axis=-1)
        kept = ~deployment._degenerate(first)
        assert 0 < kept.sum() < 400
        assert np.array_equal(layouts[kept], first[kept])

    def test_thin_but_finite_box_succeeds(self):
        thin = ((0.0, 100.0), (4.9, 5.1), (0.0, 50.0))
        assert len(random_positions(thin, 4, 0)) == 4

    @staticmethod
    def coincident_reference(points):
        n = len(points)
        return any(
            np.linalg.norm(points[i] - points[j]) < 1e-9
            for i in range(n)
            for j in range(i + 1, n)
        )

    def test_coincidence_check_matches_pairwise_loop(self):
        # general-position layouts with one pair moved to a spread of
        # separations around the 1e-9 m coincidence threshold
        rng = np.random.default_rng(11)
        layouts = []
        for _ in range(300):
            n = int(rng.integers(4, 12))
            points = rng.uniform(0.0, 100.0, (n, 3))
            i, j = rng.choice(n, 2, replace=False)
            offset = rng.normal(size=3)
            offset *= rng.choice([0.0, 1e-12, 5e-10, 2e-9, 1e-6, 1.0]) / np.linalg.norm(offset)
            points[j] = points[i] + offset
            layouts.append(points)
        decisions = [bool(deployment._degenerate(p)) for p in layouts]
        assert decisions == [self.coincident_reference(p) for p in layouts]
        assert any(decisions) and not all(decisions)
        # the batched check, one stack per anchor count, decides the same
        batched = [None] * len(layouts)
        for n in {len(p) for p in layouts}:
            idx = [i for i, p in enumerate(layouts) if len(p) == n]
            for i, d in zip(idx, deployment._degenerate(np.stack([layouts[i] for i in idx]))):
                batched[i] = bool(d)
        assert batched == decisions

    def test_degenerate_mask_matches_the_pairwise_oracle(self):
        # general-position layouts of 4 to 40 anchors, each with one pair
        # moved 0.9e-9 or 1.1e-9 m apart along x, along y or along a
        # seeded direction; some with runs of anchors that share one x
        rng = np.random.default_rng(29)
        layouts = []
        for k in range(240):
            n = int(rng.integers(4, 41))
            points = rng.uniform(-50.0, 150.0, (n, 3))
            i, j = rng.choice(n, 2, replace=False)
            offset = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), rng.normal(size=3)][k % 3]
            points[j] = points[i] + (0.9e-9, 1.1e-9)[k // 3 % 2] * offset / np.linalg.norm(offset)
            if k % 4 == 3:
                points[rng.choice(n, min(n, 5), replace=False), 0] = points[i, 0]
            layouts.append(points)
        # horizontally collinear layouts, with and without a coincident pair
        rng = np.random.default_rng(30)
        for n in (4, 9, 25):
            t = rng.uniform(0.0, 100.0, n)
            line = np.column_stack([10.0 + 3.0 * t, -5.0 + 0.5 * t, rng.uniform(0.0, 50.0, n)])
            layouts.append(line)
            twin = line.copy()
            twin[1] = twin[0]
            layouts.append(twin)
        got = [bool(deployment._degenerate(p)) for p in layouts]
        assert got == [reference_degenerate(p) for p in layouts]
        assert any(got) and not all(got)
        # one stack per anchor count decides the same
        for n in {len(p) for p in layouts}:
            idx = [i for i, p in enumerate(layouts) if len(p) == n]
            stack = np.stack([layouts[i] for i in idx])
            assert deployment._degenerate(stack).tolist() == [got[i] for i in idx]

    def test_degenerate_mask_near_the_threshold(self):
        # 0.9e-9 m apart is coincident and 1.1e-9 m is not, along any axis
        base = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 10.0], [0.0, 100.0, 20.0], [70.0, 80.0, 5.0]])
        for axis in range(3):
            for gap, want in ((0.9e-9, True), (1.1e-9, False)):
                points = np.vstack([base, base[1] + gap * np.eye(3)[axis]])
                assert bool(deployment._degenerate(points)) is want
                assert reference_degenerate(points) is want

    def test_large_layout_draws_in_little_memory(self):
        # the coincidence test measures only pairs close in x: drawing one
        # layout of 2000 anchors stays far below the n x n x 3 difference
        # array of 96 MB that an all-pairs test would build
        tracemalloc.start()
        try:
            layout = random_layouts(self.BOX, 2000, np.random.default_rng(1), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert layout.shape == (1, 2000, 3)
        assert peak < 8e6, peak


class TestDefaults:
    def test_cube_default_geometry(self):
        auv = Position(10.0, -30.0, 50.0)
        center, side = default_cube_for(auv)
        assert side == 50.0
        assert center.x == pytest.approx(10.0 + 2.1 * 50.0)
        assert center.y == -30.0

    def test_box_matches_cube_bounds(self):
        auv = Position(0.0, 0.0, 40.0)
        center, side = default_cube_for(auv)
        box = default_box_for(auv)
        pts = np.array([p.as_array() for p in cube_positions(center, side, 8)])
        for axis, (lo, hi) in enumerate(box):
            assert pts[:, axis].min() == pytest.approx(lo)
            assert pts[:, axis].max() == pytest.approx(hi)

    def test_baseline_layout_dispatch(self):
        auv = Position(0.0, 0.0, 50.0)
        center, side = default_cube_for(auv)
        anchors, k = _fixed_layout(scene(auv, Cube()))
        assert anchors == cube_positions(center, side, 8)
        assert math.isnan(k)
        anchors, _ = _fixed_layout(scene(auv, Random(n=6, seed=3)))
        assert anchors == random_positions(default_box_for(auv), 6, 3)
        # no seed: the harness redraws the layout every trial
        assert _fixed_layout(scene(auv, Random(n=6)))[0] is None
        with pytest.raises(UnsupportedCount):
            _fixed_layout(scene(auv, Cube(n=9)))


def test_result_is_frozen():
    res = KSearchResult(k_star=1.0, iterations=3, converged=True, objective=2.0)
    with pytest.raises(AttributeError):
        res.k_star = 2.0
