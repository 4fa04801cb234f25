"""Monte-Carlo harness: reproducibility, sweeps, CSV and SVG output.

The harness promises bit-identical tables for a fixed master seed no
matter how many workers run the sweep, and CSV files that round-trip
through load_csv without losing a digit.  Those promises are what the
tests below pin down; the statistical content of the figures is covered
by the acceptance suite.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from auvgeom.deployment import default_box_for, random_layouts, usc_positions
from auvgeom.errors import DegenerateGeometry, EmptyTable, SingularFim
from auvgeom.estimation import DEPTH_NOISE_VAR, estimate_trials
from auvgeom.fisher import NoiseModel, _time_and_rows, fim
from auvgeom.geometry import Position, SoundSpeedProfile
from auvgeom import harness
from auvgeom.harness import (
    Axis,
    CSV_CONTRACT,
    CSV_HEADER,
    Cube,
    FIGURE_SPECS,
    FixedAnchors,
    Random,
    ResultTable,
    RmUsc,
    Row,
    RsUsc,
    Scenario,
    Static,
    SweepSpec,
    Usc,
    Variant,
    _measurements,
    _row_line,
    _sweep_cells,
    _sweep_one,
    _task_groups,
    csv_text,
    emit_plot,
    export_csv,
    fig3_spec,
    fig4a_spec,
    fig4b_spec,
    fig5_spec,
    fig6_spec,
    k_objective,
    load_csv,
    run_scenario,
    sweep,
)

SSP = SoundSpeedProfile(1480.0, 0.1)
AUV = Position(50.0, 50.0, 50.0)
NOISE = NoiseModel.constant_variance(1e-3)


def small_scenario(trials=40, seed=0, deployment=None, movement=None):
    return Scenario(
        auv_truth=AUV,
        deployment=deployment or Usc(scale_k=0.85, n=8),
        ssp=SSP,
        noise=NOISE,
        trials=trials,
        master_seed=seed,
        movement=movement or Static(),
    )


class TestValidation:
    def test_scenario_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            small_scenario(trials=0)
        with pytest.raises(ValueError):
            small_scenario(seed=-1)
        with pytest.raises(ValueError):
            small_scenario(movement=RmUsc(-1.0))
        with pytest.raises(ValueError):
            small_scenario(deployment=Cube(), movement=RmUsc(100.0))

    def test_fixed_anchors_need_four(self):
        with pytest.raises(ValueError):
            FixedAnchors(anchors=(AUV, AUV, AUV))

    def test_sweep_spec_axis_values(self):
        base = small_scenario()
        with pytest.raises(ValueError):
            SweepSpec(axis=Axis.SIGMA_MS, values=(), base=base)
        with pytest.raises(ValueError):
            SweepSpec(axis=Axis.SIGMA_MS, values=(1.0, 1.0), base=base)
        with pytest.raises(ValueError):
            SweepSpec(axis=Axis.SIGMA_MS, values=(2.0, 1.0), base=base)

    def test_axis_model_mismatches_raise(self):
        dd = Scenario(
            auv_truth=AUV,
            deployment=Usc(scale_k=0.85, n=8),
            ssp=SSP,
            noise=NoiseModel.distance_dependent(),
            trials=5,
            master_seed=0,
        )
        spec = SweepSpec(axis=Axis.SIGMA_MS, values=(1.0, 2.0), base=dd)
        with pytest.raises(ValueError):
            sweep(spec)
        fixed = small_scenario(
            deployment=FixedAnchors(tuple(Position(float(i * 7), 0.0, 0.0) for i in range(4)))
        )
        with pytest.raises(ValueError):
            sweep(SweepSpec(axis=Axis.ANCHOR_COUNT, values=(4.0, 5.0), base=fixed))
        with pytest.raises(ValueError):
            sweep(SweepSpec(axis=Axis.SCALE_K, values=(0.5, 1.0), base=small_scenario(deployment=Cube())))
        with pytest.raises(ValueError):
            sweep(SweepSpec(axis=Axis.DELTA_METERS, values=(0.0, 50.0), base=small_scenario()))

    def test_fractional_anchor_count_rejected(self):
        spec = SweepSpec(axis=Axis.ANCHOR_COUNT, values=(4.5, 5.0), base=small_scenario(trials=5))
        with pytest.raises(ValueError, match="whole number"):
            sweep(spec)
        whole = replace(spec, values=(4.0, 5.0))
        assert [r.n_anchors for r in sweep(whole).rows] == [4, 5]


class TestRunScenario:
    def test_deterministic_for_fixed_seed(self):
        a = run_scenario(small_scenario())
        b = run_scenario(small_scenario())
        assert a == b

    def test_seed_changes_result(self):
        a = run_scenario(small_scenario(seed=0))
        b = run_scenario(small_scenario(seed=1))
        assert a.rmse_m != b.rmse_m

    def test_scheme_labels(self):
        assert run_scenario(small_scenario()).scheme == "usc"
        assert run_scenario(small_scenario(deployment=Cube())).scheme == "cube"
        assert run_scenario(small_scenario(deployment=Random(seed=3))).scheme == "random"
        anchors = tuple(Position(50.0 + 60 * math.cos(a), 50.0 + 60 * math.sin(a), 0.0)
                        for a in np.linspace(0.0, 2 * math.pi, 5)[:4])
        assert run_scenario(small_scenario(deployment=FixedAnchors(anchors))).scheme == "fixed"
        assert run_scenario(small_scenario(movement=RmUsc(50.0))).scheme == "rm-usc"
        assert run_scenario(small_scenario(movement=RsUsc(50.0))).scheme == "rs-usc"

    def test_row_summary_fields(self):
        r = run_scenario(small_scenario(trials=60, seed=4), axis_name="single", axis_value=2.0)
        assert (r.axis_name, r.axis_value) == ("single", 2.0)
        assert r.n_anchors == 8 and r.trials == 60 and r.seed == 4
        assert r.k == 0.85
        assert r.diverged == 0
        # rmse of a converged run sits near the bound level sqrt(trace)
        assert 0.3 * math.sqrt(r.trace_crlb_m2) < r.rmse_m < 3.0 * math.sqrt(r.trace_crlb_m2)

    def test_optimizes_k_when_unset(self):
        r = run_scenario(small_scenario(deployment=Usc(scale_k=None, n=8)))
        assert 1.3 < r.k < 1.5  # constant-noise optimum for this depth

    def test_per_trial_random_redraw_differs_from_frozen(self):
        frozen = run_scenario(small_scenario(deployment=Random(seed=7)))
        redrawn = run_scenario(small_scenario(deployment=Random(seed=None)))
        assert frozen.rmse_m != redrawn.rmse_m

    def test_cell_matches_stream_rebuild(self):
        # the reproducibility contract spelled out for one cell: layouts
        # from the deployment stream, then one block of timing deviates
        # with the depth deviate last from the noise stream
        s = replace(
            small_scenario(trials=30, seed=5, deployment=Random(seed=None)),
            noise=NoiseModel.distance_dependent(),
        )
        dep, noise = (
            np.random.default_rng(np.random.SeedSequence([s.master_seed, 0], spawn_key=(stream,)))
            for stream in (1, 2)
        )
        stack = random_layouts(default_box_for(AUV), 8, dep, s.trials)
        dev = noise.standard_normal((s.trials, 9))
        truth = np.tile(AUV.as_array(), (s.trials, 1))
        rtt, depth, _, _ = _measurements(truth, stack, SSP, s.noise, dev)
        q_hat, _, converged, _ = estimate_trials(rtt, depth, stack, SSP, s.noise)
        err2 = np.sum((q_hat[converged] - AUV.as_array()) ** 2, axis=1)
        row = run_scenario(s)
        assert row.diverged == int((~converged).sum())
        assert row.rmse_m == float(np.sqrt(err2.mean()))

    def test_singular_layout_fails_fast(self):
        coplanar = tuple(Position(x, 50.0, 0.0) for x in (0.0, 40.0, 80.0, 120.0))
        with pytest.raises(SingularFim):
            run_scenario(small_scenario(deployment=FixedAnchors(coplanar)))

    def test_vertical_anchor_rejected(self):
        # an anchor straight above the AUV has no bent-ray Jacobian row
        above = Position(AUV.x, AUV.y, 0.0)
        anchors = (above, *usc_positions(AUV, 8, 1.0)[:3])
        with pytest.raises(DegenerateGeometry):
            run_scenario(small_scenario(deployment=FixedAnchors(anchors)))


class TestMovementModels:
    def test_rm_equals_rs_at_zero_delta(self):
        rm = run_scenario(small_scenario(trials=80, movement=RmUsc(0.0)))
        rs = run_scenario(small_scenario(trials=80, movement=RsUsc(0.0)))
        assert rm.rmse_m == rs.rmse_m
        assert rm.trace_crlb_m2 == rs.trace_crlb_m2

    def test_rebuilt_circle_beats_frozen_anchors_at_large_delta(self):
        rm = run_scenario(small_scenario(trials=120, movement=RmUsc(500.0)))
        rs = run_scenario(small_scenario(trials=120, movement=RsUsc(500.0)))
        assert rs.rmse_m < rm.rmse_m


class TestSweep:
    def small_spec(self, trials=25):
        base = small_scenario(trials=trials)
        schemes = {
            "usc": Variant(deployment=Usc(scale_k=0.85, n=8)),
            "cube": Variant(deployment=Cube()),
        }
        return SweepSpec(axis=Axis.ANCHOR_COUNT, values=(4.0, 6.0, 8.0), base=base, schemes=schemes)

    def test_worker_count_does_not_change_rows(self):
        # NaN k columns defeat Row equality, so compare the rendered CSV
        spec = self.small_spec()
        assert csv_text(sweep(spec, workers=1)) == csv_text(sweep(spec, workers=4))

    def test_row_order_is_scheme_major(self):
        table = sweep(self.small_spec())
        labels = [(r.scheme, r.axis_value) for r in table.rows]
        assert labels == [
            ("usc", 4.0), ("usc", 6.0), ("usc", 8.0),
            ("cube", 4.0), ("cube", 6.0), ("cube", 8.0),
        ]

    def test_radius_scale_rows_are_analytic(self):
        table = sweep(fig3_spec())
        assert len(table.rows) == 105
        for r in table.rows:
            assert r.trials == 0 and math.isnan(r.rmse_m)
        r = table.rows[0]
        assert r.scheme == "usc-n4" and r.axis_value == 0.5
        assert r.trace_crlb_m2 == k_objective(0.5, AUV.z, 4, SSP, NoiseModel.distance_dependent())

    def test_overflowing_radius_rows_are_inf_without_warnings(self):
        spec = fig3_spec()
        spec = replace(spec, base=replace(spec.base, noise=NoiseModel.distance_dependent(ke_db=1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = sweep(spec)
        assert len(table.rows) == 105
        assert all(r.trace_crlb_m2 == math.inf for r in table.rows)

    def test_failed_cell_becomes_annotated_row(self):
        coplanar = tuple(Position(x, 50.0, 0.0) for x in (0.0, 40.0, 80.0, 120.0))
        base = small_scenario(trials=10)
        schemes = {
            "usc": Variant(deployment=Usc(scale_k=0.85, n=8)),
            "bad": Variant(deployment=FixedAnchors(coplanar)),
        }
        spec = SweepSpec(axis=Axis.SIGMA_MS, values=(1.0, 2.0), base=base, schemes=schemes)
        table = sweep(spec)
        bad = [r for r in table.rows if r.scheme == "bad"]
        assert len(bad) == 2
        for r in bad:
            assert r.note.startswith("SingularFim")
            assert math.isnan(r.rmse_m)
        good = [r for r in table.rows if r.scheme == "usc"]
        assert all(not r.note and math.isfinite(r.rmse_m) for r in good)

    def test_failed_fixed_cell_reports_its_anchor_count(self):
        # five anchors in the AUV's vertical plane: the cell fails, and its
        # row still names the layout's size
        plane = tuple(Position(x, 50.0, 0.0) for x in (-60.0, -10.0, 90.0, 140.0, 190.0))
        spec = SweepSpec(
            axis=Axis.SIGMA_MS,
            values=(1.0,),
            base=small_scenario(trials=10, deployment=FixedAnchors(plane)),
        )
        (row,) = sweep(spec).rows
        assert row.note.startswith("SingularFim")
        assert row.n_anchors == 5
        assert _row_line(row).startswith("sigma_ms,1.0,fixed,5,nan,")


class TestSharedGeometry:
    """A cell whose AUV does not move and whose trials share one layout
    evaluates that geometry once; moving cells and per-trial layouts keep
    one geometry per trial."""

    @staticmethod
    def kernel_shapes(monkeypatch):
        shapes = []
        original = harness._time_and_rows

        def count(q_xyz, p_xyz, ssp):
            out = original(q_xyz, p_xyz, ssp)
            shapes.append(out[0].shape)
            return out

        monkeypatch.setattr(harness, "_time_and_rows", count)
        return shapes

    def test_fig5_cells_evaluate_one_geometry(self, monkeypatch):
        shapes = self.kernel_shapes(monkeypatch)
        sweep(fig5_spec(trials=50))
        # 15 calls of 8 pairs, where one geometry per trial makes 6,000
        assert shapes == [(1, 8)] * 15

    def test_fig4a_random_cells_keep_one_layout_per_trial(self, monkeypatch):
        shapes = self.kernel_shapes(monkeypatch)
        sweep(fig4a_spec(trials=20))
        counts = range(4, 9)
        assert shapes == [(1, n) for n in counts] * 2 + [(20, n) for n in counts]

    def test_fig6_moving_cells_keep_one_geometry_per_trial(self, monkeypatch):
        shapes = self.kernel_shapes(monkeypatch)
        sweep(fig6_spec(trials=50))
        assert shapes == [(50, 8)] * 12


def augmented_bound(anchors, noise):
    """c11's hand-built bound: tr((F + diag(0, 0, 1/DEPTH_NOISE_VAR))^-1)."""
    f = fim(AUV, anchors, SSP, noise).fim.copy()
    f[2, 2] += 1.0 / DEPTH_NOISE_VAR
    return float(np.trace(np.linalg.inv(f)))


class TestBound:
    """A Monte-Carlo row's trace_crlb_m2 is the depth-augmented bound,
    averaged over the geometries the cond <= 1e12 rule accepts."""

    DD = NoiseModel.distance_dependent()

    def test_static_cell_reads_the_hand_built_bound(self):
        s = replace(small_scenario(trials=20), noise=self.DD)
        want = augmented_bound(usc_positions(AUV, 8, 0.85), self.DD)
        assert run_scenario(s).trace_crlb_m2 == pytest.approx(want, rel=1e-12)

    def test_random_cell_reads_the_mean_of_its_layouts(self):
        s = replace(small_scenario(trials=50, seed=3, deployment=Random(seed=None)), noise=self.DD)
        dep = np.random.default_rng(np.random.SeedSequence([s.master_seed, 0], spawn_key=(1,)))
        stack = random_layouts(default_box_for(AUV), 8, dep, s.trials)
        want = np.mean([augmented_bound([Position(*p) for p in layout], self.DD)
                        for layout in stack])
        assert run_scenario(s).trace_crlb_m2 == pytest.approx(want, rel=1e-12)

    @staticmethod
    def usc_geometry():
        layout = np.array([p.as_array() for p in usc_positions(AUV, 8, 0.85)])
        _, rows, _ = _time_and_rows(AUV.as_array(), layout, SSP)
        return rows, np.full(8, 1e-6)

    def test_ill_conditioned_geometry_is_left_out(self):
        rows, sigma2 = self.usc_geometry()
        # F_tof = diag(1, 1e-14, 0): with the depth row, finite, invertible
        # and cond 1e14, its trace 2 + 1e14
        ill = np.zeros((8, 3))
        ill[0, 0], ill[1, 1] = 1.0, 1e-7
        f_ill = np.diag([1.0, 1e-14, 1.0 / DEPTH_NOISE_VAR])
        assert np.linalg.cond(f_ill) == pytest.approx(1e14)
        alone = harness._augmented_trace(rows[None], sigma2[None])
        got = harness._augmented_trace(np.stack([rows, ill]), np.stack([sigma2, np.ones(8)]))
        assert got == alone

    def test_cell_with_every_geometry_refused_reads_nan(self):
        # an overflowed variance leaves only the depth row, an underflowed
        # one makes the matrix not finite
        rows, _ = self.usc_geometry()
        sigma2 = np.stack([np.full(8, np.inf), np.zeros(8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(harness._augmented_trace(np.stack([rows, rows]), sigma2))


class TestTaskGroups:
    """Cells that share a profile and noise model run through one estimator
    call when any of them draws a layout per trial, whatever their anchor
    counts.  The rows are still each cell's own."""

    @staticmethod
    def csv_alone(spec):
        # every cell as its own task, in row order
        return csv_text(
            ResultTable(rows=tuple(r for cell in _sweep_cells(spec) for r in _sweep_one(spec, [cell])))
        )

    @staticmethod
    def estimator_calls(monkeypatch):
        calls = []
        original = harness.estimate_trials

        def count(rtt, *args, **kwargs):
            # trials over every block of the call, and its largest block,
            # which is how many trials iterate at once
            calls.append((sum(map(len, rtt)), max(map(len, rtt))))
            return original(rtt, *args, **kwargs)

        monkeypatch.setattr(harness, "estimate_trials", count)
        return calls

    def test_preset_groups(self):
        def groups(spec):
            return _task_groups(spec, _sweep_cells(spec))

        # fig4a and fig4b: usc, cube and random at every anchor count
        assert groups(fig4a_spec(trials=10)) == [list(range(15))]
        assert groups(fig4b_spec(trials=10)) == [list(range(15))]
        # fig5: frozen layouts only, so one task per cell in row order
        assert groups(fig5_spec(trials=10)) == [[i] for i in range(15)]
        # fig6: rs-usc rebuilds its circle every trial; every cell shares n = 8
        assert groups(fig6_spec(trials=10)) == [list(range(12))]
        assert groups(fig3_spec()) == [[i] for i in range(105)]

    def test_early_failure_keeps_the_other_rows(self, monkeypatch):
        # cube n=9 fails before drawing a trial; the other five cells, n=8
        # and n=9, still share one call
        spec = replace(fig4a_spec(trials=20), values=(8.0, 9.0))
        calls = self.estimator_calls(monkeypatch)
        table = sweep(spec)
        assert calls == [(100, 20)]
        assert csv_text(table) == self.csv_alone(spec)
        failed = [r for r in table.rows if r.note]
        assert [(r.scheme, r.axis_value) for r in failed] == [("cube", 9.0)]
        assert failed[0].note == "UnsupportedCount: a cube has 8 vertices, got n=9"
        assert failed[0].diverged == 0  # no trial ran
        assert all(math.isfinite(r.rmse_m) for r in table.rows if not r.note)

    def test_cell_without_converged_trials_keeps_the_other_rows(self, monkeypatch, tmp_path):
        # anchors drawn from a 1 cm box, 70 m from the AUV: every trial's
        # clipped steps leave it at the iteration cap, while the usc trials
        # in the same call converge; both anchor counts share that call
        tiny = Random(box=((0.0, 0.01),) * 3, seed=None)
        schemes = {"usc": Variant(deployment=Usc(n=8)), "tiny": Variant(deployment=tiny)}
        spec = replace(fig4a_spec(trials=20), values=(6.0, 8.0), schemes=schemes)
        calls = self.estimator_calls(monkeypatch)
        table = sweep(spec, workers=2)
        assert calls == [(80, 20)]
        text = csv_text(table)
        assert text == self.csv_alone(spec)
        for r in table.rows:
            if r.scheme == "tiny":
                assert r.note == "NoConvergedTrials: all 20 trials failed to converge"
                # every trial ran and none converged
                assert r.diverged == r.trials == 20
                assert f"# WARNING: tiny@{r.axis_value} diverged on 20/20 trials\n" in text
            else:
                assert not r.note and math.isfinite(r.rmse_m)
        path = str(tmp_path / "t.csv")
        export_csv(table, path)
        # the rows hold NaN, so compare them through their text
        assert csv_text(load_csv(path)) == text


ROWS = (
    Row("sigma_ms", 1.0, "usc", 8, 0.85, 1.5437, 2.2871, 0, 100, 7),
    Row("sigma_ms", 2.0, "usc", 8, 0.85, 1.0 / 3.0, 0.1 + 0.2, 3, 100, 7),
)


class TestCsv:
    def test_header_and_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        export_csv(ResultTable(rows=ROWS), path, comments=("run A", "seed 7"))
        text = open(path).read()
        lines = text.splitlines()
        assert lines[0] == "# run A" and lines[1] == "# seed 7"
        assert lines[2:4] == [CSV_CONTRACT, CSV_HEADER]
        loaded = load_csv(path)
        assert loaded.rows == ROWS

    def test_round_trip_preserves_every_digit(self, tmp_path):
        path1 = str(tmp_path / "a.csv")
        path2 = str(tmp_path / "b.csv")
        export_csv(ResultTable(rows=ROWS), path1)
        export_csv(load_csv(path1), path2)
        assert open(path1, "rb").read() == open(path2, "rb").read()

    def test_reads_contract_1_file(self, tmp_path):
        # files written before the contract line carry none
        path = tmp_path / "v1.csv"
        lines = csv_text(ResultTable(rows=ROWS), comments=("run A",)).splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if ln != CSV_CONTRACT + "\n"))
        assert CSV_CONTRACT not in path.read_text()
        assert load_csv(str(path)).rows == ROWS

    def test_reads_contract_2_file(self, tmp_path):
        # contract 2 files share the header; only the line above it differs
        path = tmp_path / "v2.csv"
        text = csv_text(ResultTable(rows=ROWS), comments=("run A",))
        path.write_text(text.replace(CSV_CONTRACT + "\n", "# contract 2\n"))
        assert CSV_CONTRACT not in path.read_text()
        assert load_csv(str(path)).rows == ROWS

    def test_malformed_row_names_path_and_line(self, tmp_path):
        good = _row_line(ROWS[0])
        for bad in ("single,0.0,usc,8,1.0,2.0", good + ",extra", good.replace(",", ",x", 1)):
            path = tmp_path / "bad.csv"
            path.write_text(f"# run A\n{CSV_CONTRACT}\n{CSV_HEADER}\n{good}\n{bad}\n")
            with pytest.raises(ValueError, match=r"bad\.csv'? line 5:"):
                load_csv(str(path))

    def test_rejects_foreign_header(self, tmp_path):
        path = str(tmp_path / "alien.csv")
        with open(path, "w") as f:
            f.write("x,y\n1,2\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_divergence_warning_comment(self):
        noisy = Row("sigma_ms", 1.0, "usc", 8, 0.85, 9.9, 90.0, 17, 100, 0)
        text = csv_text(ResultTable(rows=(noisy,)))
        assert "# WARNING: usc@1.0 diverged on 17/100 trials" in text
        quiet = Row("sigma_ms", 1.0, "usc", 8, 0.85, 9.9, 90.0, 4, 100, 0)
        assert "WARNING" not in csv_text(ResultTable(rows=(quiet,)))

    def test_note_comment_precedes_row(self):
        bad = Row("sigma_ms", 2.0, "bad", 4, float("nan"), float("nan"),
                  float("nan"), 0, 10, 0, note="SingularFim: boom")
        lines = csv_text(ResultTable(rows=(bad,))).splitlines()
        assert lines[:3] == [CSV_CONTRACT, CSV_HEADER, "# note: bad@2.0 SingularFim: boom"]

    def test_failed_cell_note_survives_the_round_trip(self, tmp_path):
        # a five-anchor vertical-plane layout fails on every sigma; the
        # hand-made last row puts a divergence warning between note and row
        plane = tuple(Position(x, 50.0, 0.0) for x in (-60.0, -10.0, 90.0, 140.0, 190.0))
        schemes = {
            "usc": Variant(deployment=Usc(scale_k=0.85, n=8)),
            "plane": Variant(deployment=FixedAnchors(plane)),
        }
        spec = SweepSpec(
            axis=Axis.SIGMA_MS, values=(1.0, 2.0), base=small_scenario(trials=10), schemes=schemes
        )
        flagged = Row("sigma_ms", 3.0, "x y", 8, 0.85, 9.9, 90.0, 7, 10, 0, note="odd: a b")
        table = ResultTable(rows=sweep(spec).rows + (flagged,))
        path1 = str(tmp_path / "a.csv")
        path2 = str(tmp_path / "b.csv")
        export_csv(table, path1, comments=("run A",))
        loaded = load_csv(path1)
        export_csv(loaded, path2, comments=("run A",))
        assert open(path1, "rb").read() == open(path2, "rb").read()
        notes = [r.note for r in table.rows]
        assert [r.note for r in loaded.rows] == notes
        assert notes[:2] == ["", ""] and notes[2].startswith("SingularFim")

    def test_write_error_names_path(self, tmp_path):
        target = str(tmp_path / "no-such-dir" / "x.csv")
        with pytest.raises(OSError, match="no-such-dir"):
            export_csv(ResultTable(rows=ROWS), target)
        with pytest.raises(OSError, match="missing.csv"):
            load_csv(str(tmp_path / "missing.csv"))


class TestPlot:
    def test_empty_table_raises(self, tmp_path):
        spec = SweepSpec(axis=Axis.SIGMA_MS, values=(1.0,), base=small_scenario())
        with pytest.raises(EmptyTable):
            emit_plot(ResultTable(rows=()), spec, str(tmp_path / "x.svg"))
        all_nan = Row("sigma_ms", 1.0, "usc", 8, 0.85, float("nan"), float("nan"), 0, 10, 0)
        with pytest.raises(EmptyTable):
            emit_plot(ResultTable(rows=(all_nan,)), spec, str(tmp_path / "y.svg"))

    def test_svg_contains_series_and_labels(self, tmp_path):
        spec = SweepSpec(axis=Axis.SIGMA_MS, values=(1.0, 2.0), base=small_scenario())
        path = str(tmp_path / "p.svg")
        emit_plot(ResultTable(rows=ROWS), spec, path)
        svg = open(path).read()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "usc" in svg
        assert "timing noise sigma [ms]" in svg
        assert "RMSE [m]" in svg

    def test_single_point_table_plots(self, tmp_path):
        spec = SweepSpec(axis=Axis.SIGMA_MS, values=(1.0,), base=small_scenario())
        one = Row("sigma_ms", 1.0, "usc", 8, 0.85, 2.5, 6.0, 0, 10, 0)
        path = str(tmp_path / "one.svg")
        emit_plot(ResultTable(rows=(one,)), spec, path)
        assert "<svg" in open(path).read()

    def test_trace_plotted_when_no_rmse(self, tmp_path):
        rows = tuple(
            Row("scale_k", v, "usc-n4", 4, v, float("nan"), 5.0 + v, 0, 0, 0)
            for v in (0.5, 1.0)
        )
        spec = SweepSpec(axis=Axis.SCALE_K, values=(0.5, 1.0), base=small_scenario())
        path = str(tmp_path / "t.svg")
        emit_plot(ResultTable(rows=rows), spec, path)
        assert "tr(CRLB) [m^2]" in open(path).read()

    def test_wide_span_switches_to_log_axis(self, tmp_path):
        near = tuple(Row("sigma_ms", v, "usc", 8, 0.85, 1.0 + v, 1.0, 0, 10, 0) for v in (1.0, 2.0))
        wide = tuple(Row("sigma_ms", v, "usc", 8, 0.85, 10.0 ** v, 1.0, 0, 10, 0) for v in (0.0, 3.0))
        spec = SweepSpec(axis=Axis.SIGMA_MS, values=(1.0, 2.0), base=small_scenario())
        p1, p2 = str(tmp_path / "lin.svg"), str(tmp_path / "log.svg")
        emit_plot(ResultTable(rows=near), spec, p1)
        emit_plot(ResultTable(rows=wide), spec, p2)
        assert ">100<" not in open(p1).read()
        assert ">100<" in open(p2).read()


class TestFigurePresets:
    def test_registry_names(self):
        assert set(FIGURE_SPECS) == {"3", "4a", "4b", "5", "6"}

    def test_fig3_shape(self):
        spec = fig3_spec()
        assert spec.axis is Axis.SCALE_K
        assert len(spec.values) == 21
        assert spec.values[0] == 0.5 and spec.values[-1] == 1.5
        assert set(spec.schemes) == {f"usc-n{n}" for n in range(4, 9)}

    def test_fig4a_shape(self):
        spec = fig4a_spec(trials=10)
        assert spec.axis is Axis.ANCHOR_COUNT
        assert spec.values == (4.0, 5.0, 6.0, 7.0, 8.0)
        assert set(spec.schemes) == {"usc", "cube", "random"}
        assert spec.base.noise.kind == "distance_dependent"
        assert spec.schemes["random"].deployment.seed is None

    def test_fig5_layouts_share_mean_range(self):
        spec = fig5_spec(trials=10)
        a0 = spec.base.auv_truth.as_array()
        means = []
        for variant in spec.schemes.values():
            pts = np.array([p.as_array() for p in variant.deployment.anchors])
            means.append(np.linalg.norm(pts - a0, axis=1).mean())
        assert np.ptp(means) < 1e-9
        assert spec.base.noise.kind == "constant_variance"

    def test_fig6_shape(self):
        spec = fig6_spec(trials=10)
        assert spec.axis is Axis.DELTA_METERS
        assert spec.values[0] == 0.0 and spec.values[-1] == 500.0
        assert set(spec.schemes) == {"rm-usc", "rs-usc"}
        assert isinstance(spec.schemes["rm-usc"].movement, RmUsc)
        assert isinstance(spec.schemes["rs-usc"].movement, RsUsc)
