"""Command-line behavior: config resolution, outputs, and exit codes."""

import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import auvgeom
from auvgeom import cli
from auvgeom.cli import main
from auvgeom.harness import CSV_CONTRACT, CSV_HEADER, load_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCrlb:
    def test_prints_bound_summary(self, capsys):
        code, out, _ = run(capsys, "--set", "deployment.scale_k=0.85", "crlb")
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(fields["trace_crlb_m2"]) > 0
        assert float(fields["offdiag_residual"]) < 1e-9
        assert float(fields["condition_number"]) < 10.0
        # circle layouts make the diagonal bound exact
        assert float(fields["diagonal_lower_bound_m2"]) == pytest.approx(
            float(fields["trace_crlb_m2"])
        )

    def test_writes_csv_when_out_given(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--set", "deployment.scale_k=0.85", "--out", str(tmp_path), "crlb"
        )
        assert code == 0
        text = (tmp_path / "crlb.csv").read_text()
        assert text.startswith("# auvgeom ")
        assert "# config {" in text
        assert "metric,value" in text

    def test_coplanar_layout_exits_3(self, capsys):
        anchors = json.dumps([[0, 50, 0], [40, 50, 0], [80, 50, 0], [120, 50, 0]])
        code, _, err = run(
            capsys, "--set", "deployment.kind=fixed", "--set", f"deployment.anchors={anchors}", "crlb"
        )
        assert code == 3
        assert "SingularFim" in err

    def test_per_trial_random_layout_rejected(self, capsys):
        code, _, err = run(capsys, "--set", "deployment.kind=random", "crlb")
        assert code == 2
        assert "seed" in err


class TestConfigResolution:
    def test_missing_config_file_names_path(self, capsys):
        code, _, err = run(capsys, "--config", "/no/such/file.json", "crlb")
        assert code == 2
        assert "/no/such/file.json" in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "--config", str(bad), "crlb")
        assert code == 2
        assert "bad.json" in err

    def test_unknown_key_rejected(self, capsys):
        code, _, err = run(capsys, "--set", "nonsense.key=1", "crlb")
        assert code == 2
        assert "nonsense" in err

    @pytest.mark.parametrize("route", ["config", "set"])
    def test_arc_length_key_is_gone(self, capsys, tmp_path, route):
        # the noise distance is always the slant range; the old switch is an unknown key
        if route == "config":
            doc = tmp_path / "old.json"
            doc.write_text(json.dumps({"noise": {"use_arc_length": True}}))
            argv = ["--config", str(doc)]
        else:
            argv = ["--set", "noise.use_arc_length=true"]
        code, out, err = run(capsys, *argv, "crlb")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: unknown config key 'noise.use_arc_length'"]

    def test_set_without_equals_rejected(self, capsys):
        code, _, err = run(capsys, "--set", "trials", "crlb")
        assert code == 2

    @pytest.mark.parametrize(
        "assignment, key",
        [
            ("deployment.n=4.5", "deployment.n"),
            ("ssp.steepness_a=Infinity", "ssp.steepness_a"),
            ("auv=[50,50]", "auv"),
            ('trials="10"', "trials"),
            ("noise.sigma_ms=NaN", "noise.sigma_ms"),
            ("deployment.center=[1,2,true]", "deployment.center"),
        ],
    )
    def test_bad_value_exits_2_naming_key(self, capsys, tmp_path, assignment, key):
        code, _, err = run(capsys, "--set", assignment, "--out", str(tmp_path), "simulate")
        assert code == 2
        assert repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "sets, message",
        [
            (["noise.beta=3"], "config key 'noise.beta' must lie in [1, 2], got 3"),
            (
                ["noise.kind=constant_variance", "noise.sigma_ms=0"],
                "config key 'noise.sigma_ms' must be positive, got 0",
            ),
            (["trials=0"], "config key 'trials' must be >= 1, got 0"),
            (["ssp.steepness_a=-0.1"], "config key 'ssp.steepness_a' must be positive, got -0.1"),
            (["noise.l0=0"], "config key 'noise.l0' must be positive, got 0"),
            (["master_seed=-1"], "config key 'master_seed' must be >= 0, got -1"),
            (["deployment.scale_k=0"], "config key 'deployment.scale_k' must be positive, got 0"),
            (
                ["deployment.box=[[0,1],[0,1],[-1,0]]"],
                "config key 'deployment.box' must have ordered bounds and depths >= 0, "
                "got [[0, 1], [0, 1], [-1, 0]]",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["crlb", "simulate"])
    def test_out_of_range_value_names_its_key(self, capsys, tmp_path, sets, message, command):
        argv = [arg for assignment in sets for arg in ("--set", assignment)]
        code, out, err = run(capsys, *argv, "--out", str(tmp_path), command)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not list(tmp_path.iterdir())

    def test_zero_workers_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "--workers", "0", "--out", str(tmp_path), "simulate")
        assert code == 2
        assert err.splitlines() == ["error: config key 'workers' must be >= 1, got 0"]

    @pytest.mark.parametrize("auv", ["[0,0,0]", "[0,0,-5]"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["crlb"],
            ["optimize-k"],
            ["simulate"],
            ["--set", "deployment.kind=cube", "crlb"],
            ["--set", "noise.kind=constant_variance", "optimize-k"],
            ["--set", "deployment.scale_k=0.85", "simulate"],
        ],
    )
    def test_auv_at_or_above_the_surface_names_auv(self, capsys, tmp_path, auv, argv):
        code, out, err = run(capsys, "--set", f"auv={auv}", "--out", str(tmp_path), *argv)
        assert code == 2
        assert out == ""
        z = auv.strip("[]").split(",")[-1]
        assert err.splitlines() == [
            f"error: config key 'auv' must have z > 0 (the AUV below the surface), got [0, 0, {z}]"
        ]

    def test_config_file_then_flag_precedence(self, capsys, tmp_path):
        doc = {"deployment": {"scale_k": 0.85}, "trials": 30, "master_seed": 3}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "--config", str(cfg), "--seed", "9", "--out", str(tmp_path), "simulate"
        )
        assert code == 0
        table = load_csv(str(tmp_path / "simulate.csv"))
        assert table.rows[0].seed == 9
        assert table.rows[0].trials == 30

    def test_resolution_leaves_the_defaults_alone(self, capsys, tmp_path):
        # a value from a config file and a --set into every section
        before = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"auv": [10.0, 20.0, 40.0], "deployment": {"scale_k": 0.9}}))
        sets = [
            "auv=[5,5,60]", "ssp.steepness_a=0.2", "noise.ke_db=-12", "deployment.n=6",
            "movement.seed=3", "optimizer.initial_k=1.5", "sweep.values=[1,2]", "trials=7",
            "master_seed=4", "workers=1",
        ]
        argv = ["--config", str(cfg)] + [a for s in sets for a in ("--set", s)] + ["crlb"]
        assert run(capsys, *argv)[0] == 0
        assert cli.DEFAULT_CONFIG == before

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a type error outranks a range error met earlier
            (
                ["--set", "noise.beta=3", "--set", "deployment.n=4.5"],
                "config key 'deployment.n' expects an integer, got 4.5",
            ),
            (
                ["--set", "auv=[1,2,-5]", "--set", 'trials="x"'],
                "config key 'trials' expects an integer, got 'x'",
            ),
            # two range errors: the first in DEFAULT_CONFIG order, not argv order
            (
                ["--set", "trials=0", "--set", "noise.beta=3"],
                "config key 'noise.beta' must lie in [1, 2], got 3",
            ),
            (
                ["--workers", "0", "--set", "auv=[50,50,0]"],
                "config key 'auv' must have z > 0 (the AUV below the surface), got [50, 50, 0]",
            ),
            (
                ["--seed", "-3", "--set", "movement.delta_meters=-1"],
                "config key 'movement.delta_meters' must be >= 0, got -1",
            ),
            (["--seed", "-3"], "config key 'master_seed' must be >= 0, got -3"),
        ],
    )
    def test_several_bad_leaves_name_the_same_key(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path), "crlb")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_config_file_leaves_are_checked(self, capsys, tmp_path):
        doc = tmp_path / "run.json"
        doc.write_text(json.dumps({"noise": {"beta": 3}, "deployment": {"n": "eight"}}))
        code, _, err = run(capsys, "--config", str(doc), "crlb")
        assert code == 2
        assert err.splitlines() == ["error: config key 'deployment.n' expects an integer, got 'eight'"]

    def test_set_overrides_a_bad_config_file_leaf(self, capsys, tmp_path):
        doc = tmp_path / "run.json"
        doc.write_text(json.dumps({"noise": {"beta": 3}}))
        code, _, err = run(capsys, "--config", str(doc), "crlb")
        assert code == 2
        assert err.splitlines() == ["error: config key 'noise.beta' must lie in [1, 2], got 3"]
        code, out, err = run(capsys, "--config", str(doc), "--set", "noise.beta=1.5", "crlb")
        assert code == 0
        assert err == ""
        assert out.splitlines()[0].startswith("trace_crlb_m2 ")

    @pytest.mark.parametrize(
        "argv, record",
        [
            (
                ["--set", "deployment.kind=cube", "--set", "deployment.n=6",
                 "--set", "noise.kind=constant_variance", "--set", "noise.sigma_ms=2.5",
                 "--seed", "4", "crlb"],
                '# config {"auv":[50.0,50.0,50.0],"deployment":{"anchors":null,"box":null,'
                '"center":null,"kind":"cube","n":6,"scale_k":null,"seed":null,"side":null},'
                '"master_seed":4,"movement":{"delta_meters":0.0,"kind":"static","seed":0},'
                '"noise":{"beta":2.0,"ke_db":-10.0,"kind":"constant_variance","l0":1000.0,'
                '"l_f_db_per_km":1.0,"sigma_ms":2.5},"optimizer":{"fd_step_h":1e-05,'
                '"initial_k":1.0,"max_iterations_Nmax":200,"precision_eps":1e-06,'
                '"step_size_t":0.1},"ssp":{"steepness_a":0.1,"surface_speed_b":1480.0},'
                '"sweep":{"axis":null,"values":null},"trials":2000}',
            ),
            (
                ["--set", "trials=4", "--set", "sweep.axis=sigma_ms",
                 "--set", "sweep.values=[1,2]", "--set", "noise.kind=constant_variance",
                 "--set", "movement.kind=rs-usc", "--set", "movement.delta_meters=20",
                 "--workers", "2", "simulate"],
                '# config {"auv":[50.0,50.0,50.0],"deployment":{"anchors":null,"box":null,'
                '"center":null,"kind":"usc","n":8,"scale_k":null,"seed":null,"side":null},'
                '"master_seed":0,"movement":{"delta_meters":20,"kind":"rs-usc","seed":0},'
                '"noise":{"beta":2.0,"ke_db":-10.0,"kind":"constant_variance","l0":1000.0,'
                '"l_f_db_per_km":1.0,"sigma_ms":1.0},"optimizer":{"fd_step_h":1e-05,'
                '"initial_k":1.0,"max_iterations_Nmax":200,"precision_eps":1e-06,'
                '"step_size_t":0.1},"ssp":{"steepness_a":0.1,"surface_speed_b":1480.0},'
                '"sweep":{"axis":"sigma_ms","values":[1,2]},"trials":4}',
            ),
        ],
        ids=["crlb", "simulate"],
    )
    def test_config_record_is_frozen(self, capsys, tmp_path, argv, record):
        # the resolved config the CSV records, byte for byte, with no bookkeeping key
        code, _, _ = run(capsys, "--out", str(tmp_path), *argv)
        assert code == 0
        (path,) = tmp_path.glob("*.csv")
        lines = path.read_text().splitlines()
        assert lines[1] == record

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "auvgeom" in capsys.readouterr().out


class TestOptimizeK:
    def test_distance_noise_optimum(self, capsys):
        code, out, _ = run(capsys, "--set", "deployment.n=6", "optimize-k")
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert 0.83 <= float(fields["k_star"]) <= 0.86

    def test_grid_cross_check(self, capsys):
        code, out, _ = run(capsys, "optimize-k", "--grid")
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(fields["grid_agreement"]) < 2e-3

    def test_three_anchors_exit_2(self, capsys):
        code, _, err = run(capsys, "--set", "deployment.n=3", "optimize-k")
        assert code == 2
        assert "4" in err

    def test_budget_exhaustion_exit_4(self, capsys):
        code, _, err = run(
            capsys, "--set", "optimizer.max_iterations_Nmax=1", "optimize-k"
        )
        assert code == 4

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("initial_k=0", "initial_k must be positive, got 0.0"),
            ("step_size_t=2", "step_size_t must lie in (0, 1), got 2.0"),
            ("precision_eps=-1e-6", "precision_eps must be positive, got -1e-06"),
            ("max_iterations_Nmax=0", "max_iterations_Nmax must be >= 1, got 0"),
            ("fd_step_h=0", "fd_step_h must be positive, got 0.0"),
        ],
    )
    def test_bad_optimizer_field_is_named(self, capsys, assignment, message):
        code, out, err = run(capsys, "--set", f"optimizer.{assignment}", "optimize-k")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("grid", [(), ("--grid",)])
    def test_non_finite_objective_exit_2(self, capsys, grid):
        code, out, err = run(capsys, "--set", "noise.ke_db=1e308", "optimize-k", *grid)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: objective tr(CRLB)(k) is inf at k=1.0, not finite and positive"]

    def test_parser_reuse_keeps_no_state(self, capsys):
        cli._build_parser.cache_clear()
        first = run(capsys, "optimize-k")
        cli._build_parser.cache_clear()
        run(capsys, "--seed", "3", "--set", "deployment.n=4", "optimize-k", "--grid")
        assert run(capsys, "optimize-k") == first
        args = cli._build_parser().parse_args(["optimize-k"])
        assert (args.seed, args.set, args.grid) == (None, None, False)

    def test_sweep_artifacts(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--out", str(tmp_path), "--plot",
            "--set", "noise.kind=constant_variance", "optimize-k",
        )
        assert code == 0
        table = load_csv(str(tmp_path / "ksweep.csv"))
        assert len(table.rows) == 21
        assert all(r.axis_name == "scale_k" for r in table.rows)
        assert (tmp_path / "ksweep.svg").read_text().startswith("<svg")


class TestSimulate:
    def test_repeat_seed_gives_identical_bytes(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        args = ["--seed", "7", "--set", "trials=40", "--set", "deployment.scale_k=0.85"]
        assert run(capsys, *args, "--out", str(d1), "simulate")[0] == 0
        assert run(capsys, *args, "--out", str(d2), "simulate")[0] == 0
        assert (d1 / "simulate.csv").read_bytes() == (d2 / "simulate.csv").read_bytes()

    def test_single_scenario_row(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--set", "trials=20", "--set", "deployment.scale_k=0.85",
            "--out", str(tmp_path), "simulate",
        )
        assert code == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[2:4] == [CSV_CONTRACT, CSV_HEADER]
        table = load_csv(str(tmp_path / "simulate.csv"))
        assert len(table.rows) == 1
        assert table.rows[0].axis_name == "single"

    def test_config_driven_sweep(self, capsys, tmp_path):
        doc = {
            "deployment": {"scale_k": 0.85},
            "noise": {"kind": "constant_variance"},
            "sweep": {"axis": "sigma_ms", "values": [1.0, 2.0, 5.0]},
            "trials": 15,
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "--config", str(cfg), "--out", str(tmp_path), "simulate")
        assert code == 0
        table = load_csv(str(tmp_path / "simulate.csv"))
        assert [r.axis_value for r in table.rows] == [1.0, 2.0, 5.0]

    def test_figure_preset_writes_named_files(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--set", "trials=25", "--workers", "2", "--plot",
            "--out", str(tmp_path), "--figure", "6", "simulate",
        )
        assert code == 0
        table = load_csv(str(tmp_path / "fig6.csv"))
        assert {r.scheme for r in table.rows} == {"rm-usc", "rs-usc"}
        assert (tmp_path / "fig6.svg").exists()

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AUVGEOM_OUT", str(tmp_path))
        code, _, _ = run(
            capsys, "--set", "trials=15", "--set", "deployment.scale_k=0.85", "simulate"
        )
        assert code == 0
        assert (tmp_path / "simulate.csv").exists()

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--figure", "99", "simulate"])
        assert exc.value.code == 2

    def test_figure_flag_needs_simulate(self, capsys):
        code, _, err = run(capsys, "--figure", "4a", "crlb")
        assert code == 2
        assert "simulate" in err

    def test_bad_sweep_axis_exit_2(self, capsys, tmp_path):
        doc = {"sweep": {"axis": "warp_factor", "values": [1, 2]}}
        cfg = tmp_path / "warp.json"
        cfg.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "--config", str(cfg), "--out", str(tmp_path), "simulate")
        assert code == 2

    def test_fractional_anchor_count_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--set", "sweep.axis=anchor_count", "--set", "sweep.values=[4.5,5]",
            "--out", str(tmp_path), "simulate",
        )
        assert code == 2
        assert "4.5" in err and "whole number" in err
        assert not (tmp_path / "simulate.csv").exists()

    def test_figure_rejects_config_it_would_ignore(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--figure", "3", "--set", "noise.kind=constant_variance",
            "--set", "noise.sigma_ms=5", "--set", "deployment.n=4",
            "--out", str(tmp_path), "simulate",
        )
        assert code == 2
        assert "'noise.kind'" in err
        assert not (tmp_path / "fig3.csv").exists()

    def test_figure_header_records_only_what_applies(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--figure", "3", "--seed", "4", "--set", "trials=7",
            "--out", str(tmp_path), "simulate",
        )
        assert code == 0
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        config = json.loads(lines[1].removeprefix("# config "))
        assert config == {"figure": "3", "master_seed": 4}

    def test_figure_3_file_ignores_trials(self, capsys, tmp_path):
        # fig3 is the closed-form radius sweep, with no trial count to apply
        files = []
        for trials in ("7", "8"):
            out = tmp_path / trials
            out.mkdir()
            code, _, _ = run(
                capsys, "--figure", "3", "--set", f"trials={trials}", "--out", str(out),
                "simulate",
            )
            assert code == 0
            files.append((out / "fig3.csv").read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--figure", "4a", "--set", "trials=10"),
            (
                "--set", "noise.kind=constant_variance", "--set", "deployment.scale_k=0.85",
                "--set", "sweep.axis=sigma_ms", "--set", "sweep.values=[1,5]",
                "--set", "trials=10",
            ),
        ],
        ids=["figure", "config-sweep"],
    )
    def test_worker_count_leaves_the_files_alone(self, capsys, tmp_path, argv):
        files = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            out.mkdir()
            code, _, _ = run(
                capsys, *argv, "--workers", workers, "--plot", "--out", str(out), "simulate"
            )
            assert code == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(files[0]) == 2
        assert files[0] == files[1]
        assert b"workers" not in next(v for k, v in files[0].items() if k.endswith(".csv"))


def test_overflowing_noise_writes_one_stderr_line():
    # a separate interpreter, so numpy warnings reach stderr as they would
    # for a user rather than pytest's warning capture
    src = str(pathlib.Path(auvgeom.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    env.pop("AUVGEOM_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "auvgeom.cli", "--set", "noise.ke_db=1e308", "crlb"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: objective")


@pytest.mark.parametrize(
    "noise",
    [
        pytest.param(["noise.ke_db=1e308"], id="ke_db_overflow"),
        pytest.param(["noise.ke_db=-2.2e163"], id="ke_db_underflow"),
        pytest.param(
            ["noise.kind=constant_variance", "noise.sigma_ms=1e-170"], id="sigma_underflow"
        ),
    ],
)
def test_overflowing_noise_simulate_writes_one_stderr_line(tmp_path, noise):
    # the bound and the estimator divide by an infinite or zero sigma: no
    # numpy warning may leak
    sets = [arg for leaf in noise for arg in ("--set", leaf)]
    argv = [*sets, "--set", "deployment.kind=random",
            "--set", "trials=5", "--out", str(tmp_path), "simulate"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert code == 3
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert err.getvalue().startswith("error: NoConvergedTrials: ")
    assert "Warning" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


# numeric config leaves the fuzz test assigns finite doubles to
FLOAT_LEAVES = (
    "ssp.surface_speed_b",
    "ssp.steepness_a",
    "noise.sigma_ms",
    "noise.ke_db",
    "noise.beta",
    "noise.l0",
    "noise.l_f_db_per_km",
    "optimizer.initial_k",
    "optimizer.step_size_t",
    "optimizer.precision_eps",
    "optimizer.fd_step_h",
    "deployment.scale_k",
    "deployment.side",
)
finite = st.floats(allow_nan=False, allow_infinity=False)
assignments = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(FLOAT_LEAVES), finite.map(repr)),
        st.tuples(st.just("auv"), st.lists(finite, min_size=3, max_size=3).map(json.dumps)),
        st.tuples(
            st.sampled_from(("deployment.n", "deployment.seed")),
            st.one_of(finite.map(repr), st.integers(-2, 64).map(str)),
        ),
        st.tuples(st.just("deployment.kind"), st.sampled_from(("usc", "cube", "random"))),
        st.tuples(
            st.just("noise.kind"), st.sampled_from(("constant_variance", "distance_dependent"))
        ),
    ).map("=".join),
    min_size=1,
    max_size=3,
)
commands = st.sampled_from((("crlb",), ("optimize-k",), ("optimize-k", "--grid")))


@settings(derandomize=True, max_examples=400)
@given(assignments, commands)
@example(["ssp.steepness_a=5e-324"], ("crlb",))
@example(["noise.ke_db=-2.2e163", "deployment.kind=random", "deployment.seed=2"], ("crlb",))
@example(["ssp.steepness_a=1e30"], ("crlb",))
@example(["ssp.steepness_a=1e30"], ("optimize-k",))
@example(
    ["noise.kind=constant_variance", "noise.sigma_ms=1e308", "deployment.kind=cube"], ("crlb",)
)
@example(["ssp.steepness_a=4e257", "deployment.kind=random", "deployment.seed=4"], ("crlb",))
@example(["optimizer.initial_k=1e-139", "optimizer.fd_step_h=1e-193"], ("optimize-k",))
def test_any_finite_config_exits_cleanly(assignments, command):
    argv = [arg for a in assignments for arg in ("--set", a)] + list(command)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out):
        os.environ.pop("AUVGEOM_OUT", None)  # no output files
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
