"""scripts/radius_check.py: the harness's RMSE, bias and bounds over the radius scale."""

import importlib.util
import math
import pathlib

from auvgeom import harness
from auvgeom.fisher import NoiseModel
from auvgeom.geometry import Position

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "radius_check.py"


def load_script():
    spec = importlib.util.spec_from_file_location("radius_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fig6_scene_rows_are_finite_and_centre_matches_run_scenario(capsys):
    script = load_script()
    argv = ["--src", str(ROOT / "src"), "--scenes", "fig6", "--ks", "1.407", "2.0",
            "--seeds", "0", "--trials", "40"]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
        ("fig6", "8", truth, k) for k in ("1.407", "2") for truth in ("centre", "20 m", "40 m")
    ]
    for r in rows:
        numbers = [r[4], r[6], r[8], r[9]] + (r[7].split(",") + r[10:12] if r[2] == "centre" else [])
        assert all(math.isfinite(float(x)) for x in numbers), r
        assert r[12] == "0", r
    # the centre row reduces the same record run_scenario does, to the bit
    [centre, *_] = script.scene_rows("fig6", [0], 40, ks=[2.0])
    scenario = harness.Scenario(
        Position(50.0, 50.0, 50.0), harness.Usc(scale_k=2.0, n=8), harness.DEFAULT_SSP,
        NoiseModel.constant_variance(1e-3), 40, 0,
    )
    assert centre["truth"] == "centre"
    assert centre["rmse"] == harness.run_scenario(scenario).rmse_m
