"""scripts/bent_ray_table.py: one estimator per sound-speed profile on the same data."""

import importlib.util
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bent_ray_table.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bent_ray_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_depth_prints_finite_bent_rows(capsys):
    script = load_script()
    argv = ["--src", str(ROOT / "src"), "--trials", "40", "--depths", "1000"]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    # three noise models times three profiles, at the one depth
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("1000", noise, profile)
        for noise in ("0.1 ms", "1 ms", "distance")
        for profile in ("bent", "straight-b", "straight-ch")
    ]
    rmse = {(r[1], r[2]): float(r[4]) for r in rows}
    for r in rows:
        if r[2] == "bent":
            assert all(math.isfinite(float(x)) for x in r[3:6]), r
            assert int(r[6]) == 0, r
    # at 1000 m the straight ray at the surface speed is biased by tens
    # of metres, far above the bent-ray estimator's error
    assert rmse["0.1 ms", "straight-b"] > 10.0 * rmse["0.1 ms", "bent"]
