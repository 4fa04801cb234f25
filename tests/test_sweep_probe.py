"""scripts/sweep_probe.py: two checkouts' sweeps, alternated in one process."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "sweep_probe.py"


def test_the_same_tree_twice_gives_equal_csv():
    src = str(ROOT / "src")
    argv = ["--src", src, "--src", src, "--trials", "20", "--rounds", "2", "--figure", "5"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "fig5 seed=7 trials=20 rounds=2: csv equal"
    for side, line in zip("AB", lines[1:3]):
        assert re.fullmatch(rf"{side} wall_s=\d+\.\d{{4}} cpu_s=\d+\.\d{{4}} src={re.escape(src)}", line)
    assert re.fullmatch(r"A/B wall ratio median=\d+\.\d{3}; B won [0-2]/2", lines[3])
    assert len(lines) == 4


def test_src_must_be_given_twice():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "give --src exactly twice" in done.stderr
