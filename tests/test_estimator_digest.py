"""scripts/estimator_digest.py prints the same lines for the same code."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "estimator_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("estimator_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_four_lines(capsys):
    script = load_script()
    argv = ["--src", str(ROOT / "src"), "--seeds", "3", "--trials", "20"]
    runs = []
    for _ in range(2):
        assert script.main(argv) == 0
        runs.append(capsys.readouterr().out.splitlines())
    first, second = runs
    assert first == second
    keys = ("csv", "q", "iterations", "converged", "singular")
    fields = " ".join(f"{key}=[0-9a-f]{{16}}" for key in keys) + r" failed=\d+ below_cap=\d+"
    assert [line.split(" ", 1)[0] for line in first] == ["fig4a", "fig4b", "fig5", "fig6"]
    for line in first:
        assert re.fullmatch(rf"fig\w+ seed=3 {fields}", line)
