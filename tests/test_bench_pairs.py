"""scripts/bench_pairs.py's summary of canned perfbench result lines."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
SPECS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(ops, setup, correct=True, attempted=100, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "setup_s": {"value": setup, "unit": "s"}},
    }


def runs(table):
    # (seed, side, ops_per_s, setup_s) rows as the script records its runs
    return [{"seed": k, "side": side, "result": result(ops, setup)}
            for k, side, ops, setup in table]


def test_medians_quartiles_and_wins():
    canned = runs([
        (1, "parent", 100.0, 0.20), (1, "change", 150.0, 0.21),
        (2, "change", 160.0, 0.19), (2, "parent", 110.0, 0.20),
        (3, "parent", 120.0, 0.20), (3, "change", 115.0, 0.18),
        (4, "change", 170.0, 0.22), (4, "parent", 130.0, 0.20),
        (5, "parent", 140.0, 0.20), (5, "change", 180.0, 0.20),
    ])
    got = load_script().summarize(canned, SPECS)
    assert got["seeds"] == [1, 2, 3, 4, 5] and got["pairs"] == 5 and got["all_correct"]
    assert got["attempted"] == {"parent": 500, "change": 500}
    ops = got["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 120.0, "q1": 110.0, "q3": 130.0,
                             "runs_by_seed": [100.0, 110.0, 120.0, 130.0, 140.0]}
    assert ops["change"]["runs_by_seed"] == [150.0, 160.0, 115.0, 170.0, 180.0]
    assert (ops["change"]["median"], ops["change"]["q1"], ops["change"]["q3"]) == (160.0, 150.0, 170.0)
    assert ops["change_wins"] == 4  # higher is better; seed 3 is a loss
    assert ops["median_change_frac"] == pytest.approx(1.0 / 3.0)
    assert ops["parent_iqr"] == 20.0 and ops["bound"] == 0.25
    setup = got["metrics"]["setup_s"]
    # lower is better: seeds 2 and 3 are wins, seed 5 a tie
    assert setup["change_wins"] == 2
    assert setup["median_change_frac"] == pytest.approx(0.0)


def test_incorrect_run_leaves_its_pair_out():
    canned = runs([(1, "parent", 100.0, 0.2), (1, "change", 90.0, 0.2),
                   (2, "parent", 100.0, 0.2), (2, "change", 200.0, 0.2)])
    canned[1]["result"]["correct"] = False
    script = load_script()
    got = script.summarize(canned, SPECS)
    assert not got["all_correct"]
    assert got["attempted"] == {"parent": 200, "change": 200}
    assert got["metrics"]["ops_per_s"]["change"]["runs_by_seed"] == [200.0]
    assert not script.ok({"error": "exit 1: boom"})
