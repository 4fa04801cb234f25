"""scripts/bench_pairs.py's summary of canned perfbench result lines."""

import importlib.util
import json
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


def verdicts(table):
    # (seed, parent ops_per_s, change ops_per_s) rows, setup_s held at 0.2
    canned = runs([(k, side, ops, 0.2) for k, p, c in table
                   for side, ops in (("parent", p), ("change", c))])
    got = load_script().summarize(canned, SPECS)["metrics"]
    return got["ops_per_s"]["verdict"], got["setup_s"]["verdict"]


def test_verdict_worse():
    # the change's median 70 is 30% below the parent's 100, past the 0.25 bound
    assert verdicts([(1, 99.0, 70.0), (2, 100.0, 69.0), (3, 101.0, 71.0)]) == (
        "worse", "within_bound")


def test_verdict_unresolved():
    # the parent's IQR, 40 - 30 over a median of 35 (0.29), exceeds the
    # bound, and one change run (31) loses to parent runs 40 and 50
    assert verdicts([(1, 20.0, 31.0), (2, 30.0, 36.0), (3, 35.0, 37.0),
                     (4, 40.0, 38.0), (5, 50.0, 39.0)])[0] == "unresolved"


def test_verdict_wide_parent_but_every_change_run_wins():
    # the same parent spread, but every change run beats every parent run
    assert verdicts([(1, 20.0, 51.0), (2, 30.0, 52.0), (3, 35.0, 53.0),
                     (4, 40.0, 54.0), (5, 50.0, 55.0)])[0] == "within_bound"


def test_verdict_within_bound():
    # 10% worse, inside the bound, with a tight parent
    assert verdicts([(1, 99.0, 90.0), (2, 100.0, 89.0), (3, 101.0, 91.0)]) == (
        "within_bound", "within_bound")


def test_verdict_lower_is_better():
    # setup_s: 0.26 s against 0.20 s is 30% worse; a wide parent is
    # unresolved unless the change is faster on every run
    script = load_script()
    assert script.verdict([0.20, 0.20, 0.20], [0.26, 0.26, 0.26], "lower", 0.25) == "worse"
    assert script.verdict([0.1, 0.2, 0.3], [0.2, 0.2, 0.2], "lower", 0.25) == "unresolved"
    assert script.verdict([0.1, 0.2, 0.3], [0.05, 0.06, 0.07], "lower", 0.25) == "within_bound"


def claim(table):
    # (seed, parent ops_per_s, change ops_per_s) rows: claim_met of ops_per_s
    canned = runs([(k, side, ops, 0.2) for k, p, c in table
                   for side, ops in (("parent", p), ("change", c))])
    script = load_script()
    return script.claim_met(script.summarize(canned, SPECS)["metrics"]["ops_per_s"])


def test_claim_met():
    # ten wins; the median gain, 119.5 - 99.5, exceeds the parent's IQR of 4.5
    assert claim([(k, 95.0 + k, 115.0 + k) for k in range(10)])


def test_claim_missed_on_wins():
    # a median gain of 19 against an IQR of 4.5, but two of the ten pairs are losses
    table = [(k, 95.0 + k, 115.0 + k) for k in range(10)]
    table[0], table[9] = (0, 95.0, 90.0), (9, 104.0, 100.0)
    assert not claim(table)


def test_claim_missed_on_iqr():
    # ten wins, but the median gain of 2 sits inside the parent's IQR of 18
    assert not claim([(k, 80.0 + 4 * k, 82.0 + 4 * k) for k in range(10)])


@pytest.mark.parametrize("claimed", ["mc_fig4a.ops_per_s", "mc_fig5_par.speed", "mc_fig5_par"])
def test_unknown_claim_exits_2_before_any_run(claimed, monkeypatch, tmp_path):
    # only mc_fig5_par runs, and ops_per_s and setup_s are the metrics
    script = load_script()

    def export(rev, dest):
        pathlib.Path(dest).mkdir(parents=True)
        (pathlib.Path(dest) / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
        return rev

    def run_once(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(script, "export", export)
    monkeypatch.setattr(script, "run_once", run_once)
    argv = ["--parent", "a", "--change", "b", "--workloads", "mc_fig5_par",
            "--first-seed", "0", "--claim", claimed, "--out", str(tmp_path / "out.json")]
    assert script.main(argv) == 2
    assert not (tmp_path / "out.json").exists()
