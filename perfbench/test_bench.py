"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the per-workload report metrics are there, that the output checks
pass, and that spans nest, including across the sweep executor's worker
threads.  Not part of the tier-1 suite (pytest's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402
from auvgeom import harness  # noqa: E402
from tracer import Tracer, nesting_problems  # noqa: E402

SETUP = {"setup_s": 0.2, "import_s": 0.15, "inputs_s": 0.05}
TINY = {"mc_fig4a": {"trials": 20}, "mc_fig5_par": {"trials": 20},
        "design_queries": {"queries": 30, "traced": 20}}
REPORTED = {
    "mc_fig4a": {"setup_s", "trials_per_s", "peak_rss_mb", "failed_frac"},
    "mc_fig5_par": {"setup_s", "trials_per_s", "peak_rss_mb", "failed_frac"},
    "design_queries": {"setup_s", "queries_per_s", "query_p50_ms", "query_p99_ms",
                       "peak_rss_mb", "failed_frac"},
}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_emitted_names_and_units():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = workloads.run(workload, 3, 0, False, SETUP, **TINY[workload])
    assert out.correct, out.problems
    assert out.failed == 0 and out.attempted > 0
    assert set(out.metrics) == set(workloads.END_TO_END)
    assert all(v > 0 for v in out.metrics.values())
    assert REPORTED[workload] <= set(out.report)
    assert all(isinstance(unit, str) and unit for _, unit in out.report.values())
    assert out.tracer is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_spans_nest(workload):
    out = workloads.run(workload, 3, 0, True, SETUP, **TINY[workload])
    assert out.correct, out.problems
    assert set(out.metrics) == set(layers.PER_LAYER)
    assert all(isinstance(v, (int, float)) for v in out.metrics.values())
    spans = out.tracer.spans
    assert spans and nesting_problems(spans) == []
    if workload in workloads.MC_PRESETS:
        assert out.metrics["estimator.trials"] == 15 * TINY[workload]["trials"]
        assert out.metrics["kernel.harness.calls"] > 0
    else:
        assert out.metrics["cli.calls"] == TINY[workload]["traced"]
    # the patched functions are back in place
    assert harness._time_and_rows.__module__ == "auvgeom.fisher"


def test_worker_threads_nest_under_their_own_cells():
    out = workloads.run("mc_fig5_par", 3, 0, True, SETUP, trials=20)
    by_id = {s.id: s for s in out.tracer.spans}
    cells = [s for s in out.tracer.spans if s.name == layers.CELL]
    assert len({c.thread for c in cells}) == 2
    for s in out.tracer.spans:
        if s.name == layers.ESTIMATOR:
            loop = by_id[s.parent]
            assert loop.name == layers.LOOP and by_id[loop.parent].name == layers.CELL
            assert s.thread == loop.thread == by_id[loop.parent].thread


def test_missing_boundary_reports_null():
    tracer = Tracer()
    saved = harness._time_and_rows
    del harness._time_and_rows
    try:
        layers.install(tracer)
        tracer.close()
    finally:
        harness._time_and_rows = saved
    m = layers.layer_metrics(tracer, cpu_s=0.0, workers=1, setup=SETUP,
                             overhead_frac=0.0, failed_frac=0.0)
    assert m["kernel.harness.calls"] is None and m["kernel.ns_per_pair"] is None
    assert m["harness.loop_self_s"] is None
    assert m["fim.calls"] == 0 and m["kernel.estimator.calls"] == 0


def test_self_time_subtracts_children():
    tracer = Tracer()

    class Mod:
        @staticmethod
        def inner():
            return sum(range(1000))

        @staticmethod
        def outer():
            return Mod.inner() + Mod.inner()

    tracer.wrap(Mod, "inner", "inner")
    tracer.wrap(Mod, "outer", "outer")
    Mod.outer()
    tracer.close()
    from tracer import children_of, self_time

    outer = next(s for s in tracer.spans if s.name == "outer")
    kids = children_of(tracer.spans)[outer.id]
    assert len(kids) == 2
    assert self_time(outer, kids) == pytest.approx(
        outer.duration - sum(k.duration for k in kids), abs=1e-12)


def test_command_prints_result_line_and_refuses_a_bare_directory(tmp_path):
    run = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "design_queries",
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(run, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == workloads.END_TO_END

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(run, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
