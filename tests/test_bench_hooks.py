"""The benchmark still fits the program it measures.

perfbench/layers.py times auvgeom by patching named module attributes.
A boundary that was renamed, removed or no longer imported by its
calling module does not fail the benchmark: it only makes that layer's
metrics read null.  The first test installs the hooks on a fresh tracer
and requires that none is missing; the next requires the span nesting
that the layer metrics read, on a serial and a threaded sweep.  perfbench/workloads.py builds its
expected answers from ``cli.DEFAULT_CONFIG`` and the library at import
time; the second test imports it and requires a short seeded stream of
its design queries to pass its own checks.  perfbench is imported,
never changed, and no bytecode is written next to it.
"""

import os
import sys

import pytest

from auvgeom import estimation, fisher, harness

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_layer_boundary_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == set()
    finally:
        tracer.close()
    # every patched attribute is back for the rest of the session
    assert harness.estimate_trials is estimation.estimate_trials
    assert harness._time_and_rows is fisher._time_and_rows
    assert estimation._time_and_rows is fisher._time_and_rows


@pytest.mark.parametrize("maker, workers", [(harness.fig4a_spec, 1), (harness.fig5_spec, 2)])
def test_estimator_spans_nest_in_their_task(monkeypatch, maker, workers):
    # every estimate_trials span sits in a _run_mc span inside a _sweep_one
    # span, all on one thread: harness.loop_* and harness.cell_* read that
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    from tracer import Tracer, nesting_problems

    tracer = Tracer()
    try:
        layers.install(tracer)
        harness.sweep(maker(master_seed=0, trials=20), workers=workers)
    finally:
        tracer.close()
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    estimator = [s for s in spans if s.name == layers.ESTIMATOR]
    assert estimator and nesting_problems(spans) == []
    for s in estimator:
        loop = by_id[s.parent]
        cell = by_id[loop.parent]
        assert (loop.name, cell.name) == (layers.LOOP, layers.CELL)
        assert s.thread == loop.thread == cell.thread
    assert sum(len(s.info[0]) for s in estimator) == 15 * 20


def test_design_queries_pass_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delenv("AUVGEOM_OUT", raising=False)  # no output files
    import workloads

    problems = []
    for q in workloads.make_queries(seed=0, count=30):
        problem = workloads.check_query(q, *workloads.call_cli(q.argv)[:3])
        if problem is not None:
            problems.append((q.argv, problem))
    assert problems == []
