"""Layer boundaries of auvgeom and the per-layer metrics derived from them.

Every boundary is wrapped at the module that calls it (see tracer.py).
The table below is the only place that knows which module imports which
layer function; NOTES.md maps each metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import statistics

import numpy as np

from auvgeom import cli, deployment, estimation, harness
from tracer import Tracer, children_of, self_time

# span names
CLI = "cli.main"
FIM = "fisher.fim"
KERNEL_HARNESS = "fisher.kernel@harness"
KERNEL_ESTIMATOR = "fisher.kernel@estimation"
OPTIMIZE_K = "deployment.optimize_k"
GRID = "deployment.grid_search_k"
RANDOM = "deployment.random_positions"
USC = "deployment.usc_positions"
ESTIMATOR = "estimation.estimate_trials"
LINESEARCH = "estimation.linesearch"
SWEEP = "harness.sweep"
CELL = "harness.cell"
LOOP = "harness.mc_loop"
BOUND = "harness.bound"
EXPORT = "harness.export"

# counter keys
OBJECTIVE_EVALS = "deployment.k_objective@optimize_k"

CLI_CHILDREN = {FIM, OPTIMIZE_K, GRID}

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.calls": "count",
    "cli.self_ms_p50": "ms",
    "kernel.harness.calls": "count",
    "kernel.harness.pairs": "count",
    "kernel.harness.busy_s": "s",
    "kernel.estimator.calls": "count",
    "kernel.estimator.pairs": "count",
    "kernel.estimator.busy_s": "s",
    "kernel.ns_per_pair": "ns",
    "fim.calls": "count",
    "fim.us_p50": "us",
    "optimize_k.calls": "count",
    "optimize_k.us_p50": "us",
    "optimize_k.objective_evals": "count",
    "grid_search_k.calls": "count",
    "grid_search_k.ms_p50": "ms",
    "random_positions.calls": "count",
    "random_positions.busy_s": "s",
    "random_positions.us_p50": "us",
    "usc_positions.calls": "count",
    "estimator.calls": "count",
    "estimator.busy_s": "s",
    "estimator.trials": "count",
    "estimator.iterations": "count",
    "estimator.iterations_p50": "count",
    "estimator.iterations_p95": "count",
    "estimator.at_cap": "count",
    "estimator.singular": "count",
    "estimator.linesearch_evals": "count",
    "estimator.converged_ratio": "ratio",
    "estimator.us_per_trial_iter": "us",
    "harness.loop_self_s": "s",
    "harness.loop_us_per_trial": "us",
    "harness.cell_s_p50": "s",
    "harness.bound.busy_s": "s",
    "harness.export.busy_s": "s",
    "harness.export.bytes": "bytes",
    "harness.cpu_s": "s",
    "harness.parallel_eff": "ratio",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


def _pairs(args, result):
    return int(np.size(result[0]))


def _estimator_summary(args, result):
    _, iters, conv, singular = result
    cfg = next(
        (a for a in args if isinstance(a, estimation.EstimatorConfig)),
        estimation.EstimatorConfig(),
    )
    at_cap = ~conv & ~singular & (iters >= cfg.max_iterations)
    return np.asarray(iters).copy(), int(conv.sum()), int(singular.sum()), int(at_cap.sum())


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; a name that no longer exists is marked missing."""
    tracer.wrap(cli, "main", CLI)
    for mod in (cli, harness):
        tracer.wrap(mod, "fim", FIM)
        tracer.wrap(mod, "optimize_k", OPTIMIZE_K)
    tracer.wrap(cli, "grid_search_k", GRID)
    tracer.wrap(harness, "random_positions", RANDOM)
    tracer.wrap(harness, "usc_positions", USC)
    # the ray kernel: the one private boundary, named as a layer by ROADMAP
    tracer.wrap(harness, "_time_and_rows", KERNEL_HARNESS, _pairs)
    tracer.wrap(estimation, "_time_and_rows", KERNEL_ESTIMATOR, _pairs)
    tracer.wrap(estimation, "_weighted_sse", LINESEARCH, lambda a, r: int(np.size(r)))
    tracer.wrap(harness, "estimate_trials", ESTIMATOR, _estimator_summary)
    tracer.wrap(harness, "sweep", SWEEP)
    tracer.wrap(harness, "_sweep_one", CELL)
    tracer.wrap(harness, "_run_mc", LOOP)
    tracer.wrap(harness, "_augmented_trace", BOUND)
    tracer.wrap(harness, "csv_text", EXPORT, lambda a, r: len(r.encode("utf-8")))
    tracer.count(deployment, "k_objective", OBJECTIVE_EVALS, within=OPTIMIZE_K)


def _median(values) -> float:
    # 0.0 when the layer made no calls in this workload
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    cpu_s: float,
    workers: int,
    setup: dict,
    overhead_frac: float,
    failed_frac: float,
) -> dict[str, float | None]:
    """Every PER_LAYER metric; None where its boundary is missing."""
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    kids = children_of(tracer.spans)

    def spans(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in spans(name))

    def infos(name):
        return [s.info for s in spans(name) if s.info is not None]

    kh_pairs = sum(infos(KERNEL_HARNESS))
    ke_pairs = sum(infos(KERNEL_ESTIMATOR))
    est = infos(ESTIMATOR)
    iters = np.concatenate([e[0] for e in est]) if est else np.zeros(0, dtype=int)
    trials = int(iters.size)
    iter_sum = int(iters.sum())
    loop_self = sum(self_time(s, kids.get(s.id, [])) for s in spans(LOOP))
    sweeps = spans(SWEEP)
    sweep_wall = sum(s.duration for s in sweeps)

    m: dict[str, float | None] = {
        "cli.calls": len(spans(CLI)),
        "cli.self_ms_p50": 1e3
        * _median([self_time(s, kids.get(s.id, []), CLI_CHILDREN) for s in spans(CLI)]),
        "kernel.harness.calls": len(spans(KERNEL_HARNESS)),
        "kernel.harness.pairs": kh_pairs,
        "kernel.harness.busy_s": busy(KERNEL_HARNESS),
        "kernel.estimator.calls": len(spans(KERNEL_ESTIMATOR)),
        "kernel.estimator.pairs": ke_pairs,
        "kernel.estimator.busy_s": busy(KERNEL_ESTIMATOR),
        "kernel.ns_per_pair": 1e9 * (busy(KERNEL_HARNESS) + busy(KERNEL_ESTIMATOR))
        / max(kh_pairs + ke_pairs, 1),
        "fim.calls": len(spans(FIM)),
        "fim.us_p50": 1e6 * _median([s.duration for s in spans(FIM)]),
        "optimize_k.calls": len(spans(OPTIMIZE_K)),
        "optimize_k.us_p50": 1e6 * _median([s.duration for s in spans(OPTIMIZE_K)]),
        "optimize_k.objective_evals": tracer.counted(OBJECTIVE_EVALS),
        "grid_search_k.calls": len(spans(GRID)),
        "grid_search_k.ms_p50": 1e3 * _median([s.duration for s in spans(GRID)]),
        "random_positions.calls": len(spans(RANDOM)),
        "random_positions.busy_s": busy(RANDOM),
        "random_positions.us_p50": 1e6 * _median([s.duration for s in spans(RANDOM)]),
        "usc_positions.calls": len(spans(USC)),
        "estimator.calls": len(spans(ESTIMATOR)),
        "estimator.busy_s": busy(ESTIMATOR),
        "estimator.trials": trials,
        "estimator.iterations": iter_sum,
        "estimator.iterations_p50": float(np.percentile(iters, 50)) if trials else 0.0,
        "estimator.iterations_p95": float(np.percentile(iters, 95)) if trials else 0.0,
        "estimator.at_cap": sum(e[3] for e in est),
        "estimator.singular": sum(e[2] for e in est),
        "estimator.linesearch_evals": sum(infos(LINESEARCH)),
        "estimator.converged_ratio": sum(e[1] for e in est) / trials if trials else 0.0,
        "estimator.us_per_trial_iter": 1e6 * busy(ESTIMATOR) / max(iter_sum, 1),
        "harness.loop_self_s": loop_self,
        "harness.loop_us_per_trial": 1e6 * loop_self / max(trials, 1),
        "harness.cell_s_p50": _median([s.duration for s in spans(CELL)]),
        "harness.bound.busy_s": busy(BOUND),
        "harness.export.busy_s": busy(EXPORT),
        "harness.export.bytes": sum(infos(EXPORT)),
        "harness.cpu_s": cpu_s,
        "harness.parallel_eff": busy(CELL) / (sweep_wall * workers) if sweeps else 0.0,
        "setup.import_s": setup["import_s"],
        "setup.inputs_s": setup["inputs_s"],
        "trace.overhead_frac": overhead_frac,
        "failed_frac": failed_frac,
    }
    for name in _blocked_by(tracer.missing):
        m[name] = None
    return m


# metrics that read each span or counter; a missing boundary nulls them
_SOURCES = {
    CLI: ("cli.",),
    FIM: ("fim.", "cli.self_ms_p50"),
    OPTIMIZE_K: ("optimize_k.", "cli.self_ms_p50"),
    GRID: ("grid_search_k.", "cli.self_ms_p50"),
    RANDOM: ("random_positions.", "harness.loop_"),
    USC: ("usc_positions.", "harness.loop_"),
    KERNEL_HARNESS: ("kernel.harness.", "kernel.ns_per_pair", "harness.loop_"),
    KERNEL_ESTIMATOR: ("kernel.estimator.", "kernel.ns_per_pair"),
    LINESEARCH: ("estimator.linesearch_evals",),
    ESTIMATOR: ("estimator.", "harness.loop_"),
    SWEEP: ("harness.parallel_eff",),
    CELL: ("harness.cell_s_p50", "harness.parallel_eff"),
    LOOP: ("harness.loop_",),
    BOUND: ("harness.bound.", "harness.loop_"),
    EXPORT: ("harness.export.",),
    OBJECTIVE_EVALS: ("optimize_k.objective_evals",),
}


def _blocked_by(missing: set[str]) -> list[str]:
    prefixes = tuple(p for name in missing for p in _SOURCES.get(name, ()))
    return [name for name in PER_LAYER if prefixes and name.startswith(prefixes)]
