"""The benchmark's workloads: inputs made from the seed, timed loops, checks.

mc_fig4a     the fig4a preset sweep, serial (workers=1)
mc_fig5_par  the fig5 preset sweep on two sweep workers
design_queries  a seeded stream of in-process ``auvgeom`` crlb / optimize-k
             calls, the deployment designer's traffic

NOTES.md records why each workload was chosen and which layer metric
should move which end-to-end metric on which of them.  The program sees
only the generated inputs: a preset SweepSpec, or a list of argv lists.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import math
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from auvgeom import cli, deployment, fisher, harness
from auvgeom.geometry import SoundSpeedProfile

import layers
from tracer import Tracer

# name -> unit of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

MC_PRESETS = {"mc_fig4a": (harness.fig4a_spec, 1), "mc_fig5_par": (harness.fig5_spec, 2)}
WORKLOADS = (*MC_PRESETS, "design_queries")

# design_queries: the list the timed loop cycles through.  One pass is
# always completed, so the p99 latency has at least 15 samples beyond it.
QUERY_COUNT = 1500
TRACED_QUERIES = 1000
QUERY_MIX = ("crlb",) * 6 + ("optimize-k",) * 3 + ("grid",)
# each kind cycles through these; --grid under distance-dependent noise
# (about 15 ms, against 4 ms under constant noise) sets the p99
NOISE_CYCLE = {"crlb": ("distance", "constant"), "optimize-k": ("distance", "constant"),
               "grid": ("distance", "distance", "constant")}
CRLB_LAYOUTS = ("usc", "cube", "random")
# mc_*: sweeps per run, at least; the median of three ignores one slow sweep
MIN_SWEEPS = 3
# mc_fig5_par: trials per cell of the workers=1 against workers=2 byte check
WORKER_CHECK_TRIALS = 50
# usc rows: MSE over the row's own bound (see usc_band)
USC_RATIO_SEEN = (0.74, 1.09)
USC_BAND_SIGMAS = 6.0


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float | None] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.problems


def build_inputs(workload: str, seed: int, trials: int = harness.DEFAULT_TRIALS,
                 queries: int = QUERY_COUNT):
    """The workload's inputs: a preset SweepSpec or a list of Query."""
    if workload in MC_PRESETS:
        maker, _ = MC_PRESETS[workload]
        return maker(master_seed=seed, trials=trials)
    if workload == "design_queries":
        return make_queries(seed, queries)
    raise ValueError(f"unknown workload {workload!r}")


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_latency(samples) -> float:
    """p99 when at least ten samples lie beyond it, else the median.

    A few sweeps cannot support any tail percentile: the p99 of three
    samples is their maximum, one burst of host load.
    """
    p99 = float(np.percentile(samples, 99))
    if sum(1 for s in samples if s > p99) >= 10:
        return p99
    return float(statistics.median(samples))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Monte Carlo sweeps


def usc_band(trials: int) -> tuple[float, float]:
    """Accepted range of MSE / trace(CRLB) for a usc row.

    USC_RATIO_SEEN is the range of that ratio over every usc row of both
    presets at seeds 0-9 and 2000 trials.  It is not centred on 1: under
    range-dependent noise the reweighted estimator undercuts the bound
    at 4 anchors (0.75-0.81) and exceeds it slightly at 8 (1.04-1.09),
    while fig5's constant noise keeps it within 0.99-1.05.  The band
    widens that range by USC_BAND_SIGMAS sampling deviations: the mean
    of T squared 3-D errors has a relative standard deviation of at most
    sqrt(2 / T).  A wrong RMSE or a wrong bound moves the ratio far more.
    """
    spread = USC_BAND_SIGMAS * math.sqrt(2.0 / trials)
    return max(0.0, USC_RATIO_SEEN[0] - spread), USC_RATIO_SEEN[1] + spread


def check_rows(table, trials: int) -> list[tuple[object, str]]:
    """Rows that are not finite, carry an error note, or miss the usc band."""
    lo, hi = usc_band(trials)
    bad = []
    for r in table.rows:
        where = f"{r.scheme}@{r.axis_value!r}"
        if r.note:
            bad.append((r, f"{where}: {r.note}"))
        elif not all(math.isfinite(v) for v in (r.axis_value, r.rmse_m, r.trace_crlb_m2)):
            bad.append((r, f"{where}: non-finite rmse or bound"))
        elif not 0 <= r.diverged <= r.trials:
            bad.append((r, f"{where}: diverged count {r.diverged} of {r.trials}"))
        elif r.scheme == "usc" and not lo <= r.rmse_m ** 2 / r.trace_crlb_m2 <= hi:
            ratio = r.rmse_m ** 2 / r.trace_crlb_m2
            bad.append((r, f"{where}: MSE/bound {ratio:.4f} outside [{lo:.3f}, {hi:.3f}]"))
    return bad


def _sweep_once(spec, workers: int):
    t0 = time.perf_counter()
    table = harness.sweep(spec, workers=workers)
    text = harness.csv_text(table)
    return time.perf_counter() - t0, table, text


def run_mc(workload: str, seed: int, seconds: float, trace: bool, setup: dict,
           trials: int = harness.DEFAULT_TRIALS) -> Outcome:
    maker, workers = MC_PRESETS[workload]
    spec = build_inputs(workload, seed, trials)
    out = Outcome()
    runs = []  # (wall seconds, table, csv text) per sweep
    cpu_s = overhead = 0.0

    if trace:
        # one untraced sweep, then one traced sweep of the same inputs
        runs.append(_sweep_once(spec, workers))
        tracer = out.tracer = Tracer()
        layers.install(tracer)
        try:
            cpu0 = time.process_time()
            runs.append(_sweep_once(spec, workers))
            cpu_s = time.process_time() - cpu0
        finally:
            tracer.close()
        overhead = runs[1][0] / runs[0][0] - 1.0
    else:
        # whole sweeps until the next would overrun, and at least MIN_SWEEPS;
        # every run also compares the bytes of its sweeps
        start = time.perf_counter()
        while True:
            runs.append(_sweep_once(spec, workers))
            elapsed = time.perf_counter() - start
            if len(runs) >= MIN_SWEEPS and elapsed + statistics.median(r[0] for r in runs) > seconds:
                break
    walls, tables, texts = (list(col) for col in zip(*runs))

    per_sweep = sum(r.trials for r in tables[0].rows)
    out.attempted = per_sweep * len(tables)
    # sweeps with the first sweep's bytes have its rows, so check those once
    same = sum(text == texts[0] for text in texts)
    if same < len(texts):
        out.problems.append("CSV bytes differ between sweeps of one seed")
    bad_rows = check_rows(tables[0], trials)
    out.problems += [problem for _, problem in bad_rows]
    failed_trials = (len(texts) - same) * per_sweep + same * sum(r.trials for r, _ in bad_rows)
    if workers > 1:
        small = maker(master_seed=seed, trials=min(trials, WORKER_CHECK_TRIALS))
        serial = harness.csv_text(harness.sweep(small, workers=1))
        parallel = harness.csv_text(harness.sweep(small, workers=workers))
        if serial != parallel:
            out.problems.append(f"workers={workers} CSV differs from workers=1")
            failed_trials = out.attempted
    out.failed = failed_trials
    diverged = sum(r.diverged for t in tables for r in t.rows)
    failed_frac = min(diverged + failed_trials, out.attempted) / out.attempted

    rates = [per_sweep / w for w in walls]
    out.metrics = {
        "setup_s": setup["setup_s"],
        "ops_per_s": statistics.median(rates),
        "request_p50_ms": 1e3 * statistics.median(walls),
        "request_tail_ms": 1e3 * tail_latency(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.report = {
        "setup_s": (setup["setup_s"], "s"),
        "trials_per_s": (out.metrics["ops_per_s"], "1/s"),
        "sweep_s_p50": (statistics.median(walls), "s"),
        "peak_rss_mb": (out.metrics["peak_rss_mb"], "MB"),
        "failed_frac": (failed_frac, "ratio"),
    }
    out.notes = {
        "sweeps": len(walls),
        "sweep_s": walls,
        "trials_per_sweep": per_sweep,
        "non_converged_or_singular": diverged,
        "check_failed_trials": failed_trials,
        "csv_sha256": digest(texts[0]),
        "usc_band": usc_band(trials),
    }
    if trace:
        out.metrics = layers.layer_metrics(
            out.tracer, cpu_s=cpu_s, workers=workers, setup=setup,
            overhead_frac=overhead, failed_frac=failed_frac,
        )
        out.notes["untraced_sweep_s"] = walls[0]
    return out


# ---------------------------------------------------------------------------
# design queries


@dataclass(frozen=True)
class Query:
    kind: str  # "crlb", "optimize-k" or "grid" (optimize-k --grid)
    layout: str  # "usc", "cube" or "random"
    z: float
    n: int
    scale_k: float | None
    sigma_ms: float | None  # None: the distance-dependent noise model
    argv: tuple[str, ...]


def make_queries(seed: int, count: int) -> list[Query]:
    """Seeded queries: QUERY_MIX in shuffled blocks of ten.

    The share of each kind, noise model and crlb layout is exact, so a
    seed changes only where the queries sit in the stream and their
    continuous parameters, not how much of each kind of work there is.
    """
    rng = random.Random(seed)
    seen = {kind: 0 for kind in QUERY_MIX}
    out: list[Query] = []
    while len(out) < count:
        block = list(QUERY_MIX)
        rng.shuffle(block)
        for kind in block:
            out.append(_make_query(rng, kind, seen[kind]))
            seen[kind] += 1
    return out[:count]


def _make_query(rng: random.Random, kind: str, occurrence: int) -> Query:
    x, y = round(rng.uniform(0.0, 200.0), 1), round(rng.uniform(0.0, 200.0), 1)
    z = round(rng.uniform(20.0, 200.0), 1)
    n = rng.randint(4, 8)
    sigma_ms = round(rng.uniform(0.1, 10.0), 2)
    noise = NOISE_CYCLE[kind][occurrence % len(NOISE_CYCLE[kind])]
    if noise == "distance":
        sigma_ms = None
    layout = CRLB_LAYOUTS[occurrence % len(CRLB_LAYOUTS)] if kind == "crlb" else "usc"
    scale_k = round(rng.uniform(0.5, 1.6), 3) if layout == "usc" and kind == "crlb" else None
    sets = [f"auv=[{x!r},{y!r},{z!r}]", f"deployment.kind={layout}", f"deployment.n={n}"]
    if sigma_ms is not None:
        sets += ["noise.kind=constant_variance", f"noise.sigma_ms={sigma_ms!r}"]
    if scale_k is not None:
        sets.append(f"deployment.scale_k={scale_k!r}")
    if layout == "random":
        sets.append(f"deployment.seed={rng.randrange(2 ** 31)}")
    argv = [arg for s in sets for arg in ("--set", s)]
    argv += ["crlb"] if kind == "crlb" else ["optimize-k"]
    if kind == "grid":
        argv.append("--grid")
    return Query(kind, layout, z, n, scale_k, sigma_ms, tuple(argv))


def call_cli(argv) -> tuple[object, str, str, float]:
    """(exit code or exception, stdout, stderr, seconds) of one in-process call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as e:  # a query that escapes main is a failed query
        rc = e
    return rc, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - t0


_SSP = SoundSpeedProfile(**cli.DEFAULT_CONFIG["ssp"])
_DISTANCE_NOISE = fisher.NoiseModel.distance_dependent(
    **{k: v for k, v in cli.DEFAULT_CONFIG["noise"].items() if k not in ("kind", "sigma_ms")}
)
_GRID = inspect.signature(deployment.grid_search_k).parameters
GRID_STEP = (_GRID["k_max"].default - _GRID["k_min"].default) / _GRID["steps"].default


def _noise(q: Query) -> fisher.NoiseModel:
    if q.sigma_ms is None:
        return _DISTANCE_NOISE
    return fisher.NoiseModel.constant_variance(q.sigma_ms * 1e-3)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_query(q: Query, rc, stdout: str, stderr: str) -> str | None:
    """None when the query's output is right, else what is wrong."""
    if rc != 0:
        return f"exit {rc!r}: {stderr.strip()[:200]}"
    try:
        vals = {k: float(v) for k, v in (ln.split(" ", 1) for ln in stdout.splitlines())}
        if q.kind == "crlb":
            trace, lower = vals["trace_crlb_m2"], vals["diagonal_lower_bound_m2"]
            if not (math.isfinite(trace) and 0 < lower <= trace * (1 + 1e-9)):
                return f"bound {trace!r} below its diagonal bound {lower!r}"
            if q.layout == "usc":
                sigma2 = fisher.noise_variance(_noise(q), q.z * math.hypot(1.0, q.scale_k))
                closed = deployment.usc_trace_crlb_closed_form(q.scale_k, q.z, q.n, _SSP, sigma2)
                if not _close(trace, closed):
                    return f"usc bound {trace!r} against closed form {closed!r}"
            return None
        k_star, objective = vals["k_star"], vals["objective_m2"]
        expected = deployment.k_objective(k_star, q.z, q.n, _SSP, _noise(q))
        if not (k_star > 0 and _close(objective, expected)):
            return f"objective {objective!r} does not match k_star {k_star!r}"
        if q.kind == "grid" and not abs(k_star - vals["grid_k_star"]) <= GRID_STEP * (1 + 1e-9):
            return f"k_star {k_star!r} more than one grid step from {vals['grid_k_star']!r}"
    except (KeyError, ValueError) as e:
        return f"unreadable output ({e}): {stdout[:200]!r}"
    return None


def _run_queries(queries, out: Outcome, first: dict[int, str], count: int | None,
                 seconds: float | None) -> list[float]:
    """Call queries in order, cycling the list; stop after count calls, or
    once seconds have passed and every query has run once."""
    latencies = []
    start = time.perf_counter()
    i = 0
    while True:
        q = queries[i % len(queries)]
        rc, stdout, stderr, dt = call_cli(q.argv)
        latencies.append(dt)
        problem = check_query(q, rc, stdout, stderr)
        key = i % len(queries)
        if problem is None and first.setdefault(key, stdout) != stdout:
            problem = "output differs from the same query's earlier output"
        if problem is not None:
            out.failed += 1
            out.problems.append(f"query {key} {' '.join(q.argv)}: {problem}")
        i += 1
        if count is not None and i >= count:
            break
        if seconds is not None and i >= len(queries) and time.perf_counter() - start >= seconds:
            break
    out.attempted += len(latencies)
    return latencies


def run_queries(seed: int, seconds: float, trace: bool, setup: dict,
                queries: int = QUERY_COUNT, traced: int = TRACED_QUERIES) -> Outcome:
    qs = build_inputs("design_queries", seed, queries=queries)
    out = Outcome()
    first: dict[int, str] = {}
    if trace:
        # the same queries untraced, then traced
        count = min(traced, len(qs))
        plain = _run_queries(qs, out, first, count, None)
        tracer = out.tracer = Tracer()
        layers.install(tracer)
        try:
            cpu0 = time.process_time()
            latencies = _run_queries(qs, out, first, count, None)
            cpu_s = time.process_time() - cpu0
        finally:
            tracer.close()
        overhead = sum(latencies) / sum(plain) - 1.0
    else:
        latencies = _run_queries(qs, out, first, None, seconds)

    failed_frac = out.failed / out.attempted
    p50 = 1e3 * float(np.percentile(latencies, 50))
    p99 = 1e3 * float(np.percentile(latencies, 99))
    tail = 1e3 * tail_latency(latencies)
    qps = len(latencies) / sum(latencies)
    out.metrics = {
        "setup_s": setup["setup_s"],
        "ops_per_s": qps,
        "request_p50_ms": p50,
        "request_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.report = {
        "setup_s": (setup["setup_s"], "s"),
        "queries_per_s": (qps, "1/s"),
        "query_p50_ms": (p50, "ms"),
        "query_p99_ms": (p99, "ms"),
        "peak_rss_mb": (out.metrics["peak_rss_mb"], "MB"),
        "failed_frac": (failed_frac, "ratio"),
    }
    beyond = sum(1 for t in latencies if 1e3 * t > p99)
    out.notes = {
        "samples": len(latencies),
        "samples_beyond_p99": beyond,
        "mix": {k: sum(1 for q in qs if q.kind == k) for k in ("crlb", "optimize-k", "grid")},
        "first_pass_sha256": digest("".join(first[i] for i in sorted(first))),
    }
    if trace:
        out.metrics = layers.layer_metrics(
            out.tracer, cpu_s=cpu_s, workers=1, setup=setup,
            overhead_frac=overhead, failed_frac=failed_frac,
        )
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, setup: dict, **sizes) -> Outcome:
    if workload in MC_PRESETS:
        return run_mc(workload, seed, seconds, trace, setup, **sizes)
    return run_queries(seed, seconds, trace, setup, **sizes)
