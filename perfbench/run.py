"""auvgeom benchmark: one workload per run, outputs checked, metrics printed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_fig4a --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Workloads: mc_fig4a, mc_fig5_par, design_queries (see NOTES.md); ``all``
runs each in turn in its own process and prints one table.  The package
is imported from ./src, never from an installed copy.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, measured with no wrappers
installed; with --trace 1 they are the per-layer metrics of a separate,
traced run, whose spans are written to perfbench/out/.  The lines before
it record the environment, the workload's report under per-workload
names (trials_per_s, queries_per_s, query_p50_ms, ...), and every failed
check.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the sweep executor's workers
# are then the only compute threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("mc_fig4a", "mc_fig5_par", "design_queries")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def measure_setup(workload: str, seed: int, src: str, reps: int = SETUP_REPS) -> dict:
    """Median import and input-building times over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("AUVGEOM_OUT", None)
    samples = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    total = [s["import_s"] + s["inputs_s"] for s in samples]
    return {
        "setup_s": statistics.median(total),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "inputs_s": statistics.median(s["inputs_s"] for s in samples),
    }


def _code_hash(src: str) -> str:
    """Digest of the package and of the benchmark that feeds it inputs."""
    import hashlib

    h = hashlib.sha256()
    paths = glob.glob(os.path.join(src, "auvgeom", "*.py")) + glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(paths):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return h.hexdigest()


def check_digest(key: str, value: str) -> str | None:
    """Compare with the digest an earlier run of the same code and inputs saved."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    if seen.setdefault(key, value) != value:
        return f"output digest {value[:12]} differs from an earlier run's {seen[key][:12]}"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(seen, f, sort_keys=True, indent=0)
    os.replace(tmp, path)
    return None


# ROADMAP baseline (2 cores, Python 3.11.7, numpy 2.4.6), printed beside
# the traced run's numbers; NOTES.md reconciles the two.
BASELINE = {
    "mc_fig4a": {"fig4a serial sweep [s]": 11.6, "usc cell n=8 [s]": 0.62,
                 "cube cell n=8 [s]": 0.81, "random cell n=8 [s]": 1.09},
    "design_queries": {"fim [us]": 200.0, "optimize_k [us]": 800.0, "grid_search_k [ms]": 16.0},
}


def baseline_lines(workload: str, outcome) -> list[str]:
    if workload not in BASELINE:
        return []
    m = outcome.metrics
    if workload == "mc_fig4a":
        now = {"fig4a serial sweep [s]": outcome.notes["untraced_sweep_s"]}
        cell_spans = [s for s in outcome.tracer.spans if s.name == "harness.cell"]
        # cells run in order: scheme-major, anchor count 4..8 within a scheme
        for scheme, span in zip(("usc", "cube", "random"), cell_spans[4::5]):
            now[f"{scheme} cell n=8 [s]"] = span.duration
    else:
        now = {"fim [us]": m["fim.us_p50"], "optimize_k [us]": m["optimize_k.us_p50"],
               "grid_search_k [ms]": m["grid_search_k.ms_p50"]}
    return [f"baseline {name}: roadmap {ref} now {now.get(name)!r}"
            for name, ref in BASELINE[workload].items()]


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; one table of the report metrics."""
    results = {}
    for w in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: {w} exited {done.returncode}: {done.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return 1
        report = next(json.loads(ln[7:]) for ln in lines if ln.startswith("report "))
        results[w] = {"result": json.loads(lines[-1]), "report": report}
        for name, m in report.items():
            print(f"{w:15s} {name:15s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["result"]["correct"] for r in results.values()),
        "attempted": sum(r["result"]["attempted"] for r in results.values()),
        "failed": sum(r["result"]["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["report"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "auvgeom", "__init__.py")):
        print("error: src/auvgeom not found; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, src)
    os.environ.pop("AUVGEOM_OUT", None)
    import auvgeom

    if not os.path.abspath(auvgeom.__file__).startswith(os.path.join(src, "")):
        print(f"error: auvgeom was imported from {auvgeom.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    setup = measure_setup(args.workload, args.seed, src)
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), setup)

    os.makedirs(OUT_DIR, exist_ok=True)
    key = f"{args.workload}:{args.seed}:trace{args.trace}:{_code_hash(src)}"
    sha = outcome.notes.get("csv_sha256") or outcome.notes.get("first_pass_sha256")
    problem = check_digest(key, sha)
    if problem:
        outcome.problems.append(problem)
        outcome.failed = outcome.attempted
    if outcome.tracer is not None:
        from tracer import nesting_problems

        outcome.problems += nesting_problems(outcome.tracer.spans)
        path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.jsonl")
        outcome.tracer.dump(path, {"workload": args.workload, "env": env, "setup": setup})
        print(f"spans {len(outcome.tracer.spans)} written to {os.path.relpath(path, root)}")
        for line in baseline_lines(args.workload, outcome):
            print(line)
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    print("report " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in outcome.report.items()}))
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")

    if args.trace:
        import layers

        units = layers.PER_LAYER
    else:
        units = workloads.END_TO_END
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": outcome.metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
