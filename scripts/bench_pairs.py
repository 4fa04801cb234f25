"""Alternating benchmark pairs of two commits, summarized into one JSON file.

Run from the root of a git checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads mc_fig5_par mc_fig4a --pairs 10 --first-seed 1400 \\
        --seconds 30 --claim mc_fig5_par.ops_per_s --out BENCH_14.json

Each commit is exported with ``git archive`` into its own temporary
directory, so neither side carries a ``__pycache__`` from earlier runs,
and the children run with PYTHONDONTWRITEBYTECODE=1 so none appears.
Pair i of a workload runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` at seed first_seed + i on both sides, the parent
first on even pairs and the change first on odd pairs.  The output
records the machine (as the first run's ``env`` line gives it), every
run's result line, and for each end-to-end metric of BENCHMARK.json the
median and inclusive quartiles per side, the pairs the change won, the
median's relative change, the parent's interquartile range and a
verdict:

- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound (a fraction of the parent's median);
- ``unresolved``: the parent's interquartile range over its median
  exceeds the bound, so the pairs cannot tell such a change from
  spread, unless every run of the change beats every run of the parent;
- ``within_bound`` otherwise.

``--claim WORKLOAD.METRIC`` names the gain the change claims.  The
output's ``claim_met`` holds when the change wins at least nine of every
ten pairs of that metric (ties count for neither side) and its median
beats the parent's by more than the parent's interquartile range.

``--traced SEED`` adds one ``--trace 1`` run per side and workload.

Exits 2 before any run when the claim names a workload that is not in
``--workloads`` or a metric that is not an end-to-end metric of the
change's BENCHMARK.json.  Exits 1 when any run fails or reports
correct: false; the file is written either way.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit measured as the baseline")
    p.add_argument("--change", required=True, help="commit measured against it")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--claim", default=None, help="WORKLOAD.METRIC the change claims to improve")
    p.add_argument("--traced", type=int, default=None, metavar="SEED")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0 or args.seconds < 0:
        p.error("--pairs must be >= 1, --first-seed and --seconds >= 0")
    return args


def export(rev: str, dest: str) -> str:
    """Extract the tree of rev into dest; return rev's full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return sha


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in root: its env and result lines, or the error."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    out = {"result": result}
    out.update({"env": json.loads(ln[4:]) for ln in lines if ln.startswith("env ")})
    return out


def ok(run: dict) -> bool:
    return "result" in run and run["result"].get("correct") is True


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """worse, unresolved or within_bound; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p = _quartiles(parent)
    scale = bound * abs(p["median"])
    if sign * (statistics.median(change) - p["median"]) < -scale:
        return "worse"
    if p["q3"] - p["q1"] > scale and min(sign * c for c in change) <= max(sign * x for x in parent):
        return "unresolved"
    return "within_bound"


def check_claim(claim: str, workloads: list[str], specs: list[dict]) -> tuple[str, str]:
    """The (workload, metric) that --claim names; ValueError when either is unknown."""
    workload, _, metric = claim.partition(".")
    if workload not in workloads:
        raise ValueError(f"--claim {claim}: workload {workload!r} is not in --workloads")
    if metric not in {spec["name"] for spec in specs}:
        raise ValueError(f"--claim {claim}: {metric!r} is no end-to-end metric of BENCHMARK.json")
    return workload, metric


def claim_met(metric: dict) -> bool:
    """Whether one summarized metric bears out a claimed gain.

    The change must win at least nine tenths of the pairs, ties counting
    for neither side, and its median must beat the parent's by more than
    the parent's interquartile range.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = len(metric["parent"]["runs_by_seed"])
    gain = sign * (metric["change"]["median"] - metric["parent"]["median"])
    return 10 * metric["change_wins"] >= 9 * pairs and gain > metric["parent_iqr"]


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """Per-metric statistics of one workload's pairs.

    runs holds {"seed", "side", "result"} entries, one per side and seed;
    specs is BENCHMARK.json's end_to_end list (name, unit, better, bound).
    """
    seeds = sorted({r["seed"] for r in runs})
    by = {(r["seed"], r["side"]): r for r in runs}
    summary = {
        "seeds": seeds,
        "pairs": len(seeds),
        "all_correct": all(ok(r) for r in runs),
        "failed": {s: sum(by[k, s]["result"]["failed"] for k in seeds if "result" in by[k, s])
                   for s in SIDES},
        "attempted": {s: sum(by[k, s]["result"]["attempted"] for k in seeds
                             if "result" in by[k, s]) for s in SIDES},
        "metrics": {},
    }
    paired = [k for k in seeds if ok(by[k, "parent"]) and ok(by[k, "change"])]
    if not paired:
        return summary
    for spec in specs:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        vals = {s: [by[k, s]["result"]["metrics"][name]["value"] for k in paired] for s in SIDES}
        stats = {s: {**_quartiles(vals[s]), "runs_by_seed": vals[s]} for s in SIDES}
        parent_median = stats["parent"]["median"]
        summary["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **stats,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"])),
            "median_change_frac": (stats["change"]["median"] - parent_median) / parent_median
            if parent_median else None,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "verdict": verdict(vals["parent"], vals["change"], spec["better"], spec["bound"]),
        }
    return summary


def main(argv=None) -> int:
    args = _parse(argv)
    report = {"machine": None, "commits": {}, "claim": args.claim, "claim_met": None,
              "workloads": {},
              "command": f"python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {args.seconds:g} --trace 0, one process per run, "
                         "from a git archive export of each commit",
              "method": "alternating pairs, one seed per pair, the parent first on even pairs "
                        "and the change first on odd pairs; median and inclusive quartiles "
                        "over the pairs whose runs are both correct"}
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            roots[side] = os.path.join(tmp, side)
            report["commits"][side] = export(rev, roots[side])
        with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as f:
            specs = json.load(f)["end_to_end"]
        try:
            claimed = check_claim(args.claim, args.workloads, specs) if args.claim else None
        except ValueError as e:
            print(f"bench_pairs: {e}", file=sys.stderr)
            return 2
        for workload in args.workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run = run_once(roots[side], workload, seed, args.seconds, 0)
                    env = run.pop("env", {})
                    env.pop("seed", None)
                    report["machine"] = report["machine"] or env or None
                    runs.append({"seed": seed, "side": side, **run})
                    all_ok &= ok(run)
                    value = run.get("result", {}).get("metrics", {}).get("ops_per_s", {})
                    print(f"{workload} seed {seed} {side}: correct={ok(run)} "
                          f"ops_per_s={value.get('value')}", flush=True)
            report["workloads"][workload] = {**summarize(runs, specs), "runs": runs}
            metrics = report["workloads"][workload]["metrics"]
            for name, m in metrics.items():
                print(f"{workload} {name}: {m['verdict']}, median "
                      f"{m['parent']['median']:.6g} -> {m['change']['median']:.6g}", flush=True)
            if claimed and claimed[0] == workload:
                report["claim_met"] = claimed[1] in metrics and claim_met(metrics[claimed[1]])
                print(f"claim {args.claim}: met={report['claim_met']}", flush=True)
            if args.traced is not None:
                traced = {}
                for side in SIDES:
                    run = run_once(roots[side], workload, args.traced, args.seconds, 1)
                    run.pop("env", None)
                    traced[side] = run
                    all_ok &= ok(run)
                report["workloads"][workload]["traced"] = {"seed": args.traced, **traced}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
