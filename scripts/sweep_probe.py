#!/usr/bin/env python3
"""Alternating in-process sweeps of two checkouts' auvgeom packages.

Run from the root of a checkout:

    python3 scripts/sweep_probe.py --src ../parent/src --src src --figure 4a --seed 7 --rounds 20

Each --src directory's ``auvgeom`` package is loaded under a module
name of its own (``auvgeom_a``, ``auvgeom_b``); every import inside the
package is relative, so the two trees stay apart in one process.  One
round runs the figure's preset sweep serially on both sides, A first on
even rounds and B first on odd ones, so that a drift in the host's
speed over minutes falls on both alike.  Each sweep's ``csv_text`` must
equal the other side's in the same round, or the probe exits 1.
Otherwise it prints each side's median wall and process time per sweep,
the median over rounds of A's wall time over B's (above 1 when B is
faster), and the rounds B won.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import pathlib
import statistics
import sys
import time

FIGURES = ("4a", "4b", "5", "6")
SIDES = ("a", "b")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", action="append", required=True,
        help="directory holding an auvgeom package; give it twice, A then B",
    )
    parser.add_argument("--figure", choices=FIGURES, default="4a", help="preset sweep")
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument("--trials", type=int, default=2000, help="trials per cell")
    parser.add_argument("--rounds", type=int, default=20, help="alternating rounds")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def load_harness(src, name: str):
    """src/auvgeom imported as the package ``name``; returns its harness."""
    root = pathlib.Path(src).resolve() / "auvgeom"
    if not (root / "__init__.py").is_file():
        raise SystemExit(f"no auvgeom package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.harness")


def timed_sweep(harness, figure: str, seed: int, trials: int):
    """(csv text, wall s, process s) of one serial preset sweep."""
    spec = harness.FIGURE_SPECS[figure](master_seed=seed, trials=trials)
    wall, cpu = time.perf_counter(), time.process_time()
    table = harness.sweep(spec)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return harness.csv_text(table), wall, cpu


def main(argv=None):
    args = parse_args(argv)
    harnesses = {side: load_harness(src, f"auvgeom_{side}") for side, src in zip(SIDES, args.src)}
    wall = {side: [] for side in SIDES}
    cpu = {side: [] for side in SIDES}
    for i in range(args.rounds):
        texts = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            texts[side], w, c = timed_sweep(harnesses[side], args.figure, args.seed, args.trials)
            wall[side].append(w)
            cpu[side].append(c)
        if texts["a"] != texts["b"]:
            print(f"round {i}: the two csv_text outputs differ", file=sys.stderr)
            return 1
    print(f"fig{args.figure} seed={args.seed} trials={args.trials} rounds={args.rounds}: csv equal")
    for side, src in zip(SIDES, args.src):
        print(
            f"{side.upper()} wall_s={statistics.median(wall[side]):.4f} "
            f"cpu_s={statistics.median(cpu[side]):.4f} src={src}"
        )
    ratios = [a / b for a, b in zip(wall["a"], wall["b"])]
    wins = sum(b < a for a, b in zip(wall["a"], wall["b"]))
    print(f"A/B wall ratio median={statistics.median(ratios):.3f}; B won {wins}/{args.rounds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
