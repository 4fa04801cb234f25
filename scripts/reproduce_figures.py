#!/usr/bin/env python3
"""Regenerate every stock figure as CSV + SVG.

Runs the five preset sweeps (objective-vs-k curves, RMSE vs anchor count
under both noise models, RMSE vs timing noise, RMSE vs movement radius)
through `auvgeom --figure NAME --plot simulate`, so fig{name}.csv and
fig{name}.svg in the output directory are the files the command line
writes, header lines included.

The Monte Carlo figures take a few minutes at the default 2000 trials;
pass --trials 200 for a quick pass.  The sweep cells run serially
unless --workers asks for more threads.  fig4a, fig4b and fig6 are one
task each, so extra threads leave them serial; fig5 is fifteen tasks,
which the threads share.  The output is the same for any worker count.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from auvgeom import cli
from auvgeom.harness import DEFAULT_TRIALS, FIGURE_SPECS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figures", nargs="+", choices=sorted(FIGURE_SPECS), default=sorted(FIGURE_SPECS),
        help="which figures to build (default: all)",
    )
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--workers", type=int, default=1, help="sweep worker threads (default: 1)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    for name in args.figures:
        start = time.perf_counter()
        code = cli.main([
            "--out", args.out, "--seed", str(args.seed), "--workers", str(args.workers),
            "--set", f"trials={args.trials}", "--plot", "--figure", name, "simulate",
        ])
        if code:
            return code
        print(f"fig{name}: {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
