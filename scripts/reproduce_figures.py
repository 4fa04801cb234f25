#!/usr/bin/env python3
"""Regenerate every stock figure as CSV + SVG.

Runs the five preset sweeps (objective-vs-k curves, RMSE vs anchor count
under both noise models, RMSE vs timing noise, RMSE vs movement radius)
and drops fig{name}.csv / fig{name}.svg into the output directory.

The Monte Carlo figures take a few minutes at the default 2000 trials;
pass --trials 200 for a quick pass.  The sweep cells run on as many
worker threads as the process may use CPUs, unless --workers says
otherwise; the output is the same for any worker count.
"""

import argparse
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from auvgeom.harness import (
    DEFAULT_TRIALS,
    FIGURE_SPECS,
    csv_text,
    emit_plot,
    sweep,
)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figures", nargs="+", choices=sorted(FIGURE_SPECS), default=sorted(FIGURE_SPECS),
        help="which figures to build (default: all)",
    )
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument(
        "--workers", type=int, default=usable_cpus(),
        help="sweep worker threads (default: the CPUs this process may use)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in args.figures:
        make_spec = FIGURE_SPECS[name]
        # the analytic k sweep has no Monte Carlo loop, so no trial count
        if name == "3":
            spec = make_spec(master_seed=args.seed)
        else:
            spec = make_spec(master_seed=args.seed, trials=args.trials)

        start = time.perf_counter()
        table = sweep(spec, workers=args.workers)
        elapsed = time.perf_counter() - start

        csv_path = out_dir / f"fig{name}.csv"
        csv_path.write_text(csv_text(table))
        emit_plot(table, spec, str(out_dir / f"fig{name}.svg"))
        print(f"fig{name}: {len(table.rows)} rows in {elapsed:.1f}s -> {csv_path}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
