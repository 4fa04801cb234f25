#!/usr/bin/env python3
"""Digests of the seeded Monte Carlo figures and of every estimator output.

Run from the root of a checkout, once per checkout to compare:

    python3 scripts/estimator_digest.py --src ../parent/src --seeds 0 1 2 3 --trials 2000

For each figure (fig4a, fig4b, fig5, fig6) and seed it runs the preset
sweep serially, in this process, with the ``auvgeom`` package imported
from --src, and prints one line:

    fig4a seed=0 csv=... q=... iterations=... converged=... singular=... failed=N below_cap=M

csv is the sha256 of the sweep's ``csv_text``.  q, iterations,
converged and singular are each the sha256 of one output array of
``estimate_trials`` over all of the sweep's calls, in call order, with
every array's dtype and shape; the calls are captured by wrapping
``harness.estimate_trials``.  Digests are cut to 16 hex digits.  Two
checkouts print the same lines exactly when the figures' CSV bytes and
every estimator output bit agree.  failed counts the trials that did
not converge, and below_cap those of them that are not singular and
stopped below the default ``EstimatorConfig().max_iterations``: trials
whose line search stalled, or that left by an exit that names no cause.
"""

import argparse
import hashlib
import pathlib
import sys

import numpy as np

FIGURES = ("4a", "4b", "5", "6")
OUTPUTS = ("q", "iterations", "converged", "singular")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the auvgeom package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="master seeds")
    parser.add_argument("--trials", type=int, default=2000, help="trials per cell")
    return parser.parse_args(argv)


def _import_harness(src: pathlib.Path):
    """auvgeom.harness, refusing a package imported from anywhere but src."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from auvgeom import harness

    found = pathlib.Path(harness.__file__).resolve().parent.parent
    if found != src:
        raise SystemExit(f"auvgeom was already imported from {found}, not {src}")
    return harness


def digest_lines(src, seeds, trials):
    """One line per figure and seed, in that order."""
    harness = _import_harness(pathlib.Path(src).resolve())
    cap = harness.EstimatorConfig().max_iterations
    original = harness.estimate_trials
    lines = []
    for name in FIGURES:
        for seed in seeds:
            hashes = {key: hashlib.sha256() for key in OUTPUTS}
            counts = {"failed": 0, "below_cap": 0}

            def record(*args, **kwargs):
                out = original(*args, **kwargs)
                for key, a in zip(OUTPUTS, out):
                    a = np.ascontiguousarray(a)
                    hashes[key].update(f"{a.dtype}{a.shape}".encode())
                    hashes[key].update(a.tobytes())
                _, iterations, converged, singular = out
                counts["failed"] += int(np.sum(~converged))
                counts["below_cap"] += int(np.sum(~converged & ~singular & (iterations < cap)))
                return out

            harness.estimate_trials = record
            try:
                table = harness.sweep(harness.FIGURE_SPECS[name](master_seed=seed, trials=trials))
            finally:
                harness.estimate_trials = original
            text = harness.csv_text(table)
            fields = [f"csv={hashlib.sha256(text.encode('utf-8')).hexdigest()[:16]}"]
            fields += [f"{key}={hashes[key].hexdigest()[:16]}" for key in OUTPUTS]
            fields += [f"{key}={n}" for key, n in counts.items()]
            lines.append(f"fig{name} seed={seed} " + " ".join(fields))
    return lines


def main(argv=None):
    args = parse_args(argv)
    for line in digest_lines(args.src, args.seeds, args.trials):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
