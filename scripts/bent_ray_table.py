#!/usr/bin/env python3
"""What the bent-ray model buys the estimator: one table.

Run from the root of a checkout:

    python3 scripts/bent_ray_table.py --seed 0 --trials 4000

For each depth z and noise model (constant timing noise at 0.1 and 1 ms,
and the default distance-dependent model), eight anchors sit on the
uniform surface circle at the radius scale k* that ``optimize_k`` finds
for the true profile (b = 1480 m/s, a = 0.1 1/s), with the AUV at
(50, 50, z).  One block of seeded deviates gives the measurements
(``harness._measurements``), and ``estimate_trials`` estimates that same
block under three profiles:

- ``bent``: the true profile;
- ``straight-b``: a straight ray at the surface speed b (a = 1e-7);
- ``straight-ch``: a straight ray at the harmonic-mean speed over the
  AUV's depth, c_h = a z / ln(1 + a z / b).

Each row prints the square root of the true geometry's depth-augmented
bound (``harness._augmented_trace``), the RMSE and |bias| of the
converged estimates in metres, and the count of trials that did not
converge.  The output is a Markdown table.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys

import numpy as np

SURFACE_SPEED = 1480.0
STEEPNESS = 0.1
STRAIGHT = 1e-7  # the steepness of a straight-ray profile
ANCHORS = 8
NOISES = ("0.1 ms", "1 ms", "distance")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the auvgeom package")
    parser.add_argument("--seed", type=int, default=0, help="seed of the deviates")
    parser.add_argument("--trials", type=int, default=4000, help="trials per scene")
    parser.add_argument(
        "--depths", type=float, nargs="+", default=[50.0, 200.0, 1000.0, 3000.0],
        help="AUV depths in metres",
    )
    return parser.parse_args(argv)


def scene_rows(z, noise_name, seed, trials):
    """The three profiles' rows of one scene: (profile, sqrt bound, rmse, |bias|, failed)."""
    from auvgeom import deployment, fisher, harness
    from auvgeom.geometry import Position, SoundSpeedProfile

    noise = {
        "0.1 ms": fisher.NoiseModel.constant_variance(1e-4),
        "1 ms": fisher.NoiseModel.constant_variance(1e-3),
        "distance": fisher.NoiseModel.distance_dependent(),
    }[noise_name]
    true = SoundSpeedProfile(SURFACE_SPEED, STEEPNESS)
    harmonic = STEEPNESS * z / math.log1p(STEEPNESS * z / SURFACE_SPEED)
    profiles = {
        "bent": true,
        "straight-b": SoundSpeedProfile(SURFACE_SPEED, STRAIGHT),
        "straight-ch": SoundSpeedProfile(harmonic, STRAIGHT),
    }
    auv = Position(50.0, 50.0, z)
    k = deployment.optimize_k(z, ANCHORS, true, noise).k_star
    layout = np.array([p.as_array() for p in deployment.usc_positions(auv, ANCHORS, k)])
    truth = auv.as_array()[None]
    dev = np.random.default_rng([seed, int(z), NOISES.index(noise_name)]).standard_normal(
        (trials, ANCHORS + 1)
    )
    rtt, depth, rows, sigma2 = harness._measurements(truth, layout, true, noise, dev)
    bound = math.sqrt(harness._augmented_trace(rows, sigma2))
    out = []
    for name, ssp in profiles.items():
        q, _, converged, _ = harness.estimate_trials(rtt, depth, layout, ssp, noise)
        err = q[converged] - truth
        rmse = math.sqrt(np.mean(np.sum(err * err, axis=1))) if len(err) else math.nan
        bias = float(np.linalg.norm(err.mean(axis=0))) if len(err) else math.nan
        out.append((name, bound, rmse, bias, int(np.sum(~converged))))
    return out


def table_lines(src, seed, trials, depths):
    """The Markdown table, header first."""
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    lines = [
        "| z (m) | noise | profile | sqrt bound (m) | RMSE (m) | abs bias (m) | not converged |",
        "|---|---|---|---|---|---|---|",
    ]
    for z in depths:
        for noise_name in NOISES:
            for name, bound, rmse, bias, failed in scene_rows(z, noise_name, seed, trials):
                lines.append(
                    f"| {z:g} | {noise_name} | {name} | {bound:.4g} | {rmse:.4g} "
                    f"| {bias:.3g} | {failed} |"
                )
    return lines


def main(argv=None):
    args = parse_args(argv)
    for line in table_lines(args.src, args.seed, args.trials, args.depths):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
