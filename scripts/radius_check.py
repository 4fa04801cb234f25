#!/usr/bin/env python3
"""Does the Monte Carlo harness confirm the recommended radius?  One table.

Run from the root of a checkout:

    python3 scripts/radius_check.py --seeds 0 1 2 3 --trials 2000

Two scenes, each with the AUV at (50, 50, 50) m and the presets' sound
profile (b = 1480 m/s, a = 0.1 1/s):

- ``fig4a``: the default distance-dependent noise, n = 4 and 8 anchors,
  k in {0.5, 0.7, k*, 1.0, 1.2, 1.4};
- ``fig6``: constant 1 ms noise, n = 8, k in {k*, 1.7, 2.0, 2.358}, where
  2.358 is the optimum of the depth-augmented bound at n = 8.

k* is ``optimize_k``'s radius scale for the scene and n; --ks replaces
each scene's list.  For each n and k the anchors sit on the uniform
surface circle about the AUV position, and the truth is put in three
kinds of place:

- ``centre``: at the circle's centre (``Usc(scale_k=k)``);
- ``20 m`` and ``40 m``: moved that far in a random 3-D direction per
  trial, as ``fig6``'s rm-usc draws it (``RmUsc``), the anchors left
  where the centre put them;
- the centre moved +-5 m along x, y and z, with the centre's layout held
  fixed (``FixedAnchors``): central differences of the mean error give
  the diagonal of the bias gradient B = d bias / d truth.

Every cell of a scene, over all seeds, goes through one
``harness._run_mc`` call, which returns each cell's record.  Cells of
one seed draw from the same per-cell streams, so the deviates are paired
across k and across truths.  Each row pools the seeds and prints:

- the RMSE of the converged estimates, and the RMSE per seed;
- the bias: at the centre the norm of the mean error; off the centre the
  mean error along each trial's displacement (negative: toward the
  centre);
- diag(B), at the centre only;
- the square roots of the depth-augmented bound the harness reports (the
  record's trace) and of the full bound, whose information adds what the
  distance-dependent variance carries, 1/2 sum_n g_n g_n^T with
  g = (beta / l + l_f ln 10 / 1e4) grad l, l the slant range (Kay 1993,
  eq. 3.31); under constant noise the two are the same;
- at the centre only, the square roots of the biased bound
  tr((I + B) F^-1 (I + B)^T) + |b|^2 under each of the two informations,
  with B's off-diagonal entries taken as zero;
- the count of trials that did not converge, over all seeds.

A bound averages F^-1 over the cell's true geometries.  The output is a
Markdown table.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import pathlib
import sys

import numpy as np

AUV = (50.0, 50.0, 50.0)
OFFSETS = (20.0, 40.0)  # m, the drifted truths
STEP = 5.0  # m, half the spread of B's paired truths
# per scene: the noise model (built once auvgeom is importable), the
# anchor counts and the radius scales, None standing for k*
SCENES = {
    "fig4a": ("distance", (4, 8), (0.5, 0.7, None, 1.0, 1.2, 1.4)),
    "fig6": ("1 ms", (8,), (None, 1.7, 2.0, 2.358)),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the auvgeom package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3], help="master seeds")
    parser.add_argument("--trials", type=int, default=2000, help="trials per cell and seed")
    parser.add_argument("--scenes", nargs="+", choices=sorted(SCENES), default=list(SCENES))
    parser.add_argument("--ks", type=float, nargs="+", help="radius scales for every scene")
    return parser.parse_args(argv)


def scene_noise(scene):
    from auvgeom.fisher import NoiseModel

    if SCENES[scene][0] == "distance":
        return NoiseModel.distance_dependent()
    return NoiseModel.constant_variance(1e-3)


def cell_scenarios(noise, n, k, seed, trials):
    """One seed's cells at (n, k): the centre, the drifted truths, then
    the truths moved -5 and +5 m along x, y and z."""
    from auvgeom import harness
    from auvgeom.geometry import Position

    auv = Position(*AUV)
    centre = harness.Scenario(
        auv, harness.Usc(scale_k=k, n=n), harness.DEFAULT_SSP, noise, trials, seed
    )
    cells = [centre] + [dataclasses.replace(centre, movement=harness.RmUsc(d)) for d in OFFSETS]
    fixed = harness.FixedAnchors(tuple(harness.usc_positions(auv, n, k)))
    for axis in range(3):
        for sign in (-1.0, 1.0):
            moved = auv.as_array()
            moved[axis] += sign * STEP
            cells.append(dataclasses.replace(centre, auv_truth=Position(*moved), deployment=fixed))
    return cells


def inverse_informations(truth, layout, noise):
    """F^-1 averaged over the (G, 3) true positions, depth-augmented and full."""
    from auvgeom import fisher, harness
    from auvgeom.estimation import DEPTH_NOISE_VAR

    _, rows, slant = fisher._time_and_rows(truth, layout, harness.DEFAULT_SSP)
    paper = fisher._information(rows, fisher._variance_at(noise, slant), DEPTH_NOISE_VAR)
    full = paper
    if noise.kind == fisher.KIND_DISTANCE:
        dlog = noise.beta / slant + noise.l_f_db_per_km * math.log(10.0) / 1e4
        g = dlog[..., None] * (truth[:, None] - layout) / slant[..., None]
        full = paper + 0.5 * np.einsum("gni,gnj->gij", g, g)
    return [np.linalg.inv(f).mean(axis=0) for f in (paper, full)]


def errors(cell):
    """A record's converged errors q_hat - truth, (converged, 3), and its truths there."""
    truth = np.broadcast_to(cell.truth, cell.q_hat.shape)[cell.converged]
    return cell.q_hat[cell.converged] - truth, truth


def biased(inverse, grad, bias):
    # tr((I + B) F^-1 (I + B)^T) + |b|^2, B diagonal
    m = np.eye(3) + np.diag(grad)
    return float(np.trace(m @ inverse @ m.T) + bias @ bias)


def scene_rows(scene, seeds, trials, ks=None):
    """One dict per (n, k, truth) of the scene, in table order."""
    from auvgeom import deployment, harness
    from auvgeom.errors import AuvgeomError
    from auvgeom.geometry import Position

    noise = scene_noise(scene)
    _, counts, default_ks = SCENES[scene]
    grid = []
    for n in counts:
        k_star = deployment.optimize_k(AUV[2], n, harness.DEFAULT_SSP, noise).k_star
        grid += [(n, k_star if k is None else k) for k in (ks or default_ks)]
    cells = [
        s for n, k in grid for seed in seeds for s in cell_scenarios(noise, n, k, seed, trials)
    ]
    records = harness._run_mc(cells)
    for r in records:
        if isinstance(r, AuvgeomError):
            raise r
    per = len(records) // len(grid) // len(seeds)  # cells per (n, k, seed)
    out = []
    for i, (n, k) in enumerate(grid):
        # by_truth[j]: the j-th truth's record at each seed
        block = records[i * len(seeds) * per:(i + 1) * len(seeds) * per]
        by_truth = [block[j::per] for j in range(per)]
        layout = np.array([p.as_array() for p in harness.usc_positions(Position(*AUV), n, k)])
        # the pooled mean error at each moved truth: x - 5, x + 5, y - 5, ...
        moved = [np.concatenate([errors(c)[0] for c in recs]).mean(axis=0) for recs in by_truth[3:]]
        grad = np.array([moved[2 * a + 1][a] - moved[2 * a][a] for a in range(3)]) / (2 * STEP)
        for label, recs in zip(("centre", *(f"{d:g} m" for d in OFFSETS)), by_truth):
            errs, truths = zip(*(errors(c) for c in recs))
            err2 = [np.sum(e * e, axis=1) for e in errs]
            err = np.concatenate(errs)
            inv_paper, inv_full = (
                sum(x) / len(recs)
                for x in zip(*(inverse_informations(c.truth, layout, noise) for c in recs))
            )
            row = {
                "scene": scene, "n": n, "truth": label, "k": k,
                "rmse": float(np.sqrt(np.concatenate(err2).mean())),
                "rmse_seeds": [float(np.sqrt(e.mean())) for e in err2],
                "paper": math.sqrt(np.mean([c.trace for c in recs])),
                "full": math.sqrt(np.trace(inv_full)),
                "failed": sum(int((~c.converged).sum()) for c in recs),
            }
            if label == "centre":
                bias = err.mean(axis=0)
                row.update(
                    bias=float(np.linalg.norm(bias)), grad=grad,
                    biased=[math.sqrt(biased(x, grad, bias)) for x in (inv_paper, inv_full)],
                )
            else:
                away = np.concatenate(truths) - np.array(AUV)
                along = np.sum(err * away, axis=1) / np.linalg.norm(away, axis=1)
                row.update(bias=float(along.mean()), grad=None, biased=None)
            out.append(row)
    return out


def table_lines(src, scenes, seeds, trials, ks=None):
    """The Markdown table, header first."""
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    lines = [
        "| scene | n | truth | k | RMSE (m) | RMSE per seed (m) | bias (m) | diag B "
        "| sqrt paper (m) | sqrt full (m) | sqrt biased paper (m) | sqrt biased full (m) "
        "| not converged |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for scene in scenes:
        for r in scene_rows(scene, seeds, trials, ks):
            per_seed = " / ".join(f"{x:.4g}" for x in r["rmse_seeds"])
            grad = "-" if r["grad"] is None else ", ".join(f"{x:.3f}" for x in r["grad"])
            both = ["-", "-"] if r["biased"] is None else [f"{x:.4g}" for x in r["biased"]]
            lines.append(
                f"| {scene} | {r['n']} | {r['truth']} | {r['k']:.4g} | {r['rmse']:.4g} "
                f"| {per_seed} | {r['bias']:.3g} | {grad} | {r['paper']:.4g} | {r['full']:.4g} "
                f"| {both[0]} | {both[1]} | {r['failed']} |"
            )
    return lines


def main(argv=None):
    args = parse_args(argv)
    for line in table_lines(args.src, args.scenes, args.seeds, args.trials, args.ks):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
