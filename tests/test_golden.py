"""Seeded preset sweeps against recorded CSV text.

The files under tests/golden/ hold ``csv_text(sweep(...))`` at master
seed 0: fig3 as it is, and fig4a, fig5 and fig6 at 50 trials.  A change
to the ray kernel, the noise model, the estimator or the harness that
moves a single byte of a seeded result fails here, at one and at two
sweep workers.  The digests pin the recorded files themselves.  The
files are written under contract 3 (their "# contract 3" line);
a change that moves the bytes on purpose bumps that line, rewrites the
files and updates the digests.
"""

import difflib
import hashlib
import pathlib

import pytest

from auvgeom.harness import csv_text, fig3_spec, fig4a_spec, fig5_spec, fig6_spec, sweep

GOLDEN = pathlib.Path(__file__).parent / "golden"

SPECS = {
    "fig3": lambda: fig3_spec(master_seed=0),
    "fig4a": lambda: fig4a_spec(master_seed=0, trials=50),
    "fig5": lambda: fig5_spec(master_seed=0, trials=50),
    "fig6": lambda: fig6_spec(master_seed=0, trials=50),
}

SHA256 = {
    "fig3": "8d1e0ac04235968401e17ee8729956f4ecfca57de1ed9111801d5bfd3487f1b3",
    "fig4a": "4219217847e8d4e486a2a4159097dadcc9a1fdd9f404e69c9005d526cdf92088",
    "fig5": "86c7a068faec15de63e6e1b1f3f97bdbd46e2d0fec1a91c0aab62d202fdb5aed",
    "fig6": "2ec0a8f8bb3b92c530f1bd2d83cd32199e4d069fcc31e0ebf4ece458f1fc518e",
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_file_digest(name):
    data = (GOLDEN / f"{name}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SHA256[name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_matches_golden_csv(name, workers):
    want = (GOLDEN / f"{name}.csv").read_bytes().decode("utf-8")
    got = csv_text(sweep(SPECS[name](), workers=workers))
    if got != want:
        diff = "".join(
            difflib.unified_diff(
                want.splitlines(keepends=True),
                got.splitlines(keepends=True),
                f"golden/{name}.csv",
                f"sweep(workers={workers})",
            )
        )
        pytest.fail(f"{name} differs from its golden CSV:\n{diff}")
