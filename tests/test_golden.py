"""Seeded preset sweeps against recorded CSV text.

The files under tests/golden/ hold ``csv_text(sweep(...))`` at master
seed 0: fig3 as it is, and fig4a, fig5 and fig6 at 50 trials.  A change
to the ray kernel, the noise model, the estimator or the harness that
moves a single byte of a seeded result fails here, at one and at two
sweep workers.  The digests pin the recorded files themselves.  The
files are written under contract 4 (their "# contract 4" line): the
rational ray kernel, and one bound per shared geometry.  fig3's rows are
closed-form and have not moved since contract 3; only its contract line
did.  A change that moves the bytes on purpose bumps that line, rewrites
the files and updates the digests.
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
    "fig3": "12bc34d10df23a43dfaa3ef4486ab408954bcae3416f51d80931927cce8df75f",
    "fig4a": "6a105049f4ecfa10848ff0344c4184eacca554a98eeae9f1d4b9f28063af086e",
    "fig5": "d7e3cc42065d4bd7e8aeee926255ada434ac6e06f929983fb092945f5ebe6e22",
    "fig6": "15b34653ac4a1f1ad87c625d3da0f8d0cbe515c8eb81531e48bae4c391ef0161",
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
