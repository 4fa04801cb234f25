"""Seeded preset sweeps against recorded CSV text.

The files under tests/golden/ hold ``csv_text(sweep(...))`` at master
seed 0: fig3 as it is, and fig4a, fig5 and fig6 at 50 trials.  A change
to the ray kernel, the noise model, the estimator or the harness that
moves a single byte of a seeded result fails here, at one and at two
sweep workers.  The digests pin the recorded files themselves.  The
files are written under contract 5 (their "# contract 5" line).
Contracts 2 to 5 draw the same streams; at 5 only cells whose step hit
the span bound move, here fig4a's random rows, and the other files
changed only in their contract line.  fig3's rows are closed-form and
have not moved since contract 3.  A change that moves the bytes on
purpose bumps that line, rewrites the files and updates the digests.
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
    "fig3": "012a8a053ec4c5dc2905463cae1a701803a7f767a71248cb42bb1c05317eea3c",
    "fig4a": "c89d457cf09229165e73a6bcaa01a5f3ab7b82bc5fddf034977fbc4467190ca0",
    "fig5": "2b9cc8294eab714d88148e3d372661556e37f7c4bbeef1946f873dd02daabd52",
    "fig6": "db3d08cdd1f6396f21c70fbf96eae39c095e5598bbbf4b943f89960f27eea3f8",
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
