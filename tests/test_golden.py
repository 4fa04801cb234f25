"""Seeded preset sweeps against recorded CSV text.

The files under tests/golden/ hold ``csv_text(sweep(...))`` at master
seed 0: fig3 as it is, and fig4a, fig5 and fig6 at 50 trials.  A change
to the ray kernel, the noise model, the estimator or the harness that
moves a single byte of a seeded result fails here, at one and at two
sweep workers.  The digests pin the recorded files themselves.  The
files are written under seeding contract 2 (their "# contract 2" line);
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
    "fig3": "47a837cc574f20de66393dd9cb478ce01a709c62026342ebd2b8c5c6e2d25b4a",
    "fig4a": "e735234a9e3c4acdf741310511b517378427d7447d4feceda9b7db3fa60cb061",
    "fig5": "07d93afb56f79065acbd04ee4a4784537f9b5acaeea2ce81718c56deca7b6330",
    "fig6": "4e37c583fe3cb9250e47a12e3399506b4af9dca9a459fbebdd960b9e91d6a76f",
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
