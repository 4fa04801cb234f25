"""Seeded preset sweeps against recorded CSV text.

The files under tests/golden/ hold ``csv_text(sweep(...))`` at master
seed 0: fig3 as it is, and fig4a, fig5 and fig6 at 50 trials.  A change
to the ray kernel, the noise model, the estimator or the harness that
moves a single byte of a seeded result fails here, at one and at two
sweep workers.  The digests pin the recorded files themselves.
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
    "fig3": "c1f6fdab85a4f51e07afa997960a09fc8bb42ce219280140d9d6b9f0d26723a8",
    "fig4a": "b45eae9c78b715553afaa3db138858bdc9ceb93906b980ccadb608694ab98349",
    "fig5": "b15683bf7f6b4e7eaea785d48b6088c2286e0f0b1be32b412ea4baf71c905af5",
    "fig6": "783ec0bbb65513e8ec7062b5f4921b487c5a591273aed67f15444ef040a93320",
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
