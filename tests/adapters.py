"""Position-level access to the batched ray kernel, for tests that work pair by pair."""

from auvgeom.fisher import _time_and_rows


def kernel_pair(q, p, ssp):
    """The kernel's travel time and (3,) Jacobian row between the AUV at q and anchor p."""
    t, rows, _ = _time_and_rows(q.as_array(), p.as_array()[None], ssp)
    return float(t[0]), rows[0]
