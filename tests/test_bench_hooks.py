"""The benchmark's layer hooks still find every function they wrap.

perfbench/layers.py times auvgeom by patching named module attributes.
A boundary that was renamed, removed or no longer imported by its
calling module does not fail the benchmark: it only makes that layer's
metrics read null.  This test installs the hooks on a fresh tracer and
requires that none is missing.  perfbench is imported, never changed,
and no bytecode is written next to it.
"""

import os
import sys

from auvgeom import estimation, fisher, harness

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_layer_boundary_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == set()
    finally:
        tracer.close()
    # every patched attribute is back for the rest of the session
    assert harness.estimate_trials is estimation.estimate_trials
    assert harness._time_and_rows is fisher._time_and_rows
    assert estimation._time_and_rows is fisher._time_and_rows
