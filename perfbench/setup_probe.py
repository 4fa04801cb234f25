"""Time a fresh interpreter's set-up: import auvgeom, then build the inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

with src/ on PYTHONPATH.  Prints {"import_s": ..., "inputs_s": ...}.
"""

import json
import sys
import time

t0 = time.perf_counter()
import auvgeom  # noqa: E402,F401  (the import is what is timed)

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
