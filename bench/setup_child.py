"""Time one fresh-interpreter set-up of a workload: import ntn_harq, load
the default BLER table and generate the workload's inputs.

    python3 bench/setup_child.py <workload> <seed>

Prints the elapsed seconds.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ntn_harq.bler import default_table  # noqa: E402  (imports the package)

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make_ops(ROOT, int(sys.argv[2]), default_table())
print(time.perf_counter() - START)
