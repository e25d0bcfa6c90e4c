"""Set-up time of one workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from the start of this script until uamsim is imported
and the workload's inputs are built, the point where a run's first timed
call begins. run.py starts it several times and reports the median.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports uamsim and numpy)

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - T0))
