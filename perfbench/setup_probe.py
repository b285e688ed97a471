"""One set-up sample: a fresh interpreter that does what a CLI process does
before its first report, then prints the CLOCK_MONOTONIC time it finished
and the CPU seconds it took.

    python3 perfbench/setup_probe.py <workload> <n,fiber order,base order>...

``run.py`` starts it with ``PYTHONPATH`` naming the checkout's ``src`` and the
jet tables that a report of the workload built, and subtracts its own clock
reading taken just before the start.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    tables = [tuple(map(int, t.split(","))) for t in sys.argv[2:]]
    workloads.setup(sys.argv[1], tables)
    print(repr(time.monotonic()), repr(time.process_time()))
