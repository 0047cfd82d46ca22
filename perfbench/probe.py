"""Host-speed probe: times a fixed pure-Python loop every 0.2 s until killed.

    python3 perfbench/probe.py CPU

Pins itself to CPU and prints the CPU time of each loop, in seconds, one
per line.  run.py keeps one running on every CPU beside the workload and
rescales the workload's times by the loops' mean duration, so that a shared
host slowing every process by the same factor moves the raw times but not
the rescaled ones.
"""

import os
import sys
import time

LOOPS = 100_000
PERIOD_S = 0.2


def sample() -> float:
    began = time.process_time()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.process_time() - began


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    while True:
        print(f"{sample():.9f}", flush=True)
        time.sleep(PERIOD_S)
