"""Set up as a benchmark run does, then print the monotonic clock.

    python3 perfbench/setup_probe.py ROOT

run.py starts this script several times and takes the printed time minus
the time it started the process as one `setup_s` sample: interpreter start,
imports, corpus parse and validate, and the ruleset build.
"""

import sys
import time

from workloads import setup

if __name__ == "__main__":
    setup(sys.argv[1])
    print(time.perf_counter_ns())
