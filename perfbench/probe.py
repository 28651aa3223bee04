"""Set-up probe: a fresh process that imports pseudobe from the checkout and
loads the named workload's inputs, then prints the ``time.perf_counter``
reading (a system-wide monotonic clock on Linux) at which the first op
could start.  ``run.py`` subtracts the reading it took before starting
this process.

    python3 perfbench/probe.py <workload>
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pseudobe  # noqa: E402
import pseudobe.cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](ROOT).load()
print(time.perf_counter())
