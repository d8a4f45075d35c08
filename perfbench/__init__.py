"""The repository benchmark: end-to-end and per-layer timings of the
self-routing Benes library and its ``benes serve`` daemon.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed
N --seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads and what each metric means.
"""

import os

#: The checkout the benchmark measures (the program is ``ROOT/src``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where runs leave traces, result stamps and per-run autotune caches.
OUT = os.path.join(ROOT, "perfbench", ".out")
