"""How many CPUs this process may run on.

The kernels that split their work over a thread pool (the dense decay
draw, the belief-propagation sweeps) size the pool from this one
count, so a test that pins the count patches this one function.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
