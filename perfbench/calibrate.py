"""Machine-speed calibration for the benchmark's reported times.

On a shared host the throughput of one core drifts by 20-40% over tens of
seconds, which drowns the differences the benchmark exists to show.  A
fixed pure-Python kernel (building nested tuple keys and accumulating them
into a 12,000-entry dict, the same kind of work as the package's inner
loops) is timed between the calls of every round; the round's latencies are
scaled by ``REFERENCE_S`` over the median kernel time of that round.  Reported times are therefore seconds at the
reference speed: raw seconds on a machine whose kernel time equals
``REFERENCE_S``.  Raw times stay on the run's info line.

``REFERENCE_S`` is the kernel's median time on the baseline machine (Intel
Xeon, 2 vCPUs, Python 3.11.7); re-recording it rescales every reported time.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0058
KERNEL_N = 12_000
_KEYS = [(i % 97, (i * 31) % 89, i % 7) for i in range(KERNEL_N)]


def kernel_seconds() -> float:
    t = time.perf_counter()
    acc: dict = {}
    for i, key in enumerate(_KEYS):
        nested = (key, i & 7)
        acc[nested] = acc.get(nested, 0.0) + 0.5
    return time.perf_counter() - t
