"""Host-speed reference: fixed work timed between operations, to scale out host drift.

On the shared host this benchmark was built on (a 2-vCPU Intel Xeon KVM guest,
CPython 3.11.7), the same operation runs up to 1.5 times slower for minutes at
a time, on every in-process workload at once. Longer runs do not remove it:
the IQR/median of the median latency of consecutive blocks of one fixed
operation was 0.18-0.20 whether the blocks were 10 s or 60 s long. So each run
also times fixed work between its operations, and the end-to-end latencies and
throughput are scaled to a host on which that work takes its nominal time
(``host_factor``).

In-process workloads use ``spin``, pure bytecode: integer arithmetic in a loop.
Three references were tried on six seeds per workload, interleaved over 15
minutes: this loop, a mix of CSV parsing, dataclasses, sorting and JSON, and a
C-level ``min`` over a list. The loop tracked all three in-process workloads
best; the largest IQR/median of ``op_p50_ms``, ``op_p90_ms`` and
``work_per_s`` fell from 0.30 unscaled to 0.14 scaled (records-pipeline
``op_p50_ms`` 0.30 to 0.05, schedule-wide ``op_p90_ms`` 0.29 to 0.04).
cli-mix runs fresh interpreters, so its reference is a bare one
(``base.bare_python_ms``), which took its largest spread from 0.07 to 0.05.

Neither reference touches ``amdahl``, so no change to the package moves it,
and ``spin`` runs with the cyclic collector off, so the package's heap does
not either. A change to the package moves a scaled metric by the same share
as the wall time it is scaled from; the wall values are printed on the
header line of every result.
"""

from __future__ import annotations

import gc
import time

# Median of ``timed()`` on the host named above.
NOMINAL_MS = 1.4


def spin() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def timed() -> float:
    """Seconds one ``spin`` takes, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        spin()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_factor(samples: list[float], nominal_ms: float) -> float:
    """Nominal over the median sample: below 1 when the host ran slow."""
    ordered = sorted(samples)
    return nominal_ms / (ordered[len(ordered) // 2] * 1e3)
