"""What every workload shares; see ``run.measure`` for how the methods are used."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time

import reference

# Median of ``bare_python_ms`` on the host named in reference.py.
BARE_PYTHON_NOMINAL_MS = 50.0


class BaseWorkload:
    """One workload: seeded inputs, a timed operation and its check.

    Subclasses set ``work_unit`` and implement ``prepare``, ``run``,
    ``check``, ``units`` and ``layer_metrics``.
    """

    work_unit = ""
    # Nominal milliseconds of one ``host_reference`` sample.
    reference_nominal_ms = reference.NOMINAL_MS

    def __init__(self, workdir, env: dict[str, str], tiny: bool) -> None:
        self.workdir = workdir
        self.env = env
        self.tiny = tiny
        self.items: list = []

    def round(self, rng: random.Random) -> list:
        """One pass over every input, in seeded order."""
        items = list(self.items)
        rng.shuffle(items)
        return items

    def host_reference(self, tracer) -> float:
        """Seconds of one host-speed sample, taken between operations (see reference.py)."""
        return reference.timed()

    def close(self) -> None:
        """Release what ``prepare`` opened."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv: list[str], env: dict[str, str], stdout, stderr) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def bare_python_ms(env: dict[str, str]) -> float:
    """Wall time of ``python -c pass``: the interpreter's own start-up, for reference."""
    elapsed, _, _ = run_child(
        [sys.executable, "-c", "pass"], env, subprocess.DEVNULL, subprocess.DEVNULL
    )
    return elapsed * 1e3
