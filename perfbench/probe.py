"""Set-up probe: time ``import amdahl`` plus one warm-up call in a fresh interpreter.

Usage: ``python3 perfbench/probe.py <workload>`` with ``src`` on PYTHONPATH.
Prints ``{"import_s": ..., "warm_s": ...}``. Only ``sys`` and ``time`` are
imported before the clock starts, so every module the package pulls in is
charged to the import.
"""

import sys
import time

CSV = (
    "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
    "2016,1,A,MPP,1000,700.0,1000.0,HPL\n"
    "2017,1,B,Cluster,2000,1500.0,2000.0,HPL\n"
)
WORKLOAD = (
    '{"processors": 4, "phases": [{"type": "sequential", "duration": 1.0},'
    ' {"type": "parallel", "dispatch": 0.1, "collect": 0.1, "chunks": [1, 2, 3, 4, 5]}]}'
)


def warm_cli() -> None:
    import contextlib
    import io

    from amdahl import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["alpha", "--efficiency", "0.5", "--cores", "8"])


def warm_records() -> None:
    import io

    from amdahl import (
        ChampionCriterion, derive, parse_records, project_curve, select_champions, write_records,
    )

    records = parse_records(io.StringIO(CSV))
    [derive(r) for r in records]
    select_champions(records, ChampionCriterion.BEST_ALPHA)
    project_curve(1000, 1000.0, 1e-4, [1000.0, 2000.0])
    write_records(records, io.StringIO(), derived=True)


def warm_schedule() -> None:
    import io

    from amdahl import load_workload, simulate

    simulate(load_workload(io.StringIO(WORKLOAD)))


def warm_sweep() -> None:
    from amdahl import ParallelPhase, SequentialPhase, WorkloadSpec, sweep_alpha_eff

    template = WorkloadSpec(4, (SequentialPhase(1.0), ParallelPhase((1.0, 2.0, 3.0))))
    sweep_alpha_eff(4, template, [0.0, 1.0], [0.0, 1.0])


WARMUPS = {
    "cli-mix": warm_cli,
    "records-pipeline": warm_records,
    "schedule-wide": warm_schedule,
    "sweep-grid": warm_sweep,
}

if __name__ == "__main__":
    warm = WARMUPS[sys.argv[1]]
    t0 = time.perf_counter()
    import amdahl  # noqa: F401

    t1 = time.perf_counter()
    warm()
    t2 = time.perf_counter()
    import json

    print(json.dumps({"import_s": t1 - t0, "warm_s": t2 - t1}))
