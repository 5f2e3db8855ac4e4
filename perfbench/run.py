"""Benchmark for amdahl-tools: four closed-loop workloads, one client each.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any directory works; paths resolve from this
file). The package is imported from ``src/`` of the same checkout; without it
the benchmark exits 2 before measuring anything.

Workloads (reasons in BENCHMARK.json):

* ``cli-mix``: one fresh-interpreter ``amdahl <subcommand>`` call per operation;
* ``records-pipeline``: one TOP500-style analysis session per operation;
* ``schedule-wide``: ``load_workload`` + ``simulate`` at 8..1024 processors;
* ``sweep-grid``: one ``sweep_alpha_eff`` over a few hundred grid points.

Every input comes from ``--seed``; the package only ever sees the generated
inputs. Each operation is checked against a reference computed outside the
timed region (see ``oracle.py``); failures count against ``attempted``.

With ``--trace 0`` the run measures the end-to-end metrics for ``--seconds``,
after one untimed warm-up round. ``op_p50_ms``, ``op_p90_ms`` and
``work_per_s`` are scaled to the nominal speed of the host the benchmark was
calibrated on, by fixed work timed between the operations (see
``reference.py``); the header line gives the factor and the unscaled wall
values. ``setup_s`` and ``peak_rss_mb`` are not scaled.

With ``--trace 1`` it alternates untraced and traced rounds, half the time
each, and reports the per-layer metrics from the traced rounds' spans, which
it writes to ``.perfbench_out/``. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric with its unit, plus ``fail_ratio``, the Python version and ``nproc``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "cli-mix": "wl_cli",
    "records-pipeline": "wl_records",
    "schedule-wide": "wl_schedule",
    "sweep-grid": "wl_sweep",
}
MIN_OPS = 100
SETUP_REPEATS = 11
# Host-speed reference samples (reference.py) get this share of the timed time.
REFERENCE_SHARE = 0.1
IMPORTTIME_REPEATS = 5
BARE_SAMPLES = 15
IMPORTTIME_MODULES = ("cli", "core", "dataset", "projection", "workload", "errors")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def setup_probe(workload: str, env: dict[str, str]) -> dict:
    """Import + warm-up timing from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def importtime_self_ms(env: dict[str, str]) -> dict[str, float]:
    """Median self time per amdahl module from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORTTIME_MODULES}
    pattern = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+amdahl\.(\w+)$")
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import amdahl.cli"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        for line in proc.stderr.splitlines():
            match = pattern.match(line.strip())
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) / 1e3)
    return {
        f"startup.import.{m}_self_ms": statistics.median(v) if v else 0.0
        for m, v in samples.items()
    }


class Phase:
    """Outcome of one closed-loop measurement phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0
        self.problems: list[str] = []


def measure(wl, tracers: list, rng: random.Random, seconds: float, min_ops: int,
            after_round) -> tuple[Phase, list[Phase], list[float]]:
    """Run one untimed warm-up round, then timed rounds until ``seconds`` and ``min_ops`` are met.

    The warm-up round's operations are checked like the others but their
    latencies are dropped, so first-call costs (caches, allocator growth,
    the full check of each input) stay out of the timings. With several
    tracers, rounds alternate between them and each gets its own share of
    the time and operations, so host drift during the run affects all of
    them alike. Only the operation itself is timed; its check against the
    reference runs after the clock stops. Stopping at a round boundary keeps
    the mix of input sizes identical from run to run. Between timed
    operations the workload's host-speed reference is sampled until it has
    had ``REFERENCE_SHARE`` of the timed time; the samples are returned in
    seconds. ``after_round`` gets the share of ``seconds`` done so far.
    """
    phases: list[Phase] = []
    references: list[float] = []

    def run_round(tracer, phase: Phase) -> None:
        for item in wl.round(rng):
            op_id = phase.attempted
            phase.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.op(op_id):
                    result = wl.run(tracer, item)
            except Exception as exc:  # an operation must not take the benchmark down
                result, problem = None, f"unexpected {type(exc).__name__}: {exc}"
            else:
                problem = None
            elapsed = time.perf_counter() - start
            phase.latencies.append(elapsed)
            phase.timed_s += elapsed
            if problem is None:
                try:
                    problem = wl.check(item, result)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is None:
                phase.units += wl.units(item)
            else:
                phase.failed += 1
                phase.problems.append(problem)
            timed = sum(p.timed_s for p in phases)
            while sum(references) < REFERENCE_SHARE * timed:
                references.append(wl.host_reference(tracer))

    warm_up = Phase()
    run_round(tracers[0], warm_up)
    phases.extend(Phase() for _ in tracers)
    share, min_share = seconds / len(tracers), math.ceil(min_ops / len(tracers))
    turn = 0
    while any(p.timed_s < share or p.attempted < min_share for p in phases):
        run_round(tracers[turn % len(tracers)], phases[turn % len(tracers)])
        turn += 1
        after_round(sum(p.timed_s for p in phases) / seconds)
    return warm_up, phases, references


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics as wall-clock measures, before host-speed scaling."""
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_p90_ms": percentile(phase.latencies, 0.9) * 1e3,
        "work_per_s": phase.units / phase.timed_s,
        "peak_rss_mb": peak_rss_mb,
    }


def at_nominal_speed(wall: dict[str, float], host: float) -> dict[str, float]:
    """The operations' metrics scaled by ``host`` (see reference.py).

    A slow spell (host < 1) shortens the latencies and raises the throughput
    back to what the nominal host shows. Set-up runs in fresh interpreters
    between the operations and stays wall time, as does memory.
    """
    return dict(
        wall,
        op_p50_ms=wall["op_p50_ms"] * host,
        op_p90_ms=wall["op_p90_ms"] * host,
        work_per_s=wall["work_per_s"] / host,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input and runs the fewest rounds (smoke test only)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "amdahl" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'amdahl'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = child_env()
    setup_probe(args.workload, env)  # fills the bytecode cache; not counted
    probes = [setup_probe(args.workload, env)]

    def probe_when_due(progress: float) -> None:
        # Set-up is sampled across the whole run, not in one burst, so a
        # slow spell on the host moves the median less.
        while len(probes) < SETUP_REPEATS and len(probes) <= progress * SETUP_REPEATS:
            probes.append(setup_probe(args.workload, env))

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import reference
    from base import bare_python_ms
    from tracing import NullTracer, Tracer

    module = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    min_ops = 1 if args.size == "tiny" else MIN_OPS
    tracer = Tracer() if args.trace else NullTracer()
    order = random.Random(f"{args.workload}:{args.seed}:order")
    wl = module.Workload(workdir, env, tiny=args.size == "tiny")
    try:
        wl.prepare(random.Random(f"{args.workload}:{args.seed}:inputs"), tracer)
        tracers = [NullTracer(), tracer] if args.trace else [tracer]
        warm_up, phases, references = measure(wl, tracers, order, args.seconds, min_ops, probe_when_due)
        probe_when_due(1.0)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(p["import_s"] + p["warm_s"] for p in probes)
    attempted = sum(p.attempted for p in [warm_up] + phases)
    failed = sum(p.failed for p in [warm_up] + phases)
    host = reference.host_factor(references, wl.reference_nominal_ms)
    header = (
        f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
        f" python {platform.python_version()} nproc {nproc()} host_factor {host:.4f}"
    )
    if args.trace:
        metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
        metrics.update(wl.layer_metrics(tracer))
        if not tracer.durations("startup.bare_python"):  # cli-mix interleaves its own
            for _ in range(BARE_SAMPLES):
                with tracer.span("startup.bare_python"):
                    bare_python_ms(env)
        bare = [d * 1e3 for d in tracer.durations("startup.bare_python")]
        metrics["startup.bare_python_ms"] = statistics.median(bare)
        metrics["startup.bare_python_p90_ms"] = percentile(bare, 0.9)
        metrics["startup.import_amdahl_ms"] = statistics.median(p["import_s"] for p in probes) * 1e3
        metrics.update(importtime_self_ms(env))
        metrics["host.reference_ms"] = statistics.median(references) * 1e3
        plain, traced = phases
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced.latencies) / statistics.median(plain.latencies)
        )
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(trace_file), {
            "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
            "nproc": nproc(), "span_fields": ["name", "start", "end", "parent", "op"],
        })
        header += f" spans {trace_file.relative_to(ROOT)}"
    else:
        wall = end_to_end(phases[0], setup_s, wl.peak_rss_mb())
        metrics = at_nominal_speed(wall, host)
        header += f" samples {phases[0].attempted} work_unit {wl.work_unit} wall"
        header += "".join(f" {k} {wall[k]:.6g}" for k in ("op_p50_ms", "op_p90_ms", "work_per_s"))

    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    print(header)
    for name, value in metrics.items():
        print(f"{name:<42} {value:>14.6g} {units[name]}")
    print(f"{'fail_ratio':<42} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    for problem in [q for p in [warm_up] + phases for q in p.problems][:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
