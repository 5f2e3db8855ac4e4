"""sweep-grid: one ``sweep_alpha_eff`` over a grid of a few hundred points per operation.

Templates are small (k from 2 to 16, at most 64 chunks, 1 to 3 sequential
phases), so each grid point is a tiny simulation and rebuilding and validating
the rescaled ``WorkloadSpec`` costs as much as placing the chunks. The two
bundled templates are loaded with ``load_workload`` in every operation; the
generated ones are built from phase objects. Processor counts and chunk counts
follow a fixed ladder so an operation's cost does not depend on the seed; with
15 templates per round the median and 90th percentile sit inside one template.
"""

from __future__ import annotations

import io
import json
import random

import oracle
from amdahl import ParallelPhase, SequentialPhase, WorkloadSpec, fixture_path, load_workload, sweep_alpha_eff
from base import BaseWorkload

BUNDLED = ("workload_classic.json", "workload_realistic.json")
SPOT_CHECKS = 6


def ladder(tiny: bool) -> list[int]:
    return [2, 5, 9] if tiny else [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16]


def grid(rng: random.Random, tiny: bool) -> tuple[list[float], list[float]]:
    """Overhead ratios (0, then quadratically spaced up to 5-20) and sequential ratios."""
    n_over, n_seq = (4, 3) if tiny else (20, 15)
    top = rng.uniform(5.0, 20.0)
    overhead = [0.0] + [round(top * (i / (n_over - 1)) ** 2, 6) for i in range(1, n_over)]
    sequential = [0.0] + sorted(round(rng.uniform(0.05, 4.0), 6) for _ in range(n_seq - 1))
    return overhead, sequential


def generate(rng: random.Random, k: int, tiny: bool) -> dict:
    chunks = tuple(round(rng.uniform(0.2, 3.0), 6) for _ in range(min(64, 4 * k)))
    parallel = ("par", chunks, round(rng.uniform(0.0, 0.5), 6), round(rng.uniform(0.0, 0.5), 6))
    n_seq = rng.randint(1, 3)
    position = rng.randint(0, n_seq)
    phases = [("seq", round(rng.uniform(0.1, 5.0), 6)) for _ in range(n_seq)]
    phases.insert(position, parallel)
    return {"processors": k, "phases": phases, "text": None, "grid": grid(rng, tiny)}


def bundled(rng: random.Random, name: str, tiny: bool) -> dict:
    with open(fixture_path(name), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    phases = [
        ("seq", p["duration"]) if p["type"] == "sequential"
        else ("par", p["chunks"], p.get("dispatch", 0), p.get("collect", 0))
        for p in doc["phases"]
    ]
    return {"processors": doc["processors"], "phases": phases, "text": text, "grid": grid(rng, tiny)}


def build(item: dict) -> WorkloadSpec:
    phases = [
        SequentialPhase(p[1]) if p[0] == "seq" else ParallelPhase(p[1], p[2], p[3])
        for p in item["phases"]
    ]
    return WorkloadSpec(item["processors"], tuple(phases))


class Workload(BaseWorkload):
    work_unit = "grid points"

    def prepare(self, rng: random.Random, tracer) -> None:
        self.items = [bundled(rng, name, self.tiny) for name in BUNDLED]
        self.items += [generate(rng, k, self.tiny) for k in ladder(self.tiny)]
        for item in self.items:
            overhead, sequential = item["grid"]
            picks = [(0, 0), (len(overhead) - 1, len(sequential) - 1)]
            picks += [(rng.randrange(len(overhead)), rng.randrange(len(sequential)))
                      for _ in range(SPOT_CHECKS - 2)]
            item["spot"] = [
                (i * len(sequential) + j, oracle.sweep_point(
                    item["processors"], item["phases"], overhead[i], sequential[j]))
                for i, j in picks
            ]

    def units(self, item: dict) -> int:
        overhead, sequential = item["grid"]
        return len(overhead) * len(sequential)

    def run(self, tr, item: dict):
        if item["text"] is not None:
            with tr.span("workload.load_workload"):
                template = load_workload(io.StringIO(item["text"]))
        else:
            with tr.span("workload.spec_build"):
                template = build(item)
        overhead, sequential = item["grid"]
        with tr.span("workload.sweep_alpha_eff"):
            points = sweep_alpha_eff(item["processors"], template, overhead, sequential)
        tr.count("workload.sweep_alpha_eff.points", len(points))
        tr.count("workload.sweep_alpha_eff.none", sum(p.one_minus_alpha_eff is None for p in points))
        return points

    def check(self, item: dict, points) -> str | None:
        overhead, sequential = item["grid"]
        if [(p.overhead_ratio, p.sequential_ratio) for p in points] != [
            (o, s) for o in overhead for s in sequential
        ]:
            return f"k={item['processors']}: sweep grid order or ratios differ"
        for index, expected in item["spot"]:
            got = points[index].one_minus_alpha_eff
            if (got is None) != (expected is None) or (
                got is not None and not oracle.close(got, expected)
            ):
                return f"k={item['processors']}: sweep point {index} gave {got!r}, expected {expected!r}"
        return None

    def layer_metrics(self, tracer) -> dict[str, float]:
        busy = tracer.self_times()
        counts = tracer.counts
        sweep_busy = busy["workload.sweep_alpha_eff"]
        return {
            "workload.load_workload.busy_s": busy.get("workload.load_workload", 0.0),
            "workload.spec_build.busy_s": busy.get("workload.spec_build", 0.0),
            "workload.sweep_alpha_eff.busy_s": sweep_busy,
            "workload.sweep_alpha_eff.points_per_s": counts["workload.sweep_alpha_eff.points"] / sweep_busy,
            "workload.sweep_alpha_eff.none_ratio":
                counts["workload.sweep_alpha_eff.none"] / counts["workload.sweep_alpha_eff.points"],
        }
