"""schedule-wide: ``load_workload`` on one JSON document, then ``simulate``.

Processor counts run in half-octave steps from 8 to 1024; each document has
a sequential prologue, two parallel phases of 3k and 2k chunks with nonzero
dispatch and collect overheads, and a sequential epilogue. Placement is
O(chunks x k) today, so the largest counts set ``op_p90_ms``. Chunk sizes are
uniform or heavy-tailed (Pareto) per document, which varies the imbalance.
The counts are fixed, so an operation's cost does not depend on the seed.
An operation at the middle count (k=91) lasts a few milliseconds, so one
operation's time swings by about 20% with the host; that count gets eleven
documents a round, so the median rests on eleven operations rather than one.
With 25 documents a round the median falls in the middle of that cluster and
the 90th percentile in the middle of k=512.
"""

from __future__ import annotations

import io
import json
import random

import oracle
from amdahl import load_workload, simulate
from base import BaseWorkload


def processor_counts(tiny: bool) -> list[int]:
    top = 64 if tiny else 1024
    counts, k = [], 8.0
    while round(k) <= top:
        counts.append(round(k))
        k *= 2**0.5
    if tiny:
        return counts
    middle = len(counts) // 2
    return counts[:middle] + [counts[middle]] * 11 + counts[middle + 1:]


def band(k: int) -> int:
    """The power of two at or below k: the octave a processor count reports under."""
    return 1 << (k.bit_length() - 1)


def generate(rng: random.Random, k: int) -> dict:
    heavy = rng.random() < 0.5

    def chunk() -> float:
        return round(rng.paretovariate(1.5) if heavy else rng.uniform(0.5, 1.5), 6)

    phases = [
        {"type": "sequential", "duration": round(rng.uniform(0.5, 5.0), 6)},
        {"type": "parallel", "dispatch": round(rng.uniform(0.01, 0.5), 6),
         "collect": round(rng.uniform(0.01, 0.5), 6), "chunks": [chunk() for _ in range(3 * k)]},
        {"type": "parallel", "dispatch": round(rng.uniform(0.01, 0.5), 6),
         "collect": round(rng.uniform(0.01, 0.5), 6), "chunks": [chunk() for _ in range(2 * k)]},
        {"type": "sequential", "duration": round(rng.uniform(0.5, 5.0), 6)},
    ]
    return {"text": json.dumps({"processors": k, "phases": phases}), "processors": k,
            "chunks": 5 * k, "expected": None}


def reference(item: dict) -> dict:
    doc = json.loads(item["text"])
    phases = [
        ("seq", p["duration"]) if p["type"] == "sequential"
        else ("par", p["chunks"], p["dispatch"], p["collect"])
        for p in doc["phases"]
    ]
    return oracle.schedule(doc["processors"], phases)


class Workload(BaseWorkload):
    work_unit = "chunks placed"

    def prepare(self, rng: random.Random, tracer) -> None:
        self.items = [generate(rng, k) for k in processor_counts(self.tiny)]
        for item in self.items:
            item["expected"] = reference(item)

    def units(self, item: dict) -> int:
        return item["chunks"]

    def run(self, tr, item: dict):
        with tr.span("workload.load_workload"):
            spec = load_workload(io.StringIO(item["text"]))
        with tr.span(f"workload.simulate.k{band(item['processors'])}"):
            result = simulate(spec)
        tr.count(f"workload.simulate.chunks.k{band(item['processors'])}", item["chunks"])
        tr.count("workload.simulate.segments", len(result.timeline))
        return result

    def check(self, item: dict, result) -> str | None:
        e = item["expected"]
        if len(result.timeline) != e["segments"]:
            return f"k={item['processors']}: {len(result.timeline)} segments, expected {e['segments']}"
        if not oracle.close(result.parallel_time, e["parallel_time"]):
            return f"k={item['processors']}: parallel_time {result.parallel_time!r} != {e['parallel_time']!r}"
        if not oracle.close(result.serial_time, e["serial_time"]):
            return f"k={item['processors']}: serial_time {result.serial_time!r} != {e['serial_time']!r}"
        if len(result.per_processor_busy) != len(e["busy"]) or any(
            not oracle.close(a, b) for a, b in zip(result.per_processor_busy, e["busy"])
        ):
            return f"k={item['processors']}: busy time per processor differs from the reference"
        got = None if result.alpha_eff is None else result.alpha_eff.one_minus_alpha
        if (got is None) != (e["one_minus_alpha"] is None) or (
            got is not None and not oracle.close(got, e["one_minus_alpha"])
        ):
            return f"k={item['processors']}: one_minus_alpha {got!r} != {e['one_minus_alpha']!r}"
        return None

    def layer_metrics(self, tracer) -> dict[str, float]:
        busy = tracer.self_times()
        counts = tracer.counts
        metrics = {
            "workload.load_workload.busy_s": busy.get("workload.load_workload", 0.0),
            "workload.simulate.busy_s": sum(
                v for name, v in busy.items() if name.startswith("workload.simulate.k")
            ),
            "workload.simulate.segments": counts["workload.simulate.segments"],
        }
        for k in sorted({band(item["processors"]) for item in self.items}):
            metrics[f"workload.simulate.chunks_per_s.k{k}"] = (
                counts[f"workload.simulate.chunks.k{k}"] / busy[f"workload.simulate.k{k}"]
            )
        return metrics
