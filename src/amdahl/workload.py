"""Deterministic execution-timeline simulation of sequential/parallel workloads.

A workload is an ordered list of phases executed on k processors:

* a sequential phase runs on processor 0 while the others idle;
* a parallel phase optionally pays a dispatch overhead on processor 0, then
  places its chunks one by one on whichever processor frees up first (ties go
  to the lowest index), and after the last chunk finishes optionally pays a
  collect overhead, again on processor 0.

Chunks may outnumber processors; the greedy placement (Graham's list
scheduling) then packs them into multiple rounds. One routine, ``_place``,
does that placement for every parallel phase: a heap of (free time, index)
pairs over min(k, n) processors finds each of n chunks its processor, so a
phase costs O(n log min(k, n)). Waiting time is never an input: it emerges
wherever a processor has nothing to do. A run keeps one busy and one idle
time per processor, so ``simulate`` takes at most ``_MAX_PROCESSORS``.

The serial baseline used for speedup is the same work run on one processor
with no dispatch or collect overheads (those exist only because of the
parallel organization). The effective parallel fraction reported for a run is
the value that plugs the measured speedup back into the scaling model at the
same processor count.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from collections import namedtuple
from typing import IO, Iterable, NamedTuple, Union

from . import _HOMES
from .core import (
    AlphaEstimate,
    EstimationMethod,
    Speedup,
    _Checked,
    _from_speedup,
    _require_count,
    _require_nonnegative,
    _require_positive,
)
from .errors import InvalidTemplateError, InvalidWorkloadError, ModelError

__all__ = _HOMES["workload"]

# The most processors simulate runs: each one costs a busy and an idle slot, so a
# larger count is rejected before anything is allocated.
_MAX_PROCESSORS = 10**6


class SequentialPhase(NamedTuple):
    duration: float


class ParallelPhase(NamedTuple):
    chunks: tuple[float, ...]
    dispatch_overhead: float = 0.0
    collect_overhead: float = 0.0


Phase = Union[SequentialPhase, ParallelPhase]


class WorkloadSpec(_Checked, namedtuple("WorkloadSpec", "processors phases")):
    """A processor count plus the ordered phases to run on it."""

    __slots__ = ()

    def __new__(cls, processors: int, phases: Iterable[Phase]):
        # At most sys.maxsize: the simulator keeps one list slot per processor.
        processors = _require_count(processors, "processors", 1, error=InvalidWorkloadError,
                                    maximum=sys.maxsize, excess=InvalidWorkloadError)
        phases = tuple(_checked_phase(phase, i) for i, phase in enumerate(phases, 1))
        if not phases:
            raise InvalidWorkloadError("a workload needs at least one phase")
        return tuple.__new__(cls, (processors, phases))


def _checked_phase(phase: Phase, index: int) -> Phase:
    """The phase rebuilt from the numbers its checks return."""
    try:
        if isinstance(phase, SequentialPhase):
            return SequentialPhase(_require_positive(phase.duration, "sequential duration"))
        if isinstance(phase, ParallelPhase):
            chunks = tuple(phase.chunks or ())  # read once: the chunks may be an iterator
            if not chunks:
                raise ValueError("a parallel phase needs at least one chunk")
            try:
                checked = tuple([_require_positive(c, "chunk") for c in chunks])
            except ValueError:  # check again, naming each chunk, to report the first bad one
                for j, c in enumerate(chunks, 1):
                    _require_positive(c, f"chunk {j}")
            return ParallelPhase(
                checked,
                _require_nonnegative(phase.dispatch_overhead, "dispatch overhead"),
                _require_nonnegative(phase.collect_overhead, "collect overhead"),
            )
        raise ValueError(f"unknown phase object {phase!r}")
    except ValueError as exc:
        raise InvalidWorkloadError(f"phase {index}: {exc}") from None


class TimelineSegment(NamedTuple):
    """One contiguous busy interval of one processor."""

    processor: int
    start: float
    end: float
    label: str


class ScheduleResult(NamedTuple):
    """Everything measured from one simulated run.

    ``serial_time`` excludes dispatch/collect overheads; ``parallel_time`` is
    the simulated makespan including them. ``alpha_eff`` is None on a single
    processor, and also when overheads push the measured speedup below 1,
    where no parallel fraction in [0, 1] reproduces the run.
    """

    serial_time: float
    parallel_time: float
    speedup: Speedup
    alpha_eff: AlphaEstimate | None
    per_processor_busy: tuple[float, ...]
    per_processor_idle: tuple[float, ...]
    timeline: tuple[TimelineSegment, ...]


def simulate(workload: WorkloadSpec) -> ScheduleResult:
    """Run the greedy schedule and measure it. See the module docstring for semantics.

    Raises:
        ModelError: more than ``_MAX_PROCESSORS`` (10**6) processors.
        InvalidWorkloadError: the run's times overflow the float range.
    """
    k = workload.processors
    if k > _MAX_PROCESSORS:
        raise ModelError(f"simulate runs at most {_MAX_PROCESSORS} processors, got {k}")
    busy = [0.0] * k
    timeline: list[TimelineSegment] = []
    clock = 0.0
    serial_chunks = 0.0
    serial_seq = 0.0

    def step(duration: float, label: str) -> None:
        """Work on processor 0 while the others wait."""
        nonlocal clock
        timeline.append(TimelineSegment(0, clock, clock + duration, label))
        busy[0] += duration
        clock += duration

    for index, phase in enumerate(workload.phases, 1):
        if isinstance(phase, SequentialPhase):
            step(phase.duration, f"seq{index}")
            serial_seq += phase.duration
            continue
        if phase.dispatch_overhead > 0.0:
            step(phase.dispatch_overhead, f"dispatch{index}")
        placed, clock = _place(phase.chunks, k, clock)
        for j, (chunk, (p, start, end)) in enumerate(zip(phase.chunks, placed), 1):
            timeline.append(TimelineSegment(p, start, end, f"chunk{index}.{j}"))
            busy[p] += chunk
            serial_chunks += chunk
        if phase.collect_overhead > 0.0:
            step(phase.collect_overhead, f"collect{index}")

    serial_time = serial_seq + serial_chunks
    parallel_time = clock
    _require_finite_times(serial_time, parallel_time)
    speedup = Speedup(serial_time / parallel_time)
    one_minus = _simulated_fraction(speedup.value, k)

    idle = tuple(max(0.0, parallel_time - b) for b in busy)
    return ScheduleResult(
        serial_time=serial_time,
        parallel_time=parallel_time,
        speedup=speedup,
        alpha_eff=(
            None if one_minus is None else AlphaEstimate(one_minus, EstimationMethod.SIMULATED, k)
        ),
        per_processor_busy=tuple(busy),
        per_processor_idle=idle,
        timeline=tuple(timeline),
    )


def _place(chunks: tuple[float, ...], k: int, clock: float) -> tuple[list, float]:
    """Greedy list schedule of one parallel phase starting at ``clock`` on k processors.

    Each chunk in turn goes to the processor that frees up first, ties to the
    lowest index. Returns each chunk's (processor, start, end) and the phase's
    end, the largest end. The heap holds only the first min(k, n) processors
    for n chunks, which is exact: a processor with index >= n is chosen only
    when all n lower ones are busy past the phase start, and that takes n
    chunks already placed.
    """
    free = [(clock, p) for p in range(min(k, len(chunks)))]  # sorted, so already a heap
    placed = []
    for chunk in chunks:
        start, p = free[0]
        end = start + chunk
        placed.append((p, start, end))
        heapq.heapreplace(free, (end, p))
    # Each processor's chunks end in order, so the latest free time is the largest end.
    return placed, max(free)[0]


def _require_finite_times(serial_time: float, parallel_time: float) -> None:
    if not (math.isfinite(serial_time) and math.isfinite(parallel_time)):
        raise InvalidWorkloadError(
            f"workload overflows the time range: serial time {serial_time!r}, "
            f"parallel time {parallel_time!r}"
        )


def _simulated_fraction(speedup: float, k: int) -> float | None:
    """1 - alpha_eff of a simulated speedup; None on one processor or below S = 1."""
    if k < 2 or speedup < 1.0:
        return None
    # Summation rounding can leave S a few ulp above k; the schedule itself
    # can never beat k processors, so clamp before inverting. The workload's
    # checks keep S finite, so the clamped value is a valid speedup on k.
    return _from_speedup(min(speedup, float(k)), k)


class SweepPoint(NamedTuple):
    """One grid point of a sweep; one_minus_alpha_eff is None where speedup < 1."""

    overhead_ratio: float
    sequential_ratio: float
    one_minus_alpha_eff: float | None


def sweep_alpha_eff(
    processors: int,
    template: WorkloadSpec,
    overhead_ratios: Iterable[float],
    sequential_ratios: Iterable[float],
) -> list[SweepPoint]:
    """Map how the effective parallel fraction degrades with overhead and serial work.

    The template must contain exactly one parallel phase. Each grid point is
    the template rescaled and run on ``processors`` processors:

    * total overhead (dispatch + collect) is set to overhead_ratio times the
      largest chunk, split like the template's own overheads (evenly when the
      template has none);
    * every sequential duration is multiplied by sequential_ratio, measured
      against the template's own sequential time (ratio 1 keeps it, ratio 0
      removes the sequential phases entirely).

    A parallel phase always starts on an idle machine, so the span of its
    chunks depends on neither ratio. The chunks are placed once, from time 0,
    by the placement :func:`simulate` uses, which keeps min(processors, chunk
    count) processors; so a sweep's time and memory do not grow with
    ``processors`` beyond the chunk count. Each grid point then costs O(1):
    its parallel time is sequential time + dispatch + span + collect, its
    serial time is sequential time + chunk work. Values can differ from
    simulating each rescaled workload in the last few bits, because the span
    is measured from time 0 rather than from the end of the preceding phases.

    Grid points are emitted with the overhead ratio as the outer loop.

    Raises:
        ValueError: a processor count that is no integer or below 2, or a
            ratio that is negative or not a finite number.
        InvalidTemplateError: a template without exactly one parallel phase.
        InvalidWorkloadError: more than ``sys.maxsize`` processors, or the
            chunks' or a grid point's times overflow the float range.
    """
    processors = _require_count(processors, "processors", 2,
                                "a sweep needs at least 2 processors to define alpha_eff",
                                maximum=sys.maxsize, excess=InvalidWorkloadError)
    parallel_phases = [p for p in template.phases if isinstance(p, ParallelPhase)]
    if len(parallel_phases) != 1:
        raise InvalidTemplateError(
            f"sweep template must have exactly one parallel phase, found {len(parallel_phases)}"
        )
    base = parallel_phases[0]
    max_chunk = max(base.chunks)
    base_total = base.dispatch_overhead + base.collect_overhead
    dispatch_share = base.dispatch_overhead / base_total if base_total > 0.0 else 0.5

    overhead_ratios = [_require_nonnegative(r, "sweep ratios") for r in overhead_ratios]
    sequential_ratios = [_require_nonnegative(r, "sweep ratios") for r in sequential_ratios]

    span = _place(base.chunks, processors, 0.0)[1]
    chunk_work = sum(base.chunks, 0.0)
    _require_finite_times(chunk_work, span)
    durations = [p.duration for p in template.phases if isinstance(p, SequentialPhase)]
    sequential_times = [sum(d * seq for d in durations) for seq in sequential_ratios]

    points: list[SweepPoint] = []
    for ov in overhead_ratios:
        total = ov * max_chunk
        parallel_part = total * dispatch_share + span + total * (1.0 - dispatch_share)
        for seq, seq_time in zip(sequential_ratios, sequential_times):
            parallel_time = seq_time + parallel_part
            serial_time = seq_time + chunk_work
            if not (math.isfinite(parallel_time) and math.isfinite(serial_time)):
                raise InvalidWorkloadError(
                    f"sweep point overhead={ov!r} sequential={seq!r} overflows the time range"
                )
            one_minus = _simulated_fraction(serial_time / parallel_time, processors)
            points.append(SweepPoint(ov, seq, one_minus))
    return points


def load_workload(source: IO[str]) -> WorkloadSpec:
    """Parse a workload from its JSON description.

    Expected shape::

        {"processors": 3,
         "phases": [{"type": "sequential", "duration": 1.5},
                    {"type": "parallel", "dispatch": 0.5, "collect": 1.0,
                     "chunks": [2.5, 2.0, 3.0]}]}

    ``dispatch`` and ``collect`` default to 0 when omitted. The loader reads
    only this shape and hands every value, ``processors`` included, to
    :class:`WorkloadSpec` unchanged, which checks them.

    Raises:
        InvalidWorkloadError: the text is no JSON, holds an integer longer than
            ``int()`` reads or nests too deeply; the document is no object,
            ``phases`` no array, a phase no object, its ``type`` unknown or its
            ``chunks`` no array; or, raised by ``WorkloadSpec``, a bad
            ``processors`` or the first bad value of a phase.
    """
    text = source.read()  # outside the try: a decoding error is no long number
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidWorkloadError(f"workload file is not valid JSON: {exc}") from exc
    except ValueError:  # the only other failure: an integer longer than int() accepts
        raise InvalidWorkloadError(
            "a number in the workload file is too long to read "
            f"(more than {sys.get_int_max_str_digits()} digits)"
        ) from None
    except RecursionError:
        raise InvalidWorkloadError("workload file nests its arrays or objects too deeply") from None
    if not isinstance(doc, dict):
        raise InvalidWorkloadError("workload file must contain a JSON object")

    raw_phases = doc.get("phases")
    if not isinstance(raw_phases, list):
        raise InvalidWorkloadError("'phases' must be a non-empty array")

    phases: list[Phase] = []
    for i, item in enumerate(raw_phases, 1):
        if not isinstance(item, dict):
            raise InvalidWorkloadError(f"phase {i} must be an object, got {item!r}")
        kind = item.get("type")
        if kind == "sequential":
            phases.append(SequentialPhase(item.get("duration")))
        elif kind == "parallel":
            chunks = item.get("chunks")
            if not isinstance(chunks, list):
                raise InvalidWorkloadError(f"phase {i}: 'chunks' must be a non-empty array")
            phases.append(ParallelPhase(chunks, item.get("dispatch", 0), item.get("collect", 0)))
        else:
            raise InvalidWorkloadError(
                f"phase {i}: 'type' must be 'sequential' or 'parallel', got {kind!r}"
            )
    return WorkloadSpec(doc.get("processors"), phases)
