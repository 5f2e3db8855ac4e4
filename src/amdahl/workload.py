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
phase costs O(n log min(k, n)) placement. The first round, one chunk per
processor from the phase start, skips the heap whenever each of its chunks
moves the clock. ``simulate`` then adds each chunk's timeline segment, busy
time and serial work in one loop. Chunks that are exact floats, all > 0 with
a finite sum, pass ``WorkloadSpec``'s check with no call per chunk. Waiting
time is never an input: it emerges wherever a processor has nothing to do. A
run keeps busy and idle times only for the processors that can run, so
``simulate`` takes any processor count a ``WorkloadSpec`` takes.

``sweep_alpha_eff`` needs only the end of its template's chunks, which
``_span`` takes from a heap of bare free times, and then evaluates the whole
grid in one pass: a grid point costs O(1), and every speedup of the grid goes
through C-level maps into one call of the speedup kernel
``core._from_speedups``, with no Python call per point or per row. Its
overflow check runs once per sweep, on the sweep's longest sequential time,
and still names the first overflowing point.

Busy and serial time are summed in input order, one addition at a time: each
processor's busy time adds its durations, overheads and chunks as they run,
and the serial time is the sequential durations' total plus the chunk work's
total. So a run is bit-reproducible. The sweep adds its totals the same way,
never with ``sum()``, which compensates float rounding from Python 3.12 on.

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
from functools import reduce
from itertools import chain, count, islice, repeat
from operator import add, truediv
from typing import IO, Iterable, NamedTuple, Union

from . import _HOMES
from .core import (
    AlphaEstimate,
    EstimationMethod,
    Speedup,
    _Checked,
    _from_speedups,
    _require_count,
    _require_nonnegative,
    _require_positive,
    _shown,
)
from .errors import InvalidTemplateError, InvalidWorkloadError

__all__ = _HOMES["workload"]


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
        # At most sys.maxsize, the workload format's documented limit, which
        # simulate and sweep_alpha_eff both take.
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
            chunks = phase.chunks
            if type(chunks) is not tuple:
                try:  # any iterable, a numpy array included, which has no single truth value
                    chunks = () if chunks is None else iter(chunks)
                except TypeError:
                    raise ValueError(
                        f"chunks must be an iterable of numbers, got {_shown(chunks)}")
                chunks = tuple(chunks)  # read once: the chunks may be an iterator
            if not chunks:
                raise ValueError("a parallel phase needs at least one chunk")
            # Exact floats, all > 0 (a nan first fails min), with a finite sum (a
            # nan or inf anywhere makes it nan or inf) are what the guard returns.
            if (set(map(type, chunks)) == {float} and min(chunks) > 0.0
                    and math.isfinite(sum(chunks))):
                checked = chunks
            else:
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

    ``per_processor_busy`` and ``per_processor_idle`` cover processors 0 to
    m - 1, where m is the processor count or the largest chunk count of any
    parallel phase, whichever is smaller (1 with no parallel phase). The
    processors from m on never ran: each has busy time 0.0 and idle time
    ``parallel_time``.
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
        InvalidWorkloadError: the run's times overflow the float range, or
            its speedup, serial over parallel time, underflows to 0.
    """
    k = workload.processors
    widest = max([len(p.chunks) for p in workload.phases if isinstance(p, ParallelPhase)],
                 default=1)
    busy = [0.0] * min(k, widest)  # no processor past the widest phase runs: see _place
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
        prefix = f"chunk{index}."
        for j, (p, start, end), chunk in zip(count(1), placed, phase.chunks):
            timeline.append(tuple.__new__(TimelineSegment, (p, start, end, f"{prefix}{j}")))
            busy[p] += chunk
            serial_chunks += chunk
        if phase.collect_overhead > 0.0:
            step(phase.collect_overhead, f"collect{index}")

    serial_time = serial_seq + serial_chunks
    parallel_time = clock
    _require_finite_times(serial_time, parallel_time)
    speedup = Speedup(serial_time / parallel_time)
    [one_minus] = [None] if k < 2 else _from_speedups([speedup.value], k)

    idle = tuple([max(0.0, parallel_time - b) for b in busy])
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
    end, the largest end. Only the first m = min(k, n) processors for n chunks
    take part, which is exact: a processor with index >= n is chosen only when
    all n lower ones are busy past the phase start, and that takes n chunks
    already placed.

    The first round needs no heap: when every one of the first m chunks ends
    after ``clock``, chunk j finds processors 0 to j - 2 busy and goes to
    processor j - 1 at ``clock``; the heap of (free time, index) pairs is then
    built once from their ends, and each later chunk costs O(log m). A chunk
    too short to move the clock leaves its processor free at the phase start,
    so the next chunk goes there again: the whole phase then runs on the heap.
    """
    m = min(k, len(chunks))
    ends = [clock + chunk for chunk in islice(chunks, m)]
    if min(ends) > clock:
        placed = list(zip(range(m), repeat(clock), ends))
        free = list(zip(ends, range(m)))
        heapq.heapify(free)
        rest = islice(chunks, m, None)
    else:
        placed = []
        free = [(clock, p) for p in range(m)]  # sorted, so already a heap
        rest = chunks
    for chunk in rest:
        start, p = free[0]
        end = start + chunk
        placed.append((p, start, end))
        heapq.heapreplace(free, (end, p))
    # Each processor's chunks end in order, so the latest free time is the largest end.
    return placed, max(free)[0]


def _span(chunks: tuple[float, ...], k: int) -> float:
    """The end of ``_place(chunks, k, 0.0)``, bit for bit, from a heap of bare free times.

    Each chunk starts at the earliest free time, and which of several processors
    free at that time takes it does not change the free times left after it, so
    the times need no processor index. Every chunk is > 0, so the first m
    chunks end at their own durations.
    """
    free = list(islice(chunks, k))
    heapq.heapify(free)
    for chunk in islice(chunks, k, None):
        heapq.heapreplace(free, free[0] + chunk)
    return max(free)


def _require_finite_times(serial_time: float, parallel_time: float) -> None:
    if not (math.isfinite(serial_time) and math.isfinite(parallel_time)):
        raise InvalidWorkloadError(
            f"workload overflows the time range: serial time {serial_time!r}, "
            f"parallel time {parallel_time!r}"
        )
    if serial_time / parallel_time == 0.0:
        raise InvalidWorkloadError(f"workload speedup underflows to 0: serial time "
                                   f"{serial_time!r}, parallel time {parallel_time!r}")


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
    chunks depends on neither ratio. It is measured once, from time 0, as the
    end of the placement :func:`simulate` makes, over min(processors, chunk
    count) free times; so a sweep's time and memory do not grow with
    ``processors`` beyond the chunk count. Each grid point then costs O(1):
    its parallel time is sequential time + dispatch + span + collect, its
    serial time is sequential time + chunk work, each total added in order.
    The sequential and serial times are computed once per column and the
    dispatch + span + collect part once per row; all the grid's speedups,
    fractions and points are then computed in one pass.

    The grid's times are checked once, at the sweep's longest sequential time
    in every row. Adding non-negative floats rounds monotonically, so if those
    points' parallel and serial times are finite, so are every point's; a nan
    overhead part (an overflowed total times a zero share) fails the same
    check. Only a grid that fails is scanned, in emission order, so the error
    still names the first overflowing point. Values can differ from
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

    span = _span(base.chunks, processors)
    chunk_work = reduce(add, base.chunks, 0.0)
    _require_finite_times(chunk_work, span)
    durations = [p.duration for p in template.phases if isinstance(p, SequentialPhase)]
    sequential_times = [reduce(add, map(seq.__mul__, durations), 0.0) for seq in sequential_ratios]
    serial_times = list(map(chunk_work.__add__, sequential_times))
    # Each row's total * share + span + total * (1 - share), left to right as
    # simulate adds them; float addition and multiplication commute, so the
    # bound methods give the same floats.
    totals = list(map(max_chunk.__mul__, overhead_ratios))
    parallel_parts = list(map(add, map(add, map(dispatch_share.__mul__, totals), repeat(span)),
                              map((1.0 - dispatch_share).__mul__, totals)))

    # Adding to a non-negative float is monotone, so the longest sequential time
    # overflows first; a nan part (inf * 0 overhead share) fails too.
    longest = max(sequential_times, default=0.0)
    if not (math.isfinite(longest + chunk_work)
            and all(map(math.isfinite, map(longest.__add__, parallel_parts)))):
        for ov, parallel_part in zip(overhead_ratios, parallel_parts):
            for seq, seq_time, serial_time in zip(sequential_ratios, sequential_times,
                                                  serial_times):
                if not (math.isfinite(seq_time + parallel_part) and math.isfinite(serial_time)):
                    raise InvalidWorkloadError(
                        f"sweep point overhead={ov!r} sequential={seq!r} overflows the time range"
                    )

    # The grid row-major in C-level maps: each row's part repeated along the
    # row, the sequential and serial times repeated once per row.
    n, rows = len(sequential_ratios), len(overhead_ratios)
    speedups = map(truediv, chain.from_iterable(repeat(serial_times, rows)),
                   map(add, chain.from_iterable(map(repeat, parallel_parts, repeat(n))),
                       chain.from_iterable(repeat(sequential_times, rows))))
    return list(map(tuple.__new__, repeat(SweepPoint), zip(
        chain.from_iterable(map(repeat, overhead_ratios, repeat(n))),
        chain.from_iterable(repeat(sequential_ratios, rows)),
        _from_speedups(speedups, processors))))


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
