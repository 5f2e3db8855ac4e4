"""Tests for the discrete-event workload simulator and the overhead sweep."""

from __future__ import annotations

import io
import json
import math
import sys
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amdahl.core import (
    AlphaEstimate,
    Efficiency,
    EstimationMethod,
    _require_positive,
    alpha_eff_from_speedup,
)
from amdahl.dataset import fixture_path
from amdahl.workload import (
    ParallelPhase,
    SequentialPhase,
    TimelineSegment,
    WorkloadSpec,
    _place,
    _span,
    load_workload,
    simulate,
    sweep_alpha_eff,
)
from amdahl.errors import InvalidTemplateError, InvalidWorkloadError


def classic_spec() -> WorkloadSpec:
    return WorkloadSpec(
        processors=3,
        phases=(
            SequentialPhase(1.5),
            ParallelPhase(chunks=(2.5, 2.5, 2.5)),
            SequentialPhase(1.0),
        ),
    )


def realistic_spec() -> WorkloadSpec:
    return WorkloadSpec(
        processors=3,
        phases=(
            SequentialPhase(1.5),
            ParallelPhase(chunks=(2.5, 2.0, 3.0), dispatch_overhead=0.5, collect_overhead=1.0),
            SequentialPhase(1.0),
        ),
    )


class TestReferenceWorkloads:
    def test_balanced_no_overhead(self):
        result = simulate(classic_spec())
        assert result.serial_time == 10.0
        assert result.parallel_time == 5.0
        assert result.speedup == 2.0
        assert result.alpha_eff is not None
        assert result.alpha_eff.alpha == 0.75
        assert result.per_processor_busy == (5.0, 2.5, 2.5)
        assert result.per_processor_idle == (0.0, 2.5, 2.5)

    def test_balanced_no_overhead_timeline(self):
        result = simulate(classic_spec())
        assert result.timeline == (
            TimelineSegment(0, 0.0, 1.5, "seq1"),
            TimelineSegment(0, 1.5, 4.0, "chunk2.1"),
            TimelineSegment(1, 1.5, 4.0, "chunk2.2"),
            TimelineSegment(2, 1.5, 4.0, "chunk2.3"),
            TimelineSegment(0, 4.0, 5.0, "seq3"),
        )

    def test_skewed_with_overheads(self):
        result = simulate(realistic_spec())
        assert result.serial_time == 10.0
        assert result.parallel_time == 7.0
        assert result.speedup == pytest.approx(10.0 / 7.0, rel=1e-15)
        assert result.alpha_eff is not None
        assert result.alpha_eff.alpha == pytest.approx(0.45, abs=1e-15)

    def test_skewed_with_overheads_timeline(self):
        result = simulate(realistic_spec())
        assert result.timeline == (
            TimelineSegment(0, 0.0, 1.5, "seq1"),
            TimelineSegment(0, 1.5, 2.0, "dispatch2"),
            TimelineSegment(0, 2.0, 4.5, "chunk2.1"),
            TimelineSegment(1, 2.0, 4.0, "chunk2.2"),
            TimelineSegment(2, 2.0, 5.0, "chunk2.3"),
            TimelineSegment(0, 5.0, 6.0, "collect2"),
            TimelineSegment(0, 6.0, 7.0, "seq3"),
        )
        assert result.per_processor_busy == (6.5, 2.0, 3.0)
        assert result.per_processor_idle == (0.5, 5.0, 4.0)

    def test_two_rounds_on_two_processors(self):
        spec = WorkloadSpec(
            processors=2,
            phases=(SequentialPhase(1.0), ParallelPhase(chunks=(1.0, 1.0, 1.0, 1.0))),
        )
        result = simulate(spec)
        assert result.serial_time == 5.0
        assert result.parallel_time == 3.0
        assert result.speedup == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert result.alpha_eff is not None
        assert result.alpha_eff.one_minus_alpha == pytest.approx(0.2, abs=1e-15)
        chunk_segments = [s for s in result.timeline if s.label.startswith("chunk")]
        assert [(s.processor, s.start) for s in chunk_segments] == [
            (0, 1.0), (1, 1.0), (0, 2.0), (1, 2.0),
        ]


class TestSimulatorEdges:
    def test_single_processor_has_no_estimate(self):
        spec = WorkloadSpec(processors=1, phases=(ParallelPhase(chunks=(2.0, 3.0)),))
        result = simulate(spec)
        assert result.parallel_time == 5.0
        assert result.speedup == 1.0
        assert result.alpha_eff is None

    def test_overhead_dominated_run_has_no_estimate(self):
        spec = WorkloadSpec(
            processors=2,
            phases=(ParallelPhase(chunks=(0.1, 0.1), dispatch_overhead=10.0, collect_overhead=10.0),),
        )
        result = simulate(spec)
        assert result.speedup < 1.0
        assert result.alpha_eff is None

    def test_serial_baseline_excludes_overheads(self):
        with_overhead = WorkloadSpec(
            processors=2,
            phases=(ParallelPhase(chunks=(4.0, 4.0), dispatch_overhead=1.0, collect_overhead=1.0),),
        )
        assert simulate(with_overhead).serial_time == 8.0

    def test_overheads_run_on_processor_zero(self):
        result = simulate(
            WorkloadSpec(
                processors=2,
                phases=(ParallelPhase(chunks=(1.0,), dispatch_overhead=0.5, collect_overhead=0.25),),
            )
        )
        labels = {s.label: s.processor for s in result.timeline}
        assert labels["dispatch1"] == 0
        assert labels["collect1"] == 0

    def test_zero_duration_overheads_leave_no_segments(self):
        result = simulate(classic_spec())
        assert all("dispatch" not in s.label and "collect" not in s.label for s in result.timeline)

    def test_speedup_rounded_past_k_is_clamped(self):
        # 0.1 + 0.1 + 0.1 sums to a few ulp above 0.3, so S lands just above k.
        result = simulate(WorkloadSpec(3, (ParallelPhase((0.1, 0.1, 0.1)),)))
        assert result.alpha_eff.one_minus_alpha == 0.0
        assert result.alpha_eff.method is EstimationMethod.SIMULATED

    def test_total_time_beyond_the_float_range_is_rejected(self):
        with pytest.raises(InvalidWorkloadError, match="overflows the time range"):
            simulate(WorkloadSpec(2, (SequentialPhase(1e308), SequentialPhase(1e308))))
        # The makespan fits; only the serial baseline overflows.
        with pytest.raises(InvalidWorkloadError, match="serial time inf"):
            simulate(WorkloadSpec(2, (ParallelPhase((1e308, 1e308)),)))

    def test_speedup_that_underflows_is_rejected(self):
        # 5e-324 / 1e300 rounds to 0, which no speedup can be.
        with pytest.raises(
            InvalidWorkloadError,
            match=r"^workload speedup underflows to 0: serial time 5e-324, parallel time 1e\+300$",
        ):
            simulate(WorkloadSpec(2, [ParallelPhase((5e-324,), 1e300)]))

    def test_ties_go_to_lowest_index(self):
        result = simulate(WorkloadSpec(processors=3, phases=(ParallelPhase(chunks=(1.0, 1.0)),)))
        chunk_segments = [s for s in result.timeline if s.label.startswith("chunk")]
        assert [s.processor for s in chunk_segments] == [0, 1]
        # Processor 2 never runs, so the result keeps no times for it.
        assert len(result.per_processor_busy) == len(result.per_processor_idle) == 2


class TestWorkloadValidation:
    def test_processors_must_be_positive_int(self):
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(processors=0, phases=(SequentialPhase(1.0),))
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(processors=True, phases=(SequentialPhase(1.0),))

    def test_phases_must_be_nonempty_and_typed(self):
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(processors=2, phases=())
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(processors=2, phases=("seq",))

    def test_durations_must_be_positive_finite(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidWorkloadError):
                WorkloadSpec(processors=2, phases=(SequentialPhase(bad),))

    def test_chunks_must_be_positive_and_present(self):
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(processors=2, phases=(ParallelPhase(chunks=()),))
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(processors=2, phases=(ParallelPhase(chunks=(1.0, 0.0)),))
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(
                processors=2,
                phases=(ParallelPhase(chunks=(1.0,), dispatch_overhead=-0.5),),
            )

    def test_integers_beyond_the_float_range_are_rejected(self):
        huge = 10**400
        for phase in (
            SequentialPhase(huge),
            ParallelPhase(chunks=(1.0, huge)),
            ParallelPhase(chunks=(1.0,), collect_overhead=huge),
        ):
            with pytest.raises(InvalidWorkloadError):
                WorkloadSpec(processors=2, phases=(phase,))
        spec = WorkloadSpec(processors=2, phases=(SequentialPhase(10**300),))
        assert simulate(spec).serial_time == 1e300

    @pytest.mark.parametrize(
        "phase, message",
        [
            (SequentialPhase(-1.0),
             "phase 1: sequential duration must be finite and > 0, got -1.0"),
            (ParallelPhase(chunks=()), "phase 1: a parallel phase needs at least one chunk"),
            (ParallelPhase(chunks=(1.0, math.inf)),
             "phase 1: chunk 2 must be finite and > 0, got inf"),
            (ParallelPhase(chunks=(1.0,), dispatch_overhead=math.nan),
             "phase 1: dispatch overhead must be finite and >= 0, got nan"),
            (ParallelPhase(chunks=(1.0,), collect_overhead=-0.5),
             "phase 1: collect overhead must be finite and >= 0, got -0.5"),
            ("seq", "phase 1: unknown phase object 'seq'"),
            (ParallelPhase(chunks=None), "phase 1: a parallel phase needs at least one chunk"),
            # An empty iterator is truthy, and once built a phase simulate could not run.
            (ParallelPhase(chunks=iter(())),
             "phase 1: a parallel phase needs at least one chunk"),
            # The chunks are read once, so the bad one is named from what was read.
            (ParallelPhase(chunks=(c for c in (1.0, -2.0, math.nan))),
             "phase 1: chunk 2 must be finite and > 0, got -2.0"),
            # A numpy array has no single truth value: it is read element by element.
            (ParallelPhase(chunks=np.array([])),
             "phase 1: a parallel phase needs at least one chunk"),
            (ParallelPhase(chunks=5), "phase 1: chunks must be an iterable of numbers, got 5"),
            (ParallelPhase(chunks=2.5),
             "phase 1: chunks must be an iterable of numbers, got 2.5"),
            (ParallelPhase(chunks=0), "phase 1: chunks must be an iterable of numbers, got 0"),
            (ParallelPhase(chunks=10**400),
             "phase 1: chunks must be an iterable of numbers, got a 1329-bit integer"),
        ],
    )
    def test_phase_messages(self, phase, message):
        with pytest.raises(InvalidWorkloadError) as excinfo:
            WorkloadSpec(processors=2, phases=(phase,))
        assert str(excinfo.value) == message

    def test_chunks_are_read_once_from_an_iterator(self):
        spec = WorkloadSpec(2, (ParallelPhase(c for c in (1, 2.0)),))
        assert spec.phases == (ParallelPhase((1.0, 2.0)),)

    @pytest.mark.parametrize("chunks", [[1.0], [1.0, 2.0], [1.0, 2.0, 3.5]])
    def test_numpy_arrays_of_chunks_are_read_element_by_element(self, chunks):
        spec = WorkloadSpec(2, (ParallelPhase(np.array(chunks)),))
        assert spec.phases == (ParallelPhase(tuple(chunks)),)
        assert all(type(c) is float for c in spec.phases[0].chunks)
        bad = np.array(chunks + [-2.0])
        with pytest.raises(InvalidWorkloadError,
                           match=rf"^phase 1: chunk {len(bad)} must be finite and > 0, got "):
            WorkloadSpec(2, (ParallelPhase(bad),))

    def test_processors_beyond_an_index_are_rejected(self):
        # Only counts past sys.maxsize: smaller ones would really be allocated.
        for processors in (sys.maxsize + 1, 10**400):
            with pytest.raises(InvalidWorkloadError, match="^processors must be <= "):
                WorkloadSpec(processors=processors, phases=(SequentialPhase(1.0),))
        assert WorkloadSpec(sys.maxsize, (SequentialPhase(1.0),)).processors == sys.maxsize

    def test_simulate_keeps_only_the_processors_that_can_run(self):
        # Sunway TaihuLight's 10,649,600 cores and the largest count a spec takes:
        # three chunks run on processors 0 to 2, and no other processor is allocated.
        for processors in (10_649_600, sys.maxsize):
            spec = WorkloadSpec(processors, (ParallelPhase((1.0, 2.0, 3.0)),))
            tracemalloc.start()
            try:
                result = simulate(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            assert result.per_processor_busy == (1.0, 2.0, 3.0)
            assert result.per_processor_idle == (2.0, 1.0, 0.0)
            assert result.parallel_time == 3.0
            assert result.alpha_eff.cores == processors


class Float(float):
    pass


def phase_outcome(chunks):
    """The checked phase with the types of its chunks, or the error's type and message."""
    try:
        [phase] = WorkloadSpec(2, [ParallelPhase(chunks)]).phases
    except InvalidWorkloadError as exc:
        return type(exc), str(exc)
    return phase, [type(c) for c in phase.chunks]


def as_subclass(chunks):
    return [Float(c) for c in chunks]


def as_numpy(chunks):
    return [np.float64(c) for c in chunks]


MAX = sys.float_info.max
NAN, INF = math.nan, math.inf


class TestChunkAcceptPath:
    """Exact float chunks with a finite sum pass whole if their smallest passes.

    The guard path must agree.
    """

    @pytest.mark.parametrize("container", [tuple, list, iter])
    @pytest.mark.parametrize("convert", [as_subclass, as_numpy], ids=["subclass", "numpy"])
    @pytest.mark.parametrize(
        "chunks",
        [
            (1.0, 2.0, 3.0),
            (NAN, 1.0, 2.0), (1.0, NAN, 2.0), (1.0, 2.0, NAN),
            (INF, 1.0, 2.0), (1.0, INF, 2.0), (1.0, 2.0, INF),
            (-INF, 1.0), (1.0, -INF),
            (0.0,), (1.0, 0.0), (-0.0,), (1.0, -0.0), (1.0, -1.0),
            (5e-324,), (5e-324, 1.0), (MAX,), (5e-324, MAX),
            (MAX, MAX), (1.0, MAX, 1e308), (MAX, MAX, NAN),
        ],
    )
    def test_boundaries_match_the_guard_path(self, container, convert, chunks):
        exact = phase_outcome(container(chunks))
        assert phase_outcome(container(convert(chunks))) == exact
        if not isinstance(exact[0], type):
            assert exact[1] == [float] * len(chunks)

    @given(st.lists(st.floats(), min_size=1, max_size=12))
    @example([MAX, MAX])
    @example([1.0, NAN, INF])
    def test_random_chunks_match_the_guard_path(self, chunks):
        assert phase_outcome(tuple(chunks)) == phase_outcome(as_subclass(chunks))

    @pytest.mark.parametrize("container", [tuple, list, iter])
    def test_integer_chunks_give_exact_floats(self, container):
        assert phase_outcome(container([1, 2.5, np.int64(3)])) == phase_outcome((1.0, 2.5, 3.0))
        assert phase_outcome(container([2**1023, 1.0])) == phase_outcome((2.0**1023, 1.0))

    @pytest.mark.parametrize(
        "chunks, message",
        [
            ((1.0, 0), "phase 1: chunk 2 must be finite and > 0, got 0"),
            ((True, 1.0), "phase 1: chunk 1 must be finite and > 0, got True"),
            ((1.0, False), "phase 1: chunk 2 must be finite and > 0, got False"),
            ((1.0, 2**1024), "phase 1: chunk 2 must be finite and > 0, got a 1025-bit integer"),
            ((np.float64(1.0), np.float64(NAN)),
             "phase 1: chunk 2 must be finite and > 0, got nan"),
            ((Float(-1.0), 1.0), "phase 1: chunk 1 must be finite and > 0, got -1.0"),
        ],
    )
    def test_other_types_get_the_guard_message(self, chunks, message):
        for container in (tuple, list, iter):
            assert phase_outcome(container(chunks)) == (InvalidWorkloadError, message)

    def test_exact_float_chunks_call_the_guard_once_on_their_smallest(self, monkeypatch):
        calls = []

        def counting(value, name):
            calls.append((value, name))
            return _require_positive(value, name)

        monkeypatch.setattr("amdahl.workload._require_positive", counting)
        WorkloadSpec(2, [ParallelPhase((2.0, 1.0, 3.0)), ParallelPhase([5.0, 4.0])])
        assert calls == [(1.0, "chunk"), (4.0, "chunk")]
        calls.clear()
        WorkloadSpec(2, [ParallelPhase((1.0, 2))])
        assert calls == [(1.0, "chunk"), (2, "chunk")]


@st.composite
def workload_specs(draw):
    processors = draw(st.integers(min_value=1, max_value=6))
    n_phases = draw(st.integers(min_value=1, max_value=4))
    phases = []
    for _ in range(n_phases):
        if draw(st.booleans()):
            phases.append(SequentialPhase(draw(st.integers(min_value=1, max_value=50)) / 4))
        else:
            chunks = draw(
                st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12)
            )
            phases.append(
                ParallelPhase(
                    chunks=tuple(c / 4 for c in chunks),
                    dispatch_overhead=draw(st.integers(min_value=0, max_value=8)) / 4,
                    collect_overhead=draw(st.integers(min_value=0, max_value=8)) / 4,
                )
            )
    return WorkloadSpec(processors=processors, phases=tuple(phases))


class TestSimulatorProperties:
    @given(workload_specs())
    def test_work_and_time_accounting(self, spec):
        result = simulate(spec)
        seq = sum(p.duration for p in spec.phases if isinstance(p, SequentialPhase))
        chunk_work = sum(
            sum(p.chunks) for p in spec.phases if isinstance(p, ParallelPhase)
        )
        overhead = sum(
            p.dispatch_overhead + p.collect_overhead
            for p in spec.phases
            if isinstance(p, ParallelPhase)
        )
        assert result.serial_time == pytest.approx(seq + chunk_work, rel=1e-12)
        assert sum(result.per_processor_busy) == pytest.approx(
            seq + chunk_work + overhead, rel=1e-12
        )
        for busy, idle in zip(result.per_processor_busy, result.per_processor_idle):
            assert busy + idle == pytest.approx(result.parallel_time, rel=1e-12)
            assert idle >= -1e-12

    @given(workload_specs())
    def test_greedy_schedule_respects_bounds(self, spec):
        result = simulate(spec)
        seq = sum(p.duration for p in spec.phases if isinstance(p, SequentialPhase))
        overhead = sum(
            p.dispatch_overhead + p.collect_overhead
            for p in spec.phases
            if isinstance(p, ParallelPhase)
        )
        lower = seq + overhead
        for p in spec.phases:
            if isinstance(p, ParallelPhase):
                lower += max(max(p.chunks), sum(p.chunks) / spec.processors)
        assert result.parallel_time >= lower - 1e-9
        assert result.parallel_time <= result.serial_time + overhead + 1e-9

    @given(workload_specs())
    def test_timeline_segments_never_overlap(self, spec):
        result = simulate(spec)
        per_processor: dict[int, list[TimelineSegment]] = {}
        for segment in result.timeline:
            assert segment.end > segment.start
            per_processor.setdefault(segment.processor, []).append(segment)
        for segments in per_processor.values():
            ordered = sorted(segments, key=lambda s: s.start)
            for a, b in zip(ordered, ordered[1:]):
                assert a.end <= b.start + 1e-12

    @given(
        st.integers(min_value=2, max_value=64),
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
        st.sampled_from([0.5, 1.0, 2.0, 8.0]),
    )
    def test_ideal_case_matches_closed_form(self, processors, chunk, seq):
        spec = WorkloadSpec(
            processors=processors,
            phases=(SequentialPhase(seq), ParallelPhase(chunks=(chunk,) * processors)),
        )
        result = simulate(spec)
        parallel_work = chunk * processors
        expected_alpha = parallel_work / (seq + parallel_work)
        assert result.alpha_eff is not None
        assert result.alpha_eff.alpha == pytest.approx(expected_alpha, rel=1e-12)

    def test_ideal_dyadic_case_is_exact(self):
        # Serial 8, parallel 4: every intermediate value is a dyadic rational,
        # so the recovered fraction is bit-exact.
        spec = WorkloadSpec(
            processors=3,
            phases=(SequentialPhase(2.0), ParallelPhase(chunks=(2.0, 2.0, 2.0))),
        )
        result = simulate(spec)
        assert result.speedup == 2.0
        assert result.alpha_eff is not None
        assert result.alpha_eff.one_minus_alpha == 0.25
        assert result.alpha_eff.alpha == 0.75


def linear_scan_schedule(spec: WorkloadSpec):
    """The greedy schedule placed by scanning every processor for each chunk.

    Returns the timeline, each processor's busy time and the serial time. Both
    times add their floats one at a time in input order, as simulate does, and
    not with sum(), which compensates from Python 3.12 on.
    """
    k = spec.processors
    clock = 0.0
    segments = []
    busy = [0.0] * k
    serial_seq = serial_chunks = 0.0
    for index, phase in enumerate(spec.phases, 1):
        if isinstance(phase, SequentialPhase):
            segments.append(TimelineSegment(0, clock, clock + phase.duration, f"seq{index}"))
            clock += phase.duration
            busy[0] += phase.duration
            serial_seq += phase.duration
            continue
        if phase.dispatch_overhead > 0.0:
            end = clock + phase.dispatch_overhead
            segments.append(TimelineSegment(0, clock, end, f"dispatch{index}"))
            busy[0] += phase.dispatch_overhead
            clock = end
        free = [clock] * k
        for j, chunk in enumerate(phase.chunks, 1):
            p = min(range(k), key=free.__getitem__)
            segments.append(TimelineSegment(p, free[p], free[p] + chunk, f"chunk{index}.{j}"))
            free[p] += chunk
            busy[p] += chunk
            serial_chunks += chunk
        clock = max(free)
        if phase.collect_overhead > 0.0:
            end = clock + phase.collect_overhead
            segments.append(TimelineSegment(0, clock, end, f"collect{index}"))
            busy[0] += phase.collect_overhead
            clock = end
    return segments, busy, serial_seq + serial_chunks


durations = st.one_of(
    st.integers(min_value=1, max_value=8).map(lambda q: q / 4),
    st.floats(min_value=0.01, max_value=100.0),
)


@st.composite
def wide_specs(draw):
    """Up to 64 processors and 80 chunks a phase, so k > n, k < n and exact ties all occur."""
    processors = draw(st.integers(min_value=1, max_value=64))
    phases = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            phases.append(SequentialPhase(draw(durations)))
        else:
            phases.append(
                ParallelPhase(
                    chunks=tuple(draw(st.lists(durations, min_size=1, max_size=80))),
                    dispatch_overhead=draw(st.sampled_from([0.0, 0.5])),
                    collect_overhead=draw(st.sampled_from([0.0, 0.25])),
                )
            )
    return WorkloadSpec(processors=processors, phases=tuple(phases))


class TestHeapPlacement:
    @given(wide_specs())
    @example(WorkloadSpec(5, (ParallelPhase(chunks=(1.0, 1.0)),)))
    @example(WorkloadSpec(4, (ParallelPhase(chunks=(0.5,) * 13),)))
    @example(WorkloadSpec(3, (ParallelPhase(chunks=(2.0, 1.0, 1.0, 1.0, 1.0, 2.0)),)))
    @example(WorkloadSpec(4, (SequentialPhase(1e20), ParallelPhase(chunks=(1e-5,) * 3))))
    # The first round: only some of the first m chunks move a late clock, so the
    # whole phase runs on the heap (1e16 + 1.0 rounds to 1e16).
    @example(WorkloadSpec(3, (SequentialPhase(1e16), ParallelPhase(chunks=(1.0, 4.0, 1.0)))))
    @example(WorkloadSpec(2, (SequentialPhase(1e16), ParallelPhase(chunks=(4.0, 1.0, 2.0, 1.0)))))
    @example(WorkloadSpec(3, (SequentialPhase(1e16), ParallelPhase(chunks=(4.0, 4.0, 1.0, 2.0)))))
    # ... and n < k, n = k and n > k chunks on an idle machine.
    @example(WorkloadSpec(4, (ParallelPhase(chunks=(2.0, 1.0)),)))
    @example(WorkloadSpec(3, (ParallelPhase(chunks=(3.0, 1.0, 2.0)),)))
    @example(WorkloadSpec(2, (ParallelPhase(chunks=(3.0, 1.0, 2.0, 0.5, 1.5)),)))
    def test_matches_linear_scan_placement(self, spec):
        result = simulate(spec)
        timeline, busy, serial_time = linear_scan_schedule(spec)
        parallel_time = max(segment.end for segment in timeline)
        assert result.timeline == tuple(timeline)
        assert result.parallel_time == parallel_time
        # Exact: the accounting adds its floats in one fixed order.
        assert result.serial_time == serial_time
        idle = [max(0.0, parallel_time - b) for b in busy]
        # The result keeps the first m processors; every one past them never ran.
        m = len(result.per_processor_busy)
        assert result.per_processor_busy == tuple(busy[:m])
        assert result.per_processor_idle == tuple(idle[:m])
        assert busy[m:] == [0.0] * (len(busy) - m)
        assert idle[m:] == [parallel_time] * (len(busy) - m)

    def test_chunks_too_short_to_move_a_late_clock_share_a_processor(self):
        # 1e20 + 1e-5 rounds to 1e20, so processor 0 stays free at the phase
        # start and, with the lowest index, takes every chunk.
        spec = WorkloadSpec(4, (SequentialPhase(1e20), ParallelPhase(chunks=(1e-5,) * 3)))
        chunks = simulate(spec).timeline[1:]
        assert [(s.processor, s.start, s.end) for s in chunks] == [(0, 1e20, 1e20)] * 3


# Few distinct values, so many chunks tie, plus the extremes of the chunk range.
span_chunks = st.lists(
    st.one_of(st.sampled_from([0.5, 1.0, 2.0, 5e-324, 1e300]),
              st.floats(min_value=5e-324, max_value=1e300)),
    min_size=1, max_size=40,
)


class TestSpan:
    @given(span_chunks, st.one_of(st.integers(min_value=1, max_value=48), st.just(sys.maxsize)))
    @example([1.0] * 7, 3)
    @example([2.0, 1.0, 1.0, 1.0, 1.0, 2.0], 3)
    @example([5e-324, 1e300, 5e-324, 5e-324], 2)
    @example([1e300] * 5, 8)
    @example([5e-324] * 9, 1)
    def test_equals_the_end_of_the_placement(self, chunks, k):
        chunks = tuple(chunks)
        assert _span(chunks, k).hex() == _place(chunks, k, 0.0)[1].hex()


def rescaled(template: WorkloadSpec, processors: int, overhead: float, sequential: float):
    """One sweep grid point built as the sweep documents it, for simulate to run."""
    base = next(p for p in template.phases if isinstance(p, ParallelPhase))
    base_total = base.dispatch_overhead + base.collect_overhead
    share = base.dispatch_overhead / base_total if base_total > 0.0 else 0.5
    total = overhead * max(base.chunks)
    phases = []
    for phase in template.phases:
        if isinstance(phase, ParallelPhase):
            phases.append(ParallelPhase(base.chunks, total * share, total * (1.0 - share)))
        elif phase.duration * sequential > 0.0:  # a duration that underflows adds nothing
            phases.append(SequentialPhase(phase.duration * sequential))
    return WorkloadSpec(processors, tuple(phases))


def simulated_point(template, processors, overhead, sequential):
    result = simulate(rescaled(template, processors, overhead, sequential))
    return None if result.alpha_eff is None else result.alpha_eff.one_minus_alpha


@st.composite
def sweep_cases(draw, duration, overheads, ratio):
    """A one-parallel-phase template, a processor count and a small grid."""
    dispatch, collect = draw(overheads)
    phases = [
        ParallelPhase(
            chunks=tuple(draw(st.lists(duration, min_size=1, max_size=24))),
            dispatch_overhead=dispatch,
            collect_overhead=collect,
        )
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        phases.insert(
            draw(st.integers(min_value=0, max_value=len(phases))), SequentialPhase(draw(duration))
        )
    template = WorkloadSpec(processors=2, phases=tuple(phases))
    processors = draw(st.integers(min_value=2, max_value=16))
    grid = st.lists(ratio, min_size=1, max_size=4)
    return template, processors, draw(grid), draw(grid)


# Multiples of 1/4, and template overheads summing to a power of two so the
# dispatch share is dyadic too: every sum and product is exact.
exact_cases = sweep_cases(
    st.integers(min_value=1, max_value=40).map(lambda q: q / 4),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]).flatmap(
        lambda total: st.integers(min_value=0, max_value=int(4 * total)).map(
            lambda q: (q / 4, total - q / 4)
        )
    ),
    st.integers(min_value=0, max_value=32).map(lambda q: q / 4),
)
overhead = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))
float_cases = sweep_cases(
    st.floats(min_value=0.01, max_value=100.0),
    st.tuples(overhead, overhead),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
)


class TestSweepMatchesSimulation:
    @given(exact_cases)
    def test_exact_grid_is_bit_identical(self, case):
        template, processors, overheads, sequentials = case
        points = sweep_alpha_eff(processors, template, overheads, sequentials)
        assert [p.one_minus_alpha_eff for p in points] == [
            simulated_point(template, processors, o, s) for o in overheads for s in sequentials
        ]

    @given(float_cases)
    def test_float_grid_agrees_to_rounding(self, case):
        template, processors, overheads, sequentials = case
        points = sweep_alpha_eff(processors, template, overheads, sequentials)
        expected = [
            simulated_point(template, processors, o, s) for o in overheads for s in sequentials
        ]
        for point, want in zip(points, expected):
            got = point.one_minus_alpha_eff
            if got is None or want is None:
                # Only a speedup rounded across exactly 1 may differ; the
                # other side then reads a fully serial run.
                assert got == want or pytest.approx(1.0, rel=1e-12) in (got, want)
            else:
                # Near 0 the fraction is a difference of nearly equal times,
                # so the bound there is absolute.
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def checked_points(template, processors, overheads, sequentials):
    """The sweep's grid, each point inverted by the checked public function.

    The times follow the sweep's own formulas, from the span that simulate
    measures for the parallel phase alone on an idle machine.
    """
    base = next(p for p in template.phases if isinstance(p, ParallelPhase))
    # Processors beyond the chunk count never get a chunk (see _place), and
    # simulate runs at most 10**6 of them.
    span = simulate(WorkloadSpec(min(processors, len(base.chunks)),
                                 (ParallelPhase(base.chunks),))).parallel_time
    base_total = base.dispatch_overhead + base.collect_overhead
    share = base.dispatch_overhead / base_total if base_total > 0.0 else 0.5
    durations = [p.duration for p in template.phases if isinstance(p, SequentialPhase)]
    points = []
    for o in overheads:
        total = o * max(base.chunks)
        for seq in sequentials:
            # Added in order, as simulate adds: sum() compensates from Python 3.12 on.
            seq_time = reduce(add, [d * seq for d in durations], 0.0)
            parallel_part = total * share + span + total * (1.0 - share)
            s = (seq_time + reduce(add, base.chunks, 0.0)) / (seq_time + parallel_part)
            points.append(
                None if s < 1.0
                else alpha_eff_from_speedup(min(s, float(processors)), processors).one_minus_alpha
            )
    return points


# Counts from 2**53 - 1 up, where float(k) may round and _from_speedups takes k - S in parts.
huge_counts = st.sampled_from([2**53 - 1, 2**53 + 1, 10**17, sys.maxsize])


class TestSweepMatchesCheckedInversion:
    @given(st.one_of(exact_cases, float_cases), st.one_of(st.none(), huge_counts))
    def test_points_equal_the_public_inversion(self, case, huge):
        template, processors, overheads, sequentials = case
        processors = huge or processors
        points = sweep_alpha_eff(processors, template, overheads, sequentials)
        expected = checked_points(template, processors, overheads, sequentials)
        assert [repr(p.one_minus_alpha_eff) for p in points] == [repr(x) for x in expected]

    def test_grid_points_build_no_value_objects(self, monkeypatch):
        built = []
        for cls in (AlphaEstimate, Efficiency):
            original = cls.__new__

            def counting(cls_, *args, _original=original, **kwargs):
                built.append(cls_.__name__)
                return _original(cls_, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", counting)
        points = sweep_alpha_eff(8, realistic_spec(), [0.1 * i for i in range(10)], [0.0, 0.5, 2.0])
        assert len(points) == 30 and built == []
        simulate(realistic_spec())
        assert built == ["AlphaEstimate"]  # the result's own, once per run


class TestSweep:
    def test_requires_single_parallel_phase(self):
        no_parallel = WorkloadSpec(processors=2, phases=(SequentialPhase(1.0),))
        with pytest.raises(InvalidTemplateError):
            sweep_alpha_eff(2, no_parallel, [0.0], [1.0])
        two_parallel = WorkloadSpec(
            processors=2,
            phases=(ParallelPhase(chunks=(1.0,)), ParallelPhase(chunks=(1.0,))),
        )
        with pytest.raises(InvalidTemplateError):
            sweep_alpha_eff(2, two_parallel, [0.0], [1.0])

    def test_requires_multiple_processors(self):
        with pytest.raises(ValueError):
            sweep_alpha_eff(1, realistic_spec(), [0.0], [1.0])

    def test_rejects_negative_ratios(self):
        with pytest.raises(ValueError):
            sweep_alpha_eff(3, realistic_spec(), [-0.1], [1.0])
        with pytest.raises(ValueError):
            sweep_alpha_eff(3, realistic_spec(), [0.0], [-1.0])
        with pytest.raises(ValueError):
            sweep_alpha_eff(3, realistic_spec(), [0.0], [10**400])
        with pytest.raises(ValueError,
                           match=r"^sequential ratio 1 must be finite and >= 0, got -0\.1$"):
            sweep_alpha_eff(3, realistic_spec(), [0.0], [-0.1])

    def test_numpy_count_gives_plain_floats(self):
        # The sweep once computed on the numpy count and returned np.float64 fractions.
        template = WorkloadSpec(2, (ParallelPhase((1.0, 2.0)),))
        [point] = sweep_alpha_eff(np.int64(2), template, [0.0], [0.0])
        assert type(point.one_minus_alpha_eff) is float
        assert point.one_minus_alpha_eff == 0.3333333333333333

    def test_wide_sweep_places_each_chunk_on_its_own_processor(self):
        # Computed by placing the three chunks among all 10**5 processors.
        expected = [float.fromhex(h) for h in (
            "0x1.999806f15aa5ep-2", "0x1.f15dbccedffbfp-2", "0x1.47ad9baece64fp-1",
            "0x1.c28de458bb015p-2", "0x1.0a3ccf93bddc0p-1", "0x1.53f75e1a9e807p-1",
            "0x1.9999567d8f1bap-1", "0x1.a83a4a227aa9fp-1", "0x1.c28f33e4ef76fp-1",
        )]
        tracemalloc.start()
        try:
            points = sweep_alpha_eff(10**5, realistic_spec(), [0.0, 0.1, 1.0], [0.0, 0.5, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [p.one_minus_alpha_eff for p in points] == expected
        assert peak < 2**20

    def test_processors_beyond_an_index_are_rejected(self):
        with pytest.raises(InvalidWorkloadError, match="^processors must be <= "):
            sweep_alpha_eff(10**20, realistic_spec(), [0.0], [1.0])

    def test_point_beyond_the_float_range_is_rejected(self):
        with pytest.raises(
            InvalidWorkloadError,
            match=r"^sweep point overhead=0\.0 sequential=1e\+308 overflows the time range$",
        ):
            sweep_alpha_eff(3, realistic_spec(), [0.0, 1e308], [0.0, 1e308])
        with pytest.raises(InvalidWorkloadError, match=r"overhead=1e\+308 sequential=0\.0"):
            sweep_alpha_eff(3, realistic_spec(), [1e308], [0.0])

    def test_first_overflowing_point_in_emission_order_is_named(self):
        template = WorkloadSpec(2, (SequentialPhase(4.0), ParallelPhase((1.0, 2.0))))
        for sequentials in ([1e308, 0.0], [0.0, 1e308]):
            with pytest.raises(
                InvalidWorkloadError,
                match=r"^sweep point overhead=0\.0 sequential=1e\+308 overflows the time range$",
            ):
                sweep_alpha_eff(3, template, [0.0], sequentials)

    def test_nan_overhead_share_is_rejected(self):
        # No dispatch share: the overflowed total overhead times 0 is nan.
        template = WorkloadSpec(2, (SequentialPhase(1.0), ParallelPhase((2.0, 2.0), 0.0, 0.5)))
        with pytest.raises(
            InvalidWorkloadError,
            match=r"^sweep point overhead=1e\+308 sequential=2\.0 overflows the time range$",
        ):
            sweep_alpha_eff(3, template, [1.0, 1e308], [2.0, 0.0])

    def test_empty_ratio_lists_give_no_points(self):
        assert sweep_alpha_eff(3, realistic_spec(), [], [0.0, 1.0]) == []
        assert sweep_alpha_eff(3, realistic_spec(), [0.0, 1e308], []) == []
        # No point exists to overflow: 1e308 overhead is inf, 1e308 sequential work too.
        assert sweep_alpha_eff(3, realistic_spec(), [1e308], []) == []
        assert sweep_alpha_eff(3, realistic_spec(), [], [1e308]) == []
        assert sweep_alpha_eff(3, realistic_spec(), [], []) == []

    def test_only_the_last_row_overflowing_is_named_by_its_first_point(self):
        with pytest.raises(
            InvalidWorkloadError,
            match=r"^sweep point overhead=1e\+308 sequential=0\.5 overflows the time range$",
        ):
            sweep_alpha_eff(3, realistic_spec(), [0.0, 0.5, 1e308], [0.5, 0.0, 2.0])

    def test_working_point(self):
        points = sweep_alpha_eff(3, realistic_spec(), [0.5], [1.0])
        assert len(points) == 1
        point = points[0]
        assert point.overhead_ratio == 0.5
        assert point.sequential_ratio == 1.0
        assert point.one_minus_alpha_eff == pytest.approx(0.55, rel=1e-12)

    def test_ideal_corner_recovers_parallel_fraction(self):
        template = WorkloadSpec(
            processors=3,
            phases=(SequentialPhase(1.0), ParallelPhase(chunks=(2.0, 2.0, 2.0))),
        )
        ideal = sweep_alpha_eff(3, template, [0.0], [0.0])[0]
        assert ideal.one_minus_alpha_eff == 0.0
        scaled = sweep_alpha_eff(3, template, [0.0], [1.0])[0]
        assert scaled.one_minus_alpha_eff is not None
        expected = 1.0 - 6.0 / 7.0
        assert scaled.one_minus_alpha_eff == pytest.approx(expected, rel=1e-12)

    def test_grid_order_and_monotonicity(self):
        overheads = [0.0, 0.25, 0.5]
        sequentials = [0.0, 0.5, 1.0]
        points = sweep_alpha_eff(3, realistic_spec(), overheads, sequentials)
        assert [(p.overhead_ratio, p.sequential_ratio) for p in points] == [
            (o, s) for o in overheads for s in sequentials
        ]
        # More overhead or more sequential work never improves the estimate.
        by_key = {
            (p.overhead_ratio, p.sequential_ratio): p.one_minus_alpha_eff for p in points
        }
        for o in overheads:
            for s_lo, s_hi in zip(sequentials, sequentials[1:]):
                assert by_key[(o, s_lo)] <= by_key[(o, s_hi)] + 1e-12
        for s in sequentials:
            for o_lo, o_hi in zip(overheads, overheads[1:]):
                assert by_key[(o_lo, s)] <= by_key[(o_hi, s)] + 1e-12

    def test_overhead_split_follows_template(self):
        template = WorkloadSpec(
            processors=2,
            phases=(ParallelPhase(chunks=(2.0, 2.0), dispatch_overhead=1.0, collect_overhead=3.0),),
        )
        point = sweep_alpha_eff(2, template, [1.0], [0.0])[0]
        # Total overhead is the ratio times the largest chunk, split 1:3.
        spec = WorkloadSpec(
            processors=2,
            phases=(ParallelPhase(chunks=(2.0, 2.0), dispatch_overhead=0.5, collect_overhead=1.5),),
        )
        expected = simulate(spec)
        assert expected.alpha_eff is not None
        assert point.one_minus_alpha_eff == pytest.approx(
            expected.alpha_eff.one_minus_alpha, rel=1e-12
        )


class TestLoadWorkload:
    def test_parses_document(self):
        doc = {
            "processors": 3,
            "phases": [
                {"type": "sequential", "duration": 1.5},
                {
                    "type": "parallel",
                    "chunks": [2.5, 2.0, 3.0],
                    "dispatch": 0.5,
                    "collect": 1.0,
                },
                {"type": "sequential", "duration": 1},
            ],
        }
        assert load_workload(io.StringIO(json.dumps(doc))) == realistic_spec()

    def test_packaged_fixtures_parse(self):
        with open(fixture_path("workload_realistic.json"), encoding="utf-8") as fh:
            assert load_workload(fh) == realistic_spec()
        with open(fixture_path("workload_classic.json"), encoding="utf-8") as fh:
            assert load_workload(fh) == classic_spec()

    def test_overheads_default_to_zero(self):
        doc = {
            "processors": 2,
            "phases": [{"type": "parallel", "chunks": [1.0, 2.0]}],
        }
        spec = load_workload(io.StringIO(json.dumps(doc)))
        phase = spec.phases[0]
        assert isinstance(phase, ParallelPhase)
        assert phase.dispatch_overhead == 0.0
        assert phase.collect_overhead == 0.0

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2, 3]",
            '{"phases": []}',
            '{"processors": 2}',
            '{"processors": 2, "phases": []}',
            '{"processors": true, "phases": [{"type": "sequential", "duration": 1}]}',
            '{"processors": 2, "phases": [{"type": "mystery", "duration": 1}]}',
            '{"processors": 2, "phases": [{"type": "sequential"}]}',
            '{"processors": 2, "phases": [{"type": "sequential", "duration": "fast"}]}',
            '{"processors": 2, "phases": [{"type": "sequential", "duration": NaN}]}',
            '{"processors": 2, "phases": [{"type": "parallel", "chunks": []}]}',
            '{"processors": 2, "phases": [{"type": "parallel", "chunks": [1, -2]}]}',
            '{"processors": 2, "phases": [{"type": "parallel", "chunks": [1], "dispatch": -1}]}',
            '{"processors": 2, "phases": [{"type": "sequential", "duration": 1%s}]}' % ("0" * 400),
            '{"processors": 2, "phases": [{"type": "parallel", "chunks": [-1%s]}]}' % ("0" * 400),
        ],
    )
    def test_rejects_malformed_documents(self, text):
        with pytest.raises(InvalidWorkloadError):
            load_workload(io.StringIO(text))

    @pytest.mark.parametrize(
        ("doc", "message"),
        [
            ({"processors": "4", "phases": [{"type": "sequential", "duration": 1}]},
             "processors must be an integer, got '4'"),
            ({"phases": [{"type": "sequential", "duration": 1}]},
             "processors must be an integer, got None"),
            ({"processors": 2, "phases": []}, "a workload needs at least one phase"),
            # the document's shape is read before the spec's rules apply
            ({"processors": "4", "phases": [{"type": "mystery"}]},
             "phase 1: 'type' must be 'sequential' or 'parallel', got 'mystery'"),
        ],
        ids=["processors-string", "processors-missing", "no-phases", "phase-before-processors"],
    )
    def test_spec_rules_are_reported_by_the_spec(self, doc, message):
        with pytest.raises(InvalidWorkloadError) as excinfo:
            load_workload(io.StringIO(json.dumps(doc)))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        ("field", "bad"),
        [
            pytest.param(field, bad, id=f"{field}-{name}")
            for field in ("duration", "chunk", "dispatch", "collect")
            for name, bad in [
                ("string", "1"), ("null", None), ("true", True), ("NaN", math.nan),
                ("Infinity", math.inf), ("-Infinity", -math.inf), ("-1", -1), ("0", 0),
                ("401-digits", 10**400),
            ]
            if not (bad == 0 and field in ("dispatch", "collect"))  # a zero overhead is valid
        ],
    )
    def test_a_bad_value_gets_the_message_of_the_spec(self, field, bad):
        # The loader passes every value on unchecked, so the file and the library
        # name one bad value in one way.
        item, phase = {
            "duration": ({"type": "sequential", "duration": bad}, SequentialPhase(bad)),
            "chunk": ({"type": "parallel", "chunks": [1.0, bad]}, ParallelPhase((1.0, bad))),
            "dispatch": ({"type": "parallel", "chunks": [1.0], "dispatch": bad},
                         ParallelPhase((1.0,), bad)),
            "collect": ({"type": "parallel", "chunks": [1.0], "collect": bad},
                        ParallelPhase((1.0,), 0.0, bad)),
        }[field]
        text = json.dumps({"processors": 2, "phases": [{"type": "sequential", "duration": 1},
                                                       item]})
        with pytest.raises(InvalidWorkloadError) as from_file:
            load_workload(io.StringIO(text))
        with pytest.raises(InvalidWorkloadError) as from_spec:
            WorkloadSpec(2, (SequentialPhase(1.0), phase))
        assert str(from_file.value) == str(from_spec.value)
        assert str(from_file.value).startswith(
            {"duration": "phase 2: sequential duration must be finite and > 0, got ",
             "chunk": "phase 2: chunk 2 must be finite and > 0, got ",
             "dispatch": "phase 2: dispatch overhead must be finite and >= 0, got ",
             "collect": "phase 2: collect overhead must be finite and >= 0, got "}[field]
        )

    @pytest.mark.parametrize(
        ("doc", "message"),
        [
            ({"processors": 0, "phases": [{"type": "sequential", "duration": -1}]},
             "processors must be >= 1, got 0"),
            ({"processors": 0, "phases": [{"type": "sequential", "duration": 1},
                                          {"type": "parallel", "chunks": ["x"]}]},
             "processors must be >= 1, got 0"),
            ({"processors": 2, "phases": [{"type": "sequential", "duration": -1},
                                          {"type": "sequential", "duration": "x"}]},
             "phase 1: sequential duration must be finite and > 0, got -1"),
            ({"processors": 2, "phases": [{"type": "parallel", "chunks": [1, 0, "x"]}]},
             "phase 1: chunk 2 must be finite and > 0, got 0"),
            ({"processors": 2, "phases": [{"type": "parallel", "chunks": [1], "dispatch": -1,
                                           "collect": "x"}]},
             "phase 1: dispatch overhead must be finite and >= 0, got -1"),
            ({"processors": 2, "phases": [{"type": "parallel", "chunks": []}]},
             "phase 1: a parallel phase needs at least one chunk"),
            # the shape of every phase is read before any value is checked
            ({"processors": 0, "phases": [{"type": "sequential", "duration": -1},
                                          {"type": "parallel", "chunks": 3}]},
             "phase 2: 'chunks' must be a non-empty array"),
        ],
        ids=["processors-first", "processors-before-a-non-number", "phases-in-file-order",
             "chunks-in-order", "dispatch-before-collect", "no-chunks", "shape-first"],
    )
    def test_bad_values_are_reported_in_order(self, doc, message):
        with pytest.raises(InvalidWorkloadError) as excinfo:
            load_workload(io.StringIO(json.dumps(doc)))
        assert str(excinfo.value) == message

    def test_processors_beyond_an_index_are_rejected(self):
        text = '{"processors": 1%s, "phases": [{"type": "sequential", "duration": 1}]}' % (
            "0" * 400
        )
        with pytest.raises(InvalidWorkloadError, match="^processors must be <= "):
            load_workload(io.StringIO(text))

    def test_nesting_too_deep_to_read_is_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(InvalidWorkloadError) as excinfo:
                load_workload(fh)
        assert str(excinfo.value) == "workload file nests its arrays or objects too deeply"

    def test_integer_too_long_to_read_is_rejected(self):
        text = '{"processors": 2, "phases": [{"type": "sequential", "duration": 1%s}]}' % (
            "0" * 5000
        )
        with pytest.raises(InvalidWorkloadError, match="^a number in the workload file"):
            load_workload(io.StringIO(text))
