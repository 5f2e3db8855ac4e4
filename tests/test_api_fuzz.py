"""Fuzz of the library API: every public function and checked value type, on any number.

Each example calls one entry of ``amdahl.__all__`` with every numeric argument
drawn from ints of any size, subnormal, huge, infinite and nan floats, numpy
ints, floats and int arrays, bools, None and strings; the other arguments are
valid (an enum member, a stream, a list of records). The call must return plain
ints and finite plain floats, no numpy scalar, or raise a ``ValueError``
subclass. Any warning is an error, so a numpy ``RuntimeWarning`` fails the
call, as does an ``OverflowError``, ``ZeroDivisionError`` or ``TypeError``.

Two more entries build inputs that pass the checks, a sweep template with one
parallel phase and a budget below the run's cycles, so that most of their calls
reach the arithmetic behind them.

The one float a result may hold as inf is ``Efficiency.inverse_excess``, 1/E - 1,
which overflows for an efficiency below about 5.6e-309.

Ints that could size an allocation are drawn at most 64 or above 10**6. A grid
of more than 10**6 points is rejected; a simulation keeps only as many
processors as its widest phase has chunks, so it runs at any drawn count.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amdahl
from amdahl import (
    AlphaEstimate,
    Architecture,
    Benchmark,
    ChampionCriterion,
    ContributionBudget,
    Efficiency,
    EstimationMethod,
    MachineRecord,
    ParallelPhase,
    ScalingScenario,
    SequentialPhase,
    Speedup,
    WorkloadSpec,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    alpha_from_two_efficiencies,
    alpha_from_two_timings,
    bounds,
    derive,
    efficiency_from_alpha,
    fit_semilog,
    geometric_grid,
    load_workload,
    max_speedup,
    parse_records,
    project_curve,
    required_one_minus_alpha,
    saturation_rmax,
    select_champions,
    simulate,
    speedup_from_alpha,
    sweep_alpha_eff,
    whatif,
    write_records,
    yearly_mean_efficiency,
)
from amdahl.projection import SPEED_OF_LIGHT_M_PER_S

EDGE_FLOATS = (
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 2.0, 1e300, 1e308,
    1.7976931348623157e308, -1.0, math.inf, -math.inf, math.nan,
)
# At most 2**12000, so that str() of every drawn int stays under its 4300-digit limit.
BIG = 2**12000
ints = st.one_of(
    st.integers(min_value=-3, max_value=64),
    st.integers(min_value=10**6 + 1, max_value=BIG),
    st.integers(min_value=-BIG, max_value=-1),
)
floats = st.one_of(
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(EDGE_FLOATS),
)
numbers = st.one_of(
    ints,
    floats,
    st.one_of(
        st.integers(min_value=-3, max_value=64),
        st.integers(min_value=10**6 + 1, max_value=2**63 - 1),
    ).map(np.int64),
    floats.map(np.float64),
    # Integer arrays: a 0-d one reads as an int, one of several elements is no number.
    st.integers(min_value=-3, max_value=64).map(np.array),
    st.lists(st.integers(min_value=-3, max_value=64), min_size=2, max_size=3).map(np.array),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)


def like(valid: st.SearchStrategy) -> st.SearchStrategy:
    """Seven times in eight a value of the argument's own kind, plain or numpy; else any number.

    Many calls then get past their checks and run the code behind them. (one_of
    would pick among the branches of both strategies, most of them from numbers.)
    """
    return st.integers(min_value=0, max_value=7).flatmap(lambda i: valid if i else numbers)


def plain_or_numpy(values: st.SearchStrategy, numpy_type: type) -> st.SearchStrategy:
    return st.one_of(values, values.map(numpy_type))


F = like(plain_or_numpy(st.floats(min_value=0.0, max_value=1.0), np.float64))  # fractions
C = like(st.one_of(  # counts
    plain_or_numpy(st.integers(min_value=1, max_value=64), np.int64),
    st.integers(min_value=10**6 + 1, max_value=BIG),
))
P = like(st.one_of(  # positive numbers
    plain_or_numpy(st.floats(min_value=5e-324, max_value=1.7976931348623157e308), np.float64),
    plain_or_numpy(st.sampled_from([x for x in EDGE_FLOATS if x > 0.0]), np.float64),
    st.integers(min_value=1, max_value=2**1023),
))
N = numbers
few_positives = st.lists(P, min_size=1, max_size=3)

RECORDS = [
    MachineRecord(2016, 2, "B", Architecture.CLUSTER, 8, 3.0, 4.0, Benchmark.HPL),
    MachineRecord(2016, 1, "A", Architecture.MPP, 4, 1.0, 2.0, Benchmark.HPL),
    MachineRecord(2017, 1, "C", Architecture.OTHER, 100, 9.0, 10.0, Benchmark.HPCG),
]
HEADER = "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"


def record(year, rank, cores, rmax, rpeak) -> MachineRecord:
    return MachineRecord(year, rank, "x", Architecture.MPP, cores, rmax, rpeak, Benchmark.HPL)


def derive_record(year, rank, cores, rmax, rpeak):
    return derive(record(year, rank, cores, rmax, rpeak))


def write_and_parse(year, rank, cores, rmax, rpeak, name):
    r = MachineRecord(year, rank, name, Architecture.MPP, cores, rmax, rpeak, Benchmark.HPL)
    buffer = io.StringIO()
    write_records([r], buffer, comment="fuzz", derived=True)
    again = parse_records(io.StringIO(buffer.getvalue()))
    assert again == [r], buffer.getvalue()
    return again


def parse_row(year, rank, cores, rmax, rpeak):
    return parse_records(io.StringIO(f"{HEADER}{year},{rank},x,MPP,{cores},{rmax},{rpeak},HPL\n"))


def phase(kind, numbers):
    """A sequential phase of the first number, or a parallel one of chunks and two overheads."""
    if kind:
        return SequentialPhase(numbers[0])
    return ParallelPhase(tuple(numbers), *numbers[1:3])


phases = st.lists(st.builds(phase, st.booleans(), few_positives), min_size=1, max_size=3)


def simulate_spec(processors, phases):
    return simulate(WorkloadSpec(processors, phases))


def sweep(processors, phases, overhead, sequential):
    return sweep_alpha_eff(processors, WorkloadSpec(2, phases), overhead, sequential)


# A template with exactly one parallel phase among up to two sequential ones, and
# counts and ratios a sweep accepts, so that most sweeps run their grid.
sweep_counts = like(plain_or_numpy(st.integers(min_value=2, max_value=64), np.int64))
moderate = plain_or_numpy(st.floats(min_value=1e-3, max_value=1e3), np.float64)
sweep_ratios = st.lists(
    like(plain_or_numpy(st.floats(min_value=0.0, max_value=10.0), np.float64)),
    min_size=1, max_size=3,
)


@st.composite
def sweep_templates(draw):
    phases = draw(st.lists(st.builds(SequentialPhase, moderate), max_size=2))
    chunks = draw(st.lists(moderate, min_size=1, max_size=4))
    parallel = ParallelPhase(tuple(chunks), draw(moderate), draw(moderate))
    phases.insert(draw(st.integers(min_value=0, max_value=len(phases))), parallel)
    return phases


@st.composite
def feasible_budgets(draw):
    """A ContributionBudget whose serial cycles sum to less than clock_hz * total_time_s."""
    clock = draw(st.floats(min_value=1.0, max_value=1e12))
    time = draw(st.floats(min_value=1e-6, max_value=1e6))
    shares = draw(st.lists(st.floats(min_value=0.0, max_value=0.24), min_size=4, max_size=4))
    cycles = [share * clock * time for share in shares[:3]]
    size = shares[3] * time * SPEED_OF_LIGHT_M_PER_S / 2.0  # that share of cycles, in metres
    fields = [np.float64(x) if draw(st.booleans()) else x for x in (clock, time, *cycles, size)]
    flops = draw(st.one_of(st.none(), plain_or_numpy(
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308), np.float64
    )))
    return ContributionBudget(*fields, flops)


def load(processors, duration, chunks, dispatch, collect):
    doc = {"processors": processors, "phases": [
        {"type": "sequential", "duration": duration},
        {"type": "parallel", "chunks": chunks, "dispatch": dispatch, "collect": collect},
    ]}
    return load_workload(io.StringIO(json.dumps(doc, default=lambda number: number.item())))


def whatif_scenario(*fields):
    return whatif(ScalingScenario(*fields))


def bounds_budget(*fields):
    return bounds(ContributionBudget(*fields))


# Each entry: the call, and the strategies of its arguments. F, C and P lean
# towards fractions, counts and positive numbers; N is any number.
ENTRIES: dict[str, tuple[Callable, tuple]] = {
    "AlphaEstimate": (AlphaEstimate, (F, st.sampled_from(EstimationMethod), C)),
    "Efficiency": (Efficiency, (F, P)),
    "Efficiency-measured": (Efficiency, (F,)),
    "Speedup": (Speedup, (P,)),
    "EstimationMethod": (EstimationMethod, (N,)),
    "Architecture": (Architecture, (N,)),
    "Benchmark": (Benchmark, (N,)),
    "ChampionCriterion": (ChampionCriterion, (N,)),
    "alpha_eff_from_efficiency": (alpha_eff_from_efficiency, (F, C)),
    "alpha_eff_from_speedup": (alpha_eff_from_speedup, (P, C)),
    "alpha_from_two_efficiencies": (alpha_from_two_efficiencies, (F, C, F, C)),
    "alpha_from_two_timings": (alpha_from_two_timings, (P, C, P, C)),
    "efficiency_from_alpha": (efficiency_from_alpha, (F, C)),
    "max_speedup": (max_speedup, (F,)),
    "speedup_from_alpha": (speedup_from_alpha, (F, C)),
    "MachineRecord": (record, (C, C, C, P, P)),
    "derive": (derive_record, (C, C, C, P, P)),
    "write_records": (
        write_and_parse, (C, C, C, P, P, st.text(alphabet='ab,"\r\n ', max_size=5).map(str.strip))
    ),
    "parse_records": (parse_row, (C, C, C, P, P)),
    "fit_semilog": (fit_semilog, (st.lists(st.tuples(P, P), max_size=3),)),
    "select_champions": (
        select_champions, (st.just(RECORDS), st.sampled_from(ChampionCriterion), C)
    ),
    "yearly_mean_efficiency": (yearly_mean_efficiency, (st.just(RECORDS), C)),
    "ContributionBudget": (ContributionBudget, (P, P, P, P, P, P, P)),
    "bounds": (bounds_budget, (P, P, P, P, P, P, P)),
    "bounds-feasible": (bounds, (feasible_budgets(),)),
    "ScalingScenario": (ScalingScenario, (F, C, P, P, C, P)),
    "whatif": (whatif_scenario, (F, C, P, P, C, P)),
    "geometric_grid": (geometric_grid, (P, P, C)),
    "project_curve": (project_curve, (C, P, F, few_positives)),
    "required_one_minus_alpha": (required_one_minus_alpha, (F, C)),
    "saturation_rmax": (saturation_rmax, (P, F)),
    "WorkloadSpec": (WorkloadSpec, (C, phases)),
    "simulate": (simulate_spec, (C, phases)),
    "sweep_alpha_eff": (sweep, (C, phases, few_positives, few_positives)),
    "sweep_alpha_eff-template": (
        sweep, (sweep_counts, sweep_templates(), sweep_ratios, sweep_ratios)
    ),
    "load_workload": (load, (C, P, few_positives, P, P)),
}
# The public names the fuzz does not call, and why.
NOT_CALLED = {
    **dict.fromkeys(amdahl._HOMES["errors"], "an exception class"),
    **dict.fromkeys(
        ("BoundsResult", "CurvePoint", "DerivedMetrics", "RegressionFit", "ScenarioResult",
         "ScheduleResult", "SweepPoint", "TimelineSegment", "YearlyEfficiency"),
        "a result type without checks: it holds what a library call computed",
    ),
    **dict.fromkeys(
        ("SequentialPhase", "ParallelPhase"),
        "checked by the WorkloadSpec that takes it, which the fuzz draws",
    ),
    "fixture_path": "takes a file name, no number",
    "read_records": "reads a path: parse_records runs on the text",
    "__version__": "a string",
}


class Call(NamedTuple):
    function: Callable
    args: tuple

    def __repr__(self) -> str:
        return f"{self.function.__name__}{self.args!r}"


calls = st.one_of([
    st.builds(Call, st.just(function), st.tuples(*arguments))
    for function, arguments in ENTRIES.values()
])


def assert_plain(value) -> None:
    """Every number in value, through tuples, lists and dicts, is a plain int or finite float.

    An int may lie past the float range: a record's rank has no upper bound.
    """
    if isinstance(value, Efficiency):
        assert_plain(value.value)
        assert type(value.inverse_excess) is float and value.inverse_excess >= 0.0
        assert math.isfinite(value.inverse_excess) or value.value < 1e-300, value
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_plain(item)
    elif isinstance(value, dict):
        assert_plain(list(value.values()))
    elif not (value is None or isinstance(value, (str, Enum))):
        assert type(value) in (int, float), f"{type(value).__name__} {value!r}"
        assert type(value) is int or math.isfinite(value), value


def test_every_public_name_is_fuzzed_or_excluded_with_a_reason():
    names = {name.split("-")[0] for name in ENTRIES}
    assert names.isdisjoint(NOT_CALLED)
    assert names | set(NOT_CALLED) == set(amdahl.__all__)


@settings(max_examples=1000, deadline=None)
@given(calls)
# Each leaked a numpy RuntimeWarning, or (the last) returned a numpy float.
@example(Call(saturation_rmax, (1.7976931348623157e308, np.float64(0.5))))
@example(Call(max_speedup, (np.float64(5e-324),)))
@example(Call(geometric_grid, (np.float64(1e-300), 1e300, 3)))
@example(Call(alpha_from_two_timings, (np.float64(1e308), 1, 5e-324, 2)))
@example(Call(
    simulate_spec, (2, [SequentialPhase(np.float64(1e308)), ParallelPhase((1e308, 1e308))])
))
@example(Call(project_curve, (4, 10.0, 0.01, [np.float64(20.0)])))
# A record's numpy core count gave derive a numpy float.
@example(Call(derive_record, (2017, 1, np.int64(4), 1.0, 2.0)))
def test_public_api_returns_plain_finite_numbers_or_raises_value_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call.function(*call.args)
        except ValueError:
            return
    assert_plain(result)

