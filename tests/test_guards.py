"""The domain guards: one rule for "a finite real number in range" and one for "an integer count".

core's ``_require_fraction``, ``_require_positive`` and ``_require_nonnegative``
replaced a set of inline checks. On floats each guard must accept exactly what
the checks it replaced accepted; the reference copies below are those checks,
kept as they were written. On any other value the guards, and the entry points
that call them, must fail with ValueError and nothing else. ``_require_count``
does the same for integer counts: each entry point accepts the ints it accepted
before, numpy ints among them, and rejects every other value with ValueError.
The inversions and the fit then run on edge values, each result held against
exact ``Fraction`` arithmetic. The last tests run the projections and the sweep
on numpy ints and ints up to 10**308.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amdahl.core import (
    AlphaEstimate,
    Efficiency,
    EstimationMethod,
    Speedup,
    _require_count,
    _require_fraction,
    _require_nonnegative,
    _require_positive,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    alpha_from_two_efficiencies,
    alpha_from_two_timings,
    efficiency_from_alpha,
    speedup_from_alpha,
)
from amdahl.dataset import (
    Architecture,
    Benchmark,
    ChampionCriterion,
    MachineRecord,
    fit_semilog,
    select_champions,
    yearly_mean_efficiency,
)
from amdahl.errors import DegenerateCoresError, InvalidWorkloadError, ModelError
from amdahl.projection import (
    ContributionBudget,
    ScalingScenario,
    geometric_grid,
    project_curve,
    required_one_minus_alpha,
    whatif,
)
from amdahl.workload import ParallelPhase, SequentialPhase, WorkloadSpec, sweep_alpha_eff


# Reference copies of the replaced checks; each returns True where the old code raised.
def old_fraction(v):  # core._require_fraction
    return not math.isfinite(v) or not 0.0 <= v <= 1.0


def old_positive(value):  # core._require_positive, Speedup, Efficiency.value
    return not math.isfinite(value) or value <= 0.0


def old_nonnegative(value):  # core._require_nonnegative
    return not math.isfinite(value) or value < 0.0


def old_inverse_excess(inverse_excess):  # Efficiency.inverse_excess
    return inverse_excess < 0.0 or not math.isfinite(inverse_excess)


def old_timing(t1):  # alpha_from_two_timings
    return not math.isfinite(t1) or t1 <= 0.0


def old_finite(x):  # workload._finite
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:
            return None
        if math.isfinite(value):
            return value
    return None


def old_workload_positive(x):  # workload._positive, for phase durations and chunks
    value = old_finite(x)
    return not (value is not None and value > 0)


def old_workload_nonnegative(x):  # workload._nonnegative, for overheads and sweep ratios
    value = old_finite(x)
    return not (value is not None and value >= 0)


REPLACED = [
    (_require_fraction, old_fraction),
    (_require_positive, old_positive),
    (_require_nonnegative, old_nonnegative),
    (_require_nonnegative, old_inverse_excess),
    (_require_positive, old_timing),
    (_require_positive, old_workload_positive),
    (_require_nonnegative, old_workload_nonnegative),
]
GUARDS = [_require_fraction, _require_positive, _require_nonnegative]
# What a guard accepts in range, on the float a number converts to.
IN_RANGE = {
    _require_fraction: lambda x: 0.0 <= x <= 1.0,
    _require_positive: lambda x: x > 0.0,
    _require_nonnegative: lambda x: x >= 0.0,
}


def rejects(guard, value) -> bool:
    try:
        guard(value, "x")
    except ValueError as exc:
        assert str(exc).startswith("x must ")
        return True
    return False


edge_floats = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1.0, math.nextafter(1.0, 2.0),
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
]


def with_examples(values):
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test
    return decorate


@pytest.mark.parametrize(
    "guard, old_raises", REPLACED, ids=[old.__name__ for _, old in REPLACED]
)
@given(x=st.floats())
@with_examples(edge_floats)
def test_guards_accept_the_floats_the_replaced_checks_accepted(guard, old_raises, x):
    assert rejects(guard, x) == old_raises(x)


# Ints of any size (past the float range and past the 4300-digit repr limit),
# bools, None and strings.
not_floats = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**15000), max_value=2**15000),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
edge_objects = [
    10**400, -(10**400), 10**5000, 2**1024 - 2**970, 2**1024 - 2**970 - 1,
    True, False, None, "", "1.0", "nan",
]


@pytest.mark.parametrize("guard", GUARDS, ids=[g.__name__ for g in GUARDS])
@given(value=not_floats)
@with_examples(edge_objects)
def test_guards_take_any_value(guard, value):
    number = old_finite(value)
    assert rejects(guard, value) == (number is None or not IN_RANGE[guard](number))


def test_guards_return_the_number_they_checked():
    for guard in GUARDS:
        for value in (np.float64(0.5), 1, 0.25):
            number = guard(value, "x")
            assert type(number) is float and number == value
    count = _require_count(np.int64(7), "k", 1)
    assert type(count) is int and count == 7


def test_float_guards_read_integer_types_as_the_count_guard_does():
    # Each raised "must be finite", naming the numpy int, while counts took them.
    record = MachineRecord(
        2017, 1, "x", Architecture.MPP, np.int64(4), np.int64(1), np.int64(2), Benchmark.HPL
    )
    assert (record.cores, record.rmax, record.rpeak) == (4, 1.0, 2.0)
    assert [type(v) for v in record[4:7]] == [int, float, float]
    [phase] = WorkloadSpec(2, [ParallelPhase(np.array([1, 2]))]).phases
    assert phase.chunks == (1.0, 2.0) and {type(c) for c in phase.chunks} == {float}
    fit = fit_semilog([(np.int64(2016), 1e-5), (np.int64(2017), 1e-6)])
    assert type(fit.slope) is float and fit.slope == pytest.approx(-1.0)
    # A float32 is no integer type: admitting it needs a __float__ rule, which would
    # let in Decimal, Fraction and one-element arrays as well.
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got np.float32\(0.5\)$"):
        _require_positive(np.float32(0.5), "x")


class ShownFloat(float):
    def __repr__(self):
        return f"ShownFloat({float(self)!r})"


class ShownInt(int):
    def __repr__(self):
        return f"ShownInt({int(self)!r})"


def first_message(call, value) -> str:
    with pytest.raises(ValueError) as excinfo:
        call(value)
    return str(excinfo.value)


def guard_message(guard, value) -> str:
    return first_message(lambda v: guard(v, "x"), value)


NUMBER_TYPES = [
    (kind, plain)
    for kinds, plains in [((np.float64, ShownFloat), (-1.0, -0.5, math.nan, math.inf, -math.inf)),
                          ((np.int64, ShownInt), (-1, -(2**62)))]
    for kind in kinds for plain in plains
]


@pytest.mark.parametrize("guard", GUARDS, ids=[g.__name__ for g in GUARDS])
@pytest.mark.parametrize("kind, plain", NUMBER_TYPES)
def test_a_number_is_named_by_the_plain_number_it_reads_as(guard, kind, plain):
    # np.float64(-1.0) is named as -1.0 and np.int64(-1) as -1, as _require_count names a count.
    message = guard_message(guard, kind(plain))
    assert message == guard_message(guard, plain)
    assert message.endswith(f", got {plain!r}")


def test_a_value_that_is_no_number_keeps_its_repr():
    for guard in GUARDS:
        assert guard_message(guard, True).endswith(", got True")
        assert guard_message(guard, np.float32(-1.0)).endswith(", got np.float32(-1.0)")
        assert guard_message(guard, "1").endswith(", got '1'")


# These once named a numpy float by its repr, np.float64(2.5), where the float
# guards named np.float64(-1.0) as -1.0.
COUNTS_AND_FIT_POINTS = [
    (call, plain)
    for call, plains in [
        (lambda v: speedup_from_alpha(0.5, v), (2.5, 0.0, -1.0, math.nan, math.inf)),
        (lambda v: sweep_alpha_eff(v, WorkloadSpec(2, (ParallelPhase((1.0, 2.0)),)), [0.0], [0.0]),
         (2.5, 1.0, math.nan, 1e300)),
        (lambda v: geometric_grid(1.0, 2.0, v), (2.5, 1.0, math.inf)),
        (lambda v: yearly_mean_efficiency([], v), (0.0, 0.5)),
        (lambda v: fit_semilog([(v, 1.0), (2.0, 10.0)]), (math.nan, -math.inf, 1e200)),
        (lambda v: fit_semilog([(1.0, v), (2.0, 10.0)]), (math.nan, math.inf, -1.0, 0.0)),
    ]
    for plain in plains
]


@pytest.mark.parametrize("kind", [np.float64, ShownFloat])
@pytest.mark.parametrize("call, plain", COUNTS_AND_FIT_POINTS)
def test_counts_and_fit_points_name_a_number_as_the_float_guards_do(call, plain, kind):
    message = first_message(call, kind(plain))
    assert message == first_message(call, plain)
    assert message.endswith(f" {plain!r}")


def test_fit_names_an_integer_y_by_its_plain_number():
    for kind in (np.int64, ShownInt):
        for plain in (0, -1):
            message = first_message(lambda v: fit_semilog([(1.0, v), (2.0, 10.0)]), kind(plain))
            assert message == f"cannot take log10 of {plain}"


def test_an_int_beyond_the_float_range_is_named_by_its_bit_length():
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got a 16610-bit integer$"):
        _require_positive(10**5000, "x")


ENTRY_POINTS = {
    "Speedup": lambda v: Speedup(v),
    "Efficiency": lambda v: Efficiency(v),
    "ContributionBudget": lambda v: ContributionBudget(v, 1.0, 1.0),
    "project_curve": lambda v: project_curve(1, v, 0.1, [1.0]),
    "alpha_from_two_timings": lambda v: alpha_from_two_timings(v, 1, 1.0, 2),
    "MachineRecord": lambda v: MachineRecord(
        2017, 1, "x", Architecture.MPP, 4, v, 1e9, Benchmark.HPL
    ),
    "ScalingScenario": lambda v: ScalingScenario(0.1, 4, target_cores=8, target_rpeak=v),
    "geometric_grid-stop": lambda v: geometric_grid(1.0, v, 3),
    "geometric_grid-start": lambda v: geometric_grid(v, 1.0, 3),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@given(value=st.one_of(not_floats, st.floats()))
@with_examples(edge_objects + edge_floats)
def test_entry_points_raise_only_value_error(call, value):
    try:
        call(value)
    except ValueError:
        pass


# Each raised OverflowError or TypeError, or returned a grid with inf or nan, before
# the guards took any value.
BAD_CALLS = {
    "Speedup": lambda: Speedup(10**400),
    "Efficiency": lambda: Efficiency("x"),
    "ContributionBudget": lambda: ContributionBudget(10**400, 1.0, 1.0),
    "project_curve": lambda: project_curve(1, 10**400, 0.1, [1.0]),
    "alpha_from_two_timings": lambda: alpha_from_two_timings(10**400, 1, 1.0, 2),
    "MachineRecord": lambda: MachineRecord(
        2017, 1, "x", Architecture.MPP, 4, 10**400, 10**401, Benchmark.HPL
    ),
    "ScalingScenario": lambda: ScalingScenario(0.1, 4, target_cores=8, target_rpeak=10**400),
    "geometric_grid-inf": lambda: geometric_grid(1.0, math.inf, 3),
    "geometric_grid-nan": lambda: geometric_grid(math.nan, 1.0, 3),
    # These converted the number with float() before the guard saw it.
    "alpha_eff_from_speedup": lambda: alpha_eff_from_speedup(10**400, 4),
    "alpha_eff_from_efficiency": lambda: alpha_eff_from_efficiency(10**400, 4),
    "required_one_minus_alpha": lambda: required_one_minus_alpha(10**400, 4),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_out_of_domain_calls_raise_value_error(call):
    with pytest.raises(ValueError, match=" must be finite and > 0, got "):
        call()


def test_an_int_beyond_the_float_range_is_not_converted_before_the_check():
    message = r"^speedup must be finite and > 0, got a 1329-bit integer$"
    with pytest.raises(ValueError, match=message):
        alpha_eff_from_speedup(10**400, 4)
    # Accepted numbers, numpy ones too, are stored as floats, and so are results computed from them.
    assert type(alpha_eff_from_speedup(2, 3).one_minus_alpha) is float
    assert type(Speedup(2).value) is float and type(Efficiency(1).value) is float
    assert type(Efficiency(np.float64(0.5)).inverse_excess) is float
    assert type(whatif(ScalingScenario(0.5, 3, 1.0, 3.0, np.int64(5), None)).rmax) is float


# The count guard, core._require_count, replaced core._require_cores,
# workload._require_processors and five inline checks. Each reference below is
# the range of ints the replaced check accepted at that entry point.
MAX_CORES = int(sys.float_info.max)


def cores(k):  # core._require_cores(k, 1)
    return 1 <= k <= MAX_CORES


def inverts(k):  # core._require_cores(k, 2)
    return 2 <= k <= MAX_CORES


def positive(k):  # rank < 1, top < 1, top_n < 1
    return k >= 1


RECORD = MachineRecord(2017, 1, "x", Architecture.MPP, 4, 1.0, 2.0, Benchmark.HPL)
TEMPLATE = WorkloadSpec(2, (SequentialPhase(1.0), ParallelPhase((1.0, 2.0))))
COUNT_ENTRY_POINTS = {
    # name: (call, the ints it accepted, whether None means "no count" there)
    "AlphaEstimate": (lambda v: AlphaEstimate(0.5, EstimationMethod.SIMULATED, v), cores, True),
    "speedup_from_alpha": (lambda v: speedup_from_alpha(0.5, v), cores, False),
    "efficiency_from_alpha": (lambda v: efficiency_from_alpha(0.5, v), cores, False),
    "alpha_eff_from_speedup": (lambda v: alpha_eff_from_speedup(1.0, v), inverts, False),
    "alpha_eff_from_efficiency": (lambda v: alpha_eff_from_efficiency(1.0, v), inverts, False),
    # The other count is 2, which the two-point estimators refuse to repeat.
    "alpha_from_two_efficiencies": (
        lambda v: alpha_from_two_efficiencies(1.0, v, 1.0, 2), lambda k: cores(k) and k != 2, False
    ),
    "alpha_from_two_timings": (
        lambda v: alpha_from_two_timings(1.0, 2, 1.0, v), lambda k: cores(k) and k != 2, False
    ),
    "MachineRecord-rank": (
        lambda v: MachineRecord(2017, v, "x", Architecture.MPP, 4, 1.0, 2.0, Benchmark.HPL),
        positive,
        False,
    ),
    "MachineRecord-cores": (
        lambda v: MachineRecord(2017, 1, "x", Architecture.MPP, v, 1.0, 2.0, Benchmark.HPL),
        cores,
        False,
    ),
    "project_curve": (lambda v: project_curve(v, 1.0, 0.1, [1.0]), cores, False),
    "ScalingScenario-base": (
        lambda v: ScalingScenario(0.1, v, target_cores=8, target_rpeak=1.0), cores, False
    ),
    # None leaves the target to be derived, which needs base_rpeak.
    "ScalingScenario-target": (
        lambda v: ScalingScenario(0.1, 4, target_cores=v, target_rpeak=1.0, base_rpeak=1.0),
        cores,
        True,
    ),
    # points < 2, then the separate cap of 10**6 points
    "geometric_grid": (lambda v: geometric_grid(1.0, 2.0, v), lambda k: 2 <= k <= 10**6, False),
    "select_champions": (
        lambda v: select_champions([RECORD], ChampionCriterion.BEST_RMAX, top=v), positive, True
    ),
    "yearly_mean_efficiency": (lambda v: yearly_mean_efficiency([RECORD], v), positive, False),
    "WorkloadSpec": (
        lambda v: WorkloadSpec(v, (SequentialPhase(1.0),)), lambda k: 1 <= k <= sys.maxsize, False
    ),
    "sweep_alpha_eff": (
        lambda v: sweep_alpha_eff(v, TEMPLATE, [0.0], [1.0]), lambda k: 2 <= k <= sys.maxsize, False
    ),
}

# Ints are drawn at most 64 or beyond the grid's cap of 10**6 points, so that no
# accepted count builds a large grid.
counts = st.one_of(
    st.integers(min_value=-3, max_value=64),
    st.integers(min_value=10**6 + 1, max_value=2**15000),
    st.integers(min_value=-(2**15000), max_value=-1),
    st.integers(min_value=-3, max_value=64).map(np.int64),
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=8),
)
edge_counts = [
    0, 1, 2, 3, MAX_CORES, MAX_CORES + 1, sys.maxsize, sys.maxsize + 1, 10**6 + 1,
    10**5000, -(10**5000), np.int64(2), np.int64(2**63 - 1), np.int64(0), True, False,
    2.0, 2.5, math.nan, math.inf, -math.inf, None, "2", "",
]


@pytest.mark.parametrize(
    "call, accepts, none_ok", COUNT_ENTRY_POINTS.values(), ids=COUNT_ENTRY_POINTS.keys()
)
@given(value=counts)
@with_examples(edge_counts)
def test_count_entry_points_accept_exactly_the_ints_they_accepted(call, accepts, none_ok, value):
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        expected = accepts(int(value))
    else:
        expected = none_ok and value is None
    try:
        call(value)
    except ValueError:
        assert not expected
    else:
        assert expected


# Each returned a value for a count that is no integer, or raised TypeError,
# before the count guard.
BAD_COUNT_CALLS = {
    "speedup_from_alpha-float": lambda: speedup_from_alpha(0.5, 2.5),
    "speedup_from_alpha-bool": lambda: speedup_from_alpha(0.5, True),
    "MachineRecord-rank": lambda: MachineRecord(
        2017, 1.5, "x", Architecture.MPP, 4, 1.0, 2.0, Benchmark.HPL
    ),
    "MachineRecord-cores": lambda: MachineRecord(
        2017, 1, "x", Architecture.MPP, 2.5, 1.0, 2.0, Benchmark.HPL
    ),
    "alpha_eff_from_speedup": lambda: alpha_eff_from_speedup(2.0, None),
    "project_curve": lambda: project_curve("2", 1.0, 0.1, [1.0]),
    "select_champions": lambda: select_champions([RECORD], ChampionCriterion.BEST_RMAX, top="2"),
    "AlphaEstimate": lambda: AlphaEstimate(0.5, EstimationMethod.SIMULATED, "4"),
    "sweep_alpha_eff": lambda: sweep_alpha_eff("3", TEMPLATE, [0.0], [1.0]),
    "yearly_mean_efficiency": lambda: yearly_mean_efficiency([RECORD], 2.5),
    "geometric_grid": lambda: geometric_grid(1.0, 2.0, 2.5),
}


@pytest.mark.parametrize("call", BAD_COUNT_CALLS.values(), ids=BAD_COUNT_CALLS.keys())
def test_a_count_that_is_no_integer_raises_value_error(call):
    with pytest.raises(ValueError, match=r" must be an integer, got "):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: speedup_from_alpha(0.5, 0), ValueError, "cores must be >= 1, got 0"),
        (lambda: speedup_from_alpha(0.5, np.int64(0)), ValueError, "cores must be >= 1, got 0"),
        (lambda: speedup_from_alpha(0.5, -(10**400)), ValueError,
         "cores must be >= 1, got a 1329-bit integer"),
        (lambda: speedup_from_alpha(0.5, math.inf), ModelError,
         "cores must be <= 1.7976931348623157e+308, got inf"),
        (lambda: speedup_from_alpha(0.5, 10**400), ModelError,
         "cores must be <= 1.7976931348623157e+308, got a 1329-bit integer"),
        (lambda: speedup_from_alpha(0.5, math.nan), ValueError,
         "cores must be an integer, got nan"),
        (lambda: alpha_eff_from_efficiency(0.9, 1), DegenerateCoresError,
         "needs at least 2 processors to invert, got 1"),
        (lambda: WorkloadSpec("4", (SequentialPhase(1.0),)), InvalidWorkloadError,
         "processors must be an integer, got '4'"),
        (lambda: WorkloadSpec(sys.maxsize + 1, (SequentialPhase(1.0),)), InvalidWorkloadError,
         f"processors must be <= {sys.maxsize}, got {sys.maxsize + 1}"),
        (lambda: sweep_alpha_eff(1, TEMPLATE, [0.0], [1.0]), ValueError,
         "a sweep needs at least 2 processors to define alpha_eff, got 1"),
        (lambda: sweep_alpha_eff(10**20, TEMPLATE, [0.0], [1.0]), InvalidWorkloadError,
         f"processors must be <= {sys.maxsize}, got {10**20}"),
        (lambda: geometric_grid(1.0, 2.0, 1), ValueError, "a grid needs at least 2 points, got 1"),
        (lambda: geometric_grid(1.0, 2.0, 10**6 + 1), ModelError,
         "a grid has at most 1000000 points, got 1000001"),
        (lambda: yearly_mean_efficiency([RECORD], 0), ValueError, "top_n must be >= 1, got 0"),
        (lambda: MachineRecord(2017, True, "x", Architecture.MPP, 4, 1.0, 2.0, Benchmark.HPL),
         ValueError, "rank must be an integer, got True"),
    ],
)
def test_count_messages(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


# The inversions and the fit on edge values: counts past the float range and numpy
# ints, speedups up to k, and y or x beyond the float range. Each call returns a
# finite number close to the exact result, or raises ValueError; an OverflowError,
# a TypeError or a silently wrong number fails.
TINY = Fraction(sys.float_info.min)  # below it a float cannot hold 1e-12 relative precision
wide_counts = st.one_of(
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=2, max_value=MAX_CORES),
    st.integers(min_value=-1, max_value=2**1100),
    st.integers(min_value=-1, max_value=2**63 - 1).map(np.int64),
)
wide_numbers = st.one_of(
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0).map(np.float64),
    st.integers(min_value=-1, max_value=10**400),
)
unit_fractions = st.floats(min_value=0.0, max_value=1.0)


def up_to(k) -> st.SearchStrategy:
    """Speedups from 1 to k (or to the float range), and now and then any number."""
    top = float(min(max(int(k), 1), MAX_CORES))
    return st.floats(min_value=1.0, max_value=top) | wide_numbers


def planted(x, k, value) -> float:
    """value(x, k) for serial fraction x on k cores, rounded once to a float; 1.0 off the range."""
    k = int(k)
    return float(value(Fraction(x), k)) if 1 <= k <= MAX_CORES else 1.0


def planted_efficiency(x, k):
    return 1 / (1 + (k - 1) * x)


def planted_time(x, k):
    return x * (1 - Fraction(1, k)) + Fraction(1, k)


def close(got, exact: Fraction, scale: Fraction = Fraction(0)) -> bool:
    """got is a finite float within 1e-12 of exact, relative to |exact| + scale.

    ``scale`` is the size of the rounded terms a formula subtracts: where they
    cancel, its rounding error is relative to them, not to the result.
    """
    assert isinstance(got, float) and math.isfinite(got)
    return abs(Fraction(got) - exact) <= Fraction(1, 10**12) * (abs(exact) + scale + TINY)


def fraction_close(got, exact: Fraction, scale: Fraction = Fraction(0)) -> bool:
    """close() for a serial fraction: rounding just past 1 is snapped onto 1."""
    return exact <= 1 + Fraction(2, 10**12) and close(got, min(exact, Fraction(1)), scale)


def check_speedup(result, s, k):
    s, k = Fraction(float(s)), int(k)
    assert fraction_close(result.one_minus_alpha, (k - s) / ((k - 1) * s))


def check_efficiency(result, e, k):
    ie = Fraction(Efficiency(e).inverse_excess)
    assert fraction_close(result.one_minus_alpha, ie / Fraction(float(int(k) - 1)))


def check_two_efficiencies(result, e1, k1, e2, k2):
    ie1, ie2 = (Fraction(Efficiency(e).inverse_excess) for e in (e1, e2))
    assert fraction_close(result.one_minus_alpha, (ie2 - ie1) / (int(k2) - int(k1)))


def check_two_timings(result, t1, k1, t2, k2):
    r, k1, k2 = Fraction(t1) / Fraction(t2), int(k1), int(k2)
    numer, denom = r / k2 - Fraction(1, k1), (1 - Fraction(1, k1)) - r * (1 - Fraction(1, k2))
    x = numer / denom
    scale = (abs(r / k2) + Fraction(1, k1) + abs(x) * (1 + abs(r))) / abs(denom)
    assert fraction_close(result.one_minus_alpha, x, scale)


def check_fit(fit, points):
    # fit_semilog centres x and log10(y) on their means, which round at the scale
    # of the largest |x| and |log10(y)|, and squares the deviations, which lose
    # precision below the smallest normal float.
    (x1, y1), (x2, y2) = points
    xs = [Fraction(float(x1)), Fraction(float(x2))]
    ls = [Fraction(math.log10(y1)), Fraction(math.log10(y2))]
    slope, dx = (ls[1] - ls[0]) / (xs[1] - xs[0]), abs(xs[1] - xs[0])
    scale = (abs(slope) * max(map(abs, xs)) + max(map(abs, ls))) / dx
    scale += (abs(slope) + 1) * TINY / dx**2
    assert close(fit.slope, slope, scale)
    assert math.isfinite(fit.intercept) and 0.0 <= fit.r_squared <= 1.0


@st.composite
def inversion_calls(draw):
    k1, k2, x = draw(wide_counts), draw(wide_counts), draw(unit_fractions)
    efficiencies = unit_fractions | wide_numbers | st.just(planted(x, k1, planted_efficiency))
    which = draw(st.integers(min_value=0, max_value=3))
    if which == 0:
        return alpha_eff_from_speedup, (draw(up_to(k1)), k1), check_speedup
    if which == 1:
        return alpha_eff_from_efficiency, (draw(efficiencies), k1), check_efficiency
    if which == 2:
        e1, e2 = draw(st.tuples(efficiencies, efficiencies) | st.just(
            (planted(x, k1, planted_efficiency), planted(x, k2, planted_efficiency))
        ))
        return alpha_from_two_efficiencies, (e1, k1, e2, k2), check_two_efficiencies
    t1, t2 = draw(st.tuples(up_to(k2), up_to(k1)) | st.just(
        (planted(x, k1, planted_time), planted(x, k2, planted_time))
    ))
    return alpha_from_two_timings, (t1, k1, t2, k2), check_two_timings


fit_xs = st.one_of(
    st.integers(min_value=1900, max_value=2100),
    st.floats(min_value=-1e150, max_value=1e150),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.floats(),
    st.integers(min_value=1900, max_value=2100).map(np.int64),
)
fit_ys = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(min_value=1, max_value=10**6),
    wide_numbers,
)
fit_calls = st.lists(st.tuples(fit_xs, fit_ys), min_size=2, max_size=2).map(
    lambda points: (fit_semilog, (points,), check_fit)
)


@settings(max_examples=500)
@given(st.one_of(inversion_calls(), fit_calls))
@example((alpha_eff_from_speedup, (1e10, 10**300), check_speedup))
@example((alpha_eff_from_speedup, (2**60, 2**60 + 3), check_speedup))
@example((alpha_from_two_efficiencies, (0.5, np.int64(7), 0.4, 2**70), check_two_efficiencies))
@example((fit_semilog, ([(1, 10**400), (2, 1.0)],), check_fit))
# A numpy efficiency whose inverse excess overflowed with a RuntimeWarning.
@example((alpha_eff_from_efficiency, (np.float64(5e-324), 4), check_efficiency))
def test_inversions_and_fit_return_an_accurate_number_or_raise_value_error(case):
    call, args, check = case
    try:
        result = call(*args)
    except ValueError:
        return
    check(result, *args)


# The projections and the sweep on numpy ints and ints up to 10**308 as counts,
# peaks, durations and ratios. Each call returns finite numbers or raises
# ValueError; an OverflowError from mixing a numpy int with a large int, or from
# an int product beyond the float range, fails.
def all_finite(result) -> bool:
    if isinstance(result, (tuple, list)):
        return all(all_finite(value) for value in result)
    return not isinstance(result, (float, np.floating)) or math.isfinite(result)


# Ints of every magnitude up to 2**1023 < 10**308; a plain integers() draw is mostly
# small. Numpy ints are drawn as counts only, since the other guards reject them.
big_ints = st.builds(
    lambda m, shift: m << shift,
    st.integers(min_value=0, max_value=2**53),
    st.integers(min_value=0, max_value=970),
)
scaling_counts = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**63 - 1).map(np.int64),
    big_ints,
)
scaling_numbers = st.floats(min_value=0.0, max_value=sys.float_info.max) | big_ints


@st.composite
def scaling_calls(draw):
    """A call of project_curve, whatif or sweep_alpha_eff; its arguments are built in the call."""
    which = draw(st.integers(min_value=0, max_value=2))
    if which == 0:
        args = (draw(scaling_counts), draw(scaling_numbers), draw(unit_fractions),
                draw(st.lists(scaling_numbers, min_size=1, max_size=3)))
        return lambda: project_curve(*args)
    if which == 1:
        args = (draw(unit_fractions), draw(scaling_counts), draw(scaling_numbers),
                draw(scaling_numbers), draw(st.none() | scaling_counts),
                draw(st.none() | scaling_numbers))
        return lambda: whatif(ScalingScenario(*args))
    chunks = tuple(draw(st.lists(scaling_numbers, min_size=1, max_size=3)))
    phases = [ParallelPhase(chunks, draw(scaling_numbers), draw(scaling_numbers))]
    if draw(st.booleans()):
        phases.insert(0, SequentialPhase(draw(scaling_numbers)))
    ratios = st.lists(scaling_numbers, min_size=1, max_size=2)
    processors, overhead, sequential = draw(scaling_counts), draw(ratios), draw(ratios)
    return lambda: sweep_alpha_eff(processors, WorkloadSpec(2, phases), overhead, sequential)


# Each example raised OverflowError.
@settings(max_examples=300)
@given(scaling_calls())
@example(lambda: project_curve(np.int64(7), 1e300, 0.5, [10**20]))
@example(lambda: project_curve(10**308, 5e-324, 0.5, [2**60]))
@example(lambda: whatif(ScalingScenario(0.5, np.int64(7), base_rpeak=1.0, target_rpeak=10**20)))
@example(lambda: whatif(ScalingScenario(1e-9, 3, base_rpeak=1.0, target_rpeak=10**308)))
@example(lambda: sweep_alpha_eff(
    2, WorkloadSpec(2, (ParallelPhase((10**308, 10**308)),)), [0.0], [1.0]
))
@example(lambda: sweep_alpha_eff(
    2, WorkloadSpec(2, (SequentialPhase(10**308), ParallelPhase((1.0, 2.0)))), [0.0], [2]
))
# A numpy target count gave an np.float64 rmax, and a RuntimeWarning where the peak overflowed.
@example(lambda: whatif(ScalingScenario(0.5, 3, 1.0, 3.0, np.int64(5), None)))
@example(lambda: whatif(ScalingScenario(0.5, 3, 1.0, 1e300, np.int64(10**18), None)))
def test_projections_and_sweep_on_wide_ints_return_finite_numbers_or_raise_value_error(call):
    try:
        result = call()
    except ValueError:
        return
    assert all_finite(result), result
