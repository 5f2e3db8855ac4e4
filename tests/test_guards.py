"""The domain guards: one rule for "a finite real number in range".

core's ``_require_fraction``, ``_require_positive`` and ``_require_nonnegative``
replaced a set of inline checks. On floats each guard must accept exactly what
the checks it replaced accepted; the reference copies below are those checks,
kept as they were written. On any other value the guards, and the entry points
that call them, must fail with ValueError and nothing else.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amdahl.core import (
    Efficiency,
    Speedup,
    _require_fraction,
    _require_nonnegative,
    _require_positive,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    alpha_from_two_timings,
)
from amdahl.dataset import Architecture, Benchmark, MachineRecord
from amdahl.projection import (
    ContributionBudget,
    ScalingScenario,
    geometric_grid,
    project_curve,
    required_one_minus_alpha,
)


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
    # Accepted numbers are stored as floats.
    assert type(alpha_eff_from_speedup(2, 3).one_minus_alpha) is float
    assert type(Speedup(2).value) is float and type(Efficiency(1).value) is float
