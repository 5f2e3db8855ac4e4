"""Closed-form scaling relations between parallel fraction, speedup, and efficiency.

The model is the classic one: a program with parallel fraction alpha run on k
processors has speedup S(k) = 1 / ((1 - alpha) + alpha / k). Everything in this
module is an algebraic rearrangement of that relation, evaluated carefully.

Two conventions keep the numerics honest at the scales that matter (serial
fractions of 1e-7 and below on millions of cores):

* The canonical stored quantity is ``one_minus_alpha``, never alpha itself.
  Near-perfect parallelization packs all its information into digits that
  ``1 - alpha`` would destroy.
* Inversions subtract before they divide: (k - S) / ((k - 1) * S) rather than
  1 minus the textbook alpha expression, which cancels catastrophically when
  S approaches k.

Efficiency carries ``inverse_excess`` (1/E - 1) alongside its plain value for
the same reason. An efficiency produced by the forward model remembers that
quantity exactly, so inverting it recovers the parallel fraction to a few ulp
even where 1 - E is below the resolution of a double next to 1.0.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from enum import Enum

from . import _HOMES
from .errors import (
    DegenerateCoresError,
    InconsistentMeasurementsError,
    InfeasibleTargetError,
    ModelError,
    SuperlinearError,
    UnboundedError,
)

__all__ = _HOMES["core"]

# Slack applied when a computed fraction lands a few ulp above an exact
# boundary (e.g. efficiency measured exactly at 1/k). Values beyond the slack
# are genuine precondition violations, not rounding.
_BOUNDARY_SLACK = 1e-12

# The largest core count the model accepts: its formulas divide by the count as a
# float. Python compares an int with a float exactly.
_FLOAT_MAX = sys.float_info.max


class EstimationMethod(Enum):
    """How a parallel-fraction estimate was obtained."""

    FROM_SPEEDUP = "speedup"
    FROM_EFFICIENCY = "efficiency"
    TWO_POINT_SLOPE = "two-point-slope"
    TWO_TIMINGS = "two-timings"
    SIMULATED = "simulated"


class _Checked:
    """Named-tuple mixin: ``_make``, and so ``_replace``, build through the checking ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AlphaEstimate(_Checked, namedtuple("AlphaEstimate", "one_minus_alpha method cores")):
    """An estimated serial fraction ``1 - alpha_eff`` with its provenance.

    ``cores`` is the processor count the estimate was derived at, when a
    single count applies (two-point estimators leave it None).
    """

    __slots__ = ()

    def __new__(cls, one_minus_alpha: float, method: EstimationMethod, cores: int | None = None):
        one_minus_alpha = _require_fraction(one_minus_alpha)
        if cores is not None:
            cores = _require_count(cores, "cores", 1)
        return tuple.__new__(cls, (one_minus_alpha, method, cores))

    @property
    def alpha(self) -> float:
        """The parallel fraction itself; lossy near 1, prefer one_minus_alpha."""
        return 1.0 - self.one_minus_alpha


class Efficiency(_Checked, namedtuple("Efficiency", "value inverse_excess")):
    """Parallel efficiency E = S / k, in (0, 1].

    ``inverse_excess`` is 1/E - 1. For a measured efficiency it is derived
    from ``value`` and adds nothing; for an efficiency built by
    :func:`efficiency_from_alpha` it is the exact product (k - 1) * (1 - alpha)
    and preserves information that the rounded ``value`` cannot hold when E is
    within a few ulp of 1.
    """

    __slots__ = ()

    def __new__(cls, value: float, inverse_excess: float | None = None):
        value = _require_positive(value, "efficiency")
        if value > 1.0:
            raise SuperlinearError(
                f"superlinear measurement outside model: efficiency {value!r} exceeds 1"
            )
        if inverse_excess is None:
            return _measured_efficiency(value)
        inverse_excess = _require_nonnegative(inverse_excess, "inverse_excess")
        if abs(value * (1.0 + inverse_excess) - 1.0) > 1e-9:
            raise ValueError(
                f"inverse_excess {inverse_excess!r} is inconsistent with value {value!r}"
            )
        return tuple.__new__(cls, (value, inverse_excess))


def _measured_efficiency(value: float) -> Efficiency:
    """The Efficiency of a float already known to lie in (0, 1], its guard not run again."""
    return tuple.__new__(Efficiency, (value, (1.0 - value) / value))


# Efficiency checks the raw number before storing it as a float, so an int
# beyond the float range is the guard's ValueError, not float()'s OverflowError.
def _coerce_efficiency(e: float | Efficiency) -> Efficiency:
    return e if isinstance(e, Efficiency) else Efficiency(e)


def _require_count(
    value: object, name: str, minimum: int, fewer: str | None = None, error: type = ValueError,
    maximum: float = _FLOAT_MAX, excess: type = ModelError,
) -> int:
    """Require an integer count in [minimum, maximum]: an int or any integer type, not a bool.

    Returns the count as an int. A count below ``minimum`` raises ``error`` saying
    ``fewer`` (by default "<name> must be >= <minimum>"), and so does a value that is
    no integer; a count above ``maximum`` raises ``excess``. A float outside the
    bounds is named by the bound it breaks, so inf is too many rather than no integer.
    A message names the value as _shown_number shows it.
    """
    if type(value) is not int:
        integer = _integer(value)
        if integer is not None:
            value = integer
        elif not (isinstance(value, float) and (value < minimum or value > maximum)):
            raise error(f"{name} must be an integer, got {_shown_number(value)}")
    if value < minimum:
        raise error(f"{fewer or f'{name} must be >= {minimum}'}, got {_shown_number(value)}")
    if value > maximum:
        raise excess(f"{name} must be <= {maximum!r}, got {_shown_number(value)}")
    return value


def _integer(x: object) -> int | None:
    """x as an int, read through ``__index__`` as numpy's integers are, or None if it is no integer.

    A bool is no integer, and neither is a float.
    """
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:  # a float, a str, None, or a numpy array of more than one value
        return None


def _finite(x: object) -> float | None:
    """x as a finite float, or None if it is not a real number inside the float range.

    A number that is no float is read by _integer, as _require_count reads a count.
    """
    if not isinstance(x, float):
        x = _integer(x)
        if x is None:
            return None
    try:
        value = float(x)
    except OverflowError:  # an int too large for a float
        return None
    return value if math.isfinite(value) else None


def _shown_number(x: object) -> str:
    """x as an error names it: a float or an integer type by the plain number it reads as.

    So np.float64(0.0) shows as 0.0 and np.int64(0) as 0, as a float and an int do, and
    an integer beyond the float range by its bit length, since repr fails past 4300
    digits; anything else, a bool included, by its repr.
    """
    if isinstance(x, float):
        return float.__repr__(x)
    integer = _integer(x)
    if integer is None:
        return repr(x)
    return f"a {integer.bit_length()}-bit integer" if abs(integer) > _FLOAT_MAX else repr(integer)


def _comment_lines(text: str) -> str:
    """Text as csv comment lines: "# " before every line, so a line break cannot end the comment."""
    return "".join(f"# {line}\n" for line in text.splitlines())


def _csv_field(value: object) -> str:
    """value as one csv field: None as "", a str as its own characters, anything else by str().

    A field holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, each ``"`` doubled, so a
    line break inside it, a bare carriage return included, cannot end the row.
    """
    if isinstance(value, str):
        text = str.__str__(value)  # an exact str, which str() of a subclass need not give
    else:
        text = "" if value is None else str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(fields: Iterable[object]) -> str:
    """fields as one csv row, ending in a line feed."""
    return ",".join(map(_csv_field, fields)) + "\n"


# The guards take any object and return the float they compared; a float skips
# the call to _finite. A message names a number as _shown_number shows it.
def _require_fraction(one_minus_alpha: object, name: str = "one_minus_alpha") -> float:
    number = one_minus_alpha if type(one_minus_alpha) is float else _finite(one_minus_alpha)
    if number is None or not 0.0 <= number <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {_shown_number(one_minus_alpha)}")
    return number


def _require_positive(value: object, name: str) -> float:
    number = value if type(value) is float else _finite(value)
    if number is None or not 0.0 < number <= _FLOAT_MAX:
        raise ValueError(f"{name} must be finite and > 0, got {_shown_number(value)}")
    return number


def _require_nonnegative(value: object, name: str) -> float:
    number = value if type(value) is float else _finite(value)
    if number is None or not 0.0 <= number <= _FLOAT_MAX:
        raise ValueError(f"{name} must be finite and >= 0, got {_shown_number(value)}")
    return number


def _require_each(
    values: Iterable[object], require: Callable[[object, str], float], name: str
) -> tuple[float, ...]:
    """The floats ``require`` returns for each of values, the first bad one named "<name> <j>".

    ``require`` is a guard whose rule is a lower bound up to the float range, as
    _require_positive's and _require_nonnegative's are. So exact floats with a finite
    sum (a nan or inf anywhere makes it nan or inf) pass whole when their smallest
    passes, with no call per item, and only a list that fails is checked again with
    each item's position in its name.
    """
    values = tuple(values)
    try:
        if set(map(type, values)) == {float} and math.isfinite(sum(values)):
            require(min(values), name)
            return values
        return tuple([require(x, name) for x in values])
    except ValueError:
        return tuple([require(x, f"{name} {j}") for j, x in enumerate(values, 1)])


def _snap_to_unit(x: float) -> float:
    """Clamp a fraction that rounding pushed just past 1 back onto the boundary."""
    if 1.0 < x <= 1.0 + _BOUNDARY_SLACK:
        return 1.0
    return x


# The kernels: one per formula that a loop shares with its public function,
# numbers in and numbers out, with no checks. Each is the one place its expression
# is evaluated. The public functions below check their inputs and then call the
# kernel; the hot loops (sweep grid rows, record derivation, curve projection)
# call the kernels on values that a value type or an earlier check has already
# validated. _from_speedups takes a whole list, so a sweep pays one call and its
# points none: up to k = 94,906,266 each point is one inline expression.
def _from_speedups(speedups: Iterable[float], k: int) -> list[float | None]:
    """1 - alpha of each finite speedup on k >= 2 processors, in order.

    A speedup below 1 gives None: no parallel fraction in [0, 1] reproduces
    it. One above k reads as k, since summation rounding can leave a simulated
    speedup a few ulp above k, and a schedule never beats k processors.

    Where (k - 1) * k < 2**53, k and k - 1 are exact floats, so with
    1 <= s <= k the quotient (k - s) / ((k - 1) * s) is evaluated inline:
    k - s <= (k - 1) * s, and rounding is monotone, so both roundings keep that
    order and the quotient already lies in [0, 1], with no snap to 1 to apply.

    Above that bound a float cannot hold every count, so where (k - 1) * s
    reaches 2**53 it takes k - s in parts: the int difference of the integer
    parts, less the fractional part of s. Below 2**53 both forms round k - s
    once, to the same float. Where (k - 1) * s passes the float range it divides
    twice, since the overflowed product would turn the result into 0.
    """
    top = float(k)
    if (k - 1) * k < 2**53:
        below = float(k - 1)
        return [None if s < 1.0 else 0.0 if s >= top else (top - s) / (below * s)
                for s in speedups]
    fractions: list[float | None] = []
    for s in speedups:
        if s < 1.0:
            fractions.append(None)
            continue
        s = top if top < s else s
        denom = (k - 1) * s
        if denom < 2.0**53:  # so k <= 2**53
            x = (k - s) / denom
        else:
            numer = (k - int(s)) - (s - int(s))
            x = numer / (k - 1) / s if denom > _FLOAT_MAX else numer / denom
        fractions.append(_snap_to_unit(x))
    return fractions


def _from_inverse_excess(ie: float, k: int) -> float:
    """1 - alpha of an efficiency with inverse excess ie = 1/E - 1 on k >= 2 processors.

    Exceeds 1 where E < 1/k.
    """
    return _snap_to_unit(ie / (k - 1))


def _efficiency(x: float, k: int) -> float:
    """Efficiency of serial fraction x on k processors, 1 / (1 + (k - 1) * x).

    The grouping makes the denominator's excess over 1 exact.
    """
    return 1.0 / (1.0 + (k - 1) * x)


def speedup_from_alpha(one_minus_alpha: float, cores: int) -> float:
    """Forward model: the speedup of a (1 - alpha) serial fraction on ``cores`` processors."""
    cores = _require_count(cores, "cores", 1)
    one_minus_alpha = _require_fraction(one_minus_alpha)
    s = 1.0 / (one_minus_alpha + (1.0 - one_minus_alpha) / cores)
    # The model guarantees S <= k; spare callers the occasional half-ulp excess.
    return min(s, float(cores))


def efficiency_from_alpha(one_minus_alpha: float, cores: int) -> Efficiency:
    """Forward model: efficiency E = S/k, carrying its exact inverse excess.

    Evaluates 1 / (k * (1 - alpha) + alpha) in the equivalent grouping
    1 / (1 + (k - 1) * (1 - alpha)), whose denominator excess is exact.
    """
    cores = _require_count(cores, "cores", 1)
    one_minus_alpha = _require_fraction(one_minus_alpha)
    return Efficiency(
        value=_efficiency(one_minus_alpha, cores), inverse_excess=(cores - 1) * one_minus_alpha
    )


def alpha_eff_from_speedup(speedup: float, cores: int) -> AlphaEstimate:
    """Invert a measured speedup on ``cores`` processors into ``1 - alpha_eff``.

    Uses the subtraction-first form (k - S) / ((k - 1) * S). The boundary
    S = 1 (no speedup at all) maps to one_minus_alpha = 1 without error.

    Raises:
        DegenerateCoresError: fewer than 2 processors, inversion undefined, or a
            count that is no integer.
        SuperlinearError: S > k, outside the model.
        ValueError: S < 1 (a slowdown, which the model cannot express).
    """
    s = _require_positive(speedup, "speedup")
    cores = _require_count(
        cores, "cores", 2, "needs at least 2 processors to invert", DegenerateCoresError
    )
    if s > cores:
        raise SuperlinearError(
            f"superlinear speedup outside model: {s!r} exceeds processor count {cores}"
        )
    if s < 1.0:
        raise ValueError(f"speedup below 1 is a slowdown the model cannot express: {s!r}")
    [one_minus] = _from_speedups([s], cores)
    return AlphaEstimate(one_minus, EstimationMethod.FROM_SPEEDUP, cores)


def alpha_eff_from_efficiency(efficiency: float | Efficiency, cores: int) -> AlphaEstimate:
    """Invert a measured efficiency on ``cores`` processors into ``1 - alpha_eff``.

    Algebraically (1 - E) / (E * (k - 1)), evaluated as (1/E - 1) / (k - 1) so
    that model-generated efficiencies invert exactly. The boundary E = 1/k
    maps to one_minus_alpha = 1 without error.

    Raises:
        DegenerateCoresError: fewer than 2 processors, or a count that is no integer.
        SuperlinearError: E > 1 (raised when the Efficiency is constructed).
        InfeasibleTargetError: E < 1/k, which would be a slowdown; no serial
            fraction in [0, 1] reaches it.
    """
    e = _coerce_efficiency(efficiency)
    cores = _require_count(
        cores, "cores", 2, "needs at least 2 processors to invert", DegenerateCoresError
    )
    one_minus = _from_inverse_excess(e.inverse_excess, cores)
    if one_minus > 1.0:
        raise InfeasibleTargetError(
            f"efficiency {e.value!r} is below 1/{cores}, a slowdown the model cannot express"
        )
    return AlphaEstimate(one_minus, EstimationMethod.FROM_EFFICIENCY, cores)


def alpha_from_two_efficiencies(
    e1: float | Efficiency,
    k1: int,
    e2: float | Efficiency,
    k2: int,
) -> AlphaEstimate:
    """Estimate ``1 - alpha`` from efficiencies measured at two processor counts.

    In the model 1/E(k) is affine in k with slope exactly (1 - alpha), so the
    estimate is the two-point slope (1/E2 - 1/E1) / (k2 - k1).

    Raises:
        InconsistentMeasurementsError: the slope is negative or >= 1, meaning
            no parallel fraction in (0, 1] explains both measurements.
    """
    ea, eb = _coerce_efficiency(e1), _coerce_efficiency(e2)
    k1, k2 = _require_count(k1, "cores", 1), _require_count(k2, "cores", 1)
    if k1 == k2:
        raise ValueError("the two measurements must use different processor counts")
    slope = (eb.inverse_excess - ea.inverse_excess) / (k2 - k1)
    if not math.isfinite(slope):  # an efficiency below about 5.6e-309 has an infinite 1/E - 1
        raise InconsistentMeasurementsError(
            f"two-point slope of efficiencies {ea.value!r} at {k1} and {eb.value!r} at {k2} "
            "overflows the float range"
        )
    if not 0.0 <= slope < 1.0:
        raise InconsistentMeasurementsError(
            f"two-point slope {slope!r} admits no parallel fraction in (0, 1]"
        )
    return AlphaEstimate(slope, EstimationMethod.TWO_POINT_SLOPE, None)


def alpha_from_two_timings(t1: float, k1: int, t2: float, k2: int) -> AlphaEstimate:
    """Estimate ``1 - alpha`` from wall-clock times at two processor counts.

    Solves t1/t2 = ((1-a) + a/k1) / ((1-a) + a/k2) for the serial fraction.
    k1 = 1 is allowed (and is the best-conditioned baseline).

    Raises:
        InconsistentMeasurementsError: the timing ratio has no solution with
            a serial fraction in [0, 1].
    """
    k1, k2 = _require_count(k1, "cores", 1), _require_count(k2, "cores", 1)
    if k1 == k2:
        raise ValueError("the two timings must use different processor counts")
    t1, t2 = _require_positive(t1, "t1"), _require_positive(t2, "t2")
    ratio = t1 / t2
    if ratio == math.inf:
        raise InconsistentMeasurementsError(
            f"timing ratio {t1!r} / {t2!r} at counts {k1} and {k2} overflows the float range"
        )
    denom = (1.0 - 1.0 / k1) - ratio * (1.0 - 1.0 / k2)
    if denom == 0.0:
        raise InconsistentMeasurementsError(
            f"timing ratio {ratio!r} at counts {k1} and {k2} has no finite solution"
        )
    x = _snap_to_unit((ratio / k2 - 1.0 / k1) / denom)
    if not math.isfinite(x):  # only at k2 = 1, where x grows as the ratio does
        raise InconsistentMeasurementsError(
            f"timing ratio {t1!r} / {t2!r} at counts {k1} and {k2} implies a serial fraction "
            "that overflows the float range"
        )
    if not 0.0 <= x <= 1.0:
        raise InconsistentMeasurementsError(
            f"timing ratio {ratio!r} at counts {k1} and {k2} implies serial fraction {x!r}"
        )
    return AlphaEstimate(x, EstimationMethod.TWO_TIMINGS, None)


def max_speedup(one_minus_alpha: float) -> float:
    """The asymptotic speedup limit 1 / (1 - alpha) for infinitely many processors.

    Raises:
        UnboundedError: the serial fraction is zero.
        ModelError: the limit lies beyond the float range.
    """
    one_minus_alpha = _require_fraction(one_minus_alpha)
    if one_minus_alpha == 0.0:
        raise UnboundedError("a perfectly parallel program has no finite speedup limit")
    ceiling = 1.0 / one_minus_alpha
    if math.isinf(ceiling):
        raise ModelError(
            f"one_minus_alpha {one_minus_alpha!r} is too small for a finite speedup bound"
        )
    return ceiling
