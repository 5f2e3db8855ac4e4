"""Forward projections: what happens to a machine when it grows.

Every function here takes an effective serial fraction (stored as 1 - alpha)
as ground truth and extrapolates. The model is deliberately pessimistic about
nothing and optimistic about nothing: it assumes the serial fraction stays
fixed unless the caller scales it explicitly.

Throughput values are in Gflop/s, matching the record files, except in the
bounds budget: ``ContributionBudget.per_processor_flops`` and
``BoundsResult.saturation_flops`` are in flop/s. ``saturation_rmax`` gives its
ceiling in the unit of the per-processor rate it is given.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Sequence

from . import _HOMES
from .core import (
    Efficiency,
    _Checked,
    _efficiency,
    _require_count,
    _require_fraction,
    _require_nonnegative,
    _require_positive,
    _shown,
    alpha_eff_from_efficiency,
    efficiency_from_alpha,
    max_speedup,
)
from .errors import AlphaOverflowError, ModelError, UnboundedError, ZeroBudgetError

__all__ = _HOMES["projection"]

SPEED_OF_LIGHT_M_PER_S = 2.998e8

# The most points geometric_grid builds: far more than a plot or table needs, and
# few enough to hold in memory. A larger grid is rejected before any allocation.
_MAX_GRID_POINTS = 10**6


class CurvePoint(NamedTuple):
    """One point of a peak-performance sweep."""

    rpeak: float
    cores: int
    efficiency: float
    rmax: float


def geometric_grid(start: float, stop: float, points: int) -> list[float]:
    """Geometrically spaced values from start to stop inclusive.

    The endpoints are exact. When stop / start lies at or past the edge of the
    float range, where the plain step would overflow, the points are spaced
    in log space instead.

    Raises:
        ValueError: a point count that is no integer or below 2, or an endpoint
            that is not finite and > 0.
        ModelError: more than ``_MAX_GRID_POINTS`` (10**6) points.
    """
    points = _require_count(points, "points", 2, "a grid needs at least 2 points", maximum=math.inf)
    start, stop = _require_positive(start, "grid start"), _require_positive(stop, "grid stop")
    if points > _MAX_GRID_POINTS:
        raise ModelError(f"a grid has at most {_MAX_GRID_POINTS} points, got {_shown(points)}")
    ratio = (stop / start) ** (1.0 / (points - 1))
    try:
        grid = [start * ratio**i for i in range(points)]
    except OverflowError:  # a power past the float range raises rather than giving inf
        grid = [math.inf]
    # The points run monotonically to grid[-1], so only it can leave the float
    # range, which it does when stop / start lies at or past the edge of that range.
    if not 0.0 < grid[-1] < math.inf:
        log_start = math.log(start)
        step = (math.log(stop) - log_start) / (points - 1)
        grid = [start] + [math.exp(log_start + step * i) for i in range(1, points)]
    grid[-1] = stop
    return grid


def project_curve(
    base_cores: int,
    base_rpeak: float,
    one_minus_alpha: float,
    rpeak_grid: Sequence[float],
) -> list[CurvePoint]:
    """Expected measured throughput while growing a machine along its own design.

    Growth is homogeneous: per-core peak stays at base_rpeak / base_cores, so a
    target peak implies a core count (rounded to the nearest integer, floored
    at 1). Efficiency then follows from the serial fraction at that count.

    Raises:
        ModelError: a grid peak implies a core count beyond the float range.
    """
    base_cores = _require_count(base_cores, "cores", 1)
    x = _require_fraction(one_minus_alpha)
    base_rpeak = _require_positive(base_rpeak, "base_rpeak")

    points = []
    for rp in rpeak_grid:
        peak = _require_positive(rp, "grid rpeak")
        cores = _cores_at(peak, base_cores, base_rpeak)  # in [1, the float range]
        e = _efficiency(x, cores)
        points.append(CurvePoint(rpeak=peak, cores=cores, efficiency=e, rmax=e * peak))
    return points


def _cores_at(rpeak: float, base_cores: int, base_rpeak: float) -> int:
    """Core count reaching rpeak at the base per-core peak: rounded, at least 1."""
    cores = base_cores * rpeak / base_rpeak
    if math.isinf(cores):  # the product can overflow where the count does not
        cores = base_cores * (rpeak / base_rpeak)
    if math.isinf(cores):
        raise ModelError(
            f"core count for rpeak {rpeak!r} overflows the float range "
            f"(base peak {base_rpeak!r} on {base_cores} cores)"
        )
    return max(1, round(cores))


class ScalingScenario(_Checked, namedtuple(
    "ScalingScenario",
    "base_one_minus_alpha base_cores alpha_scale_factor base_rpeak target_cores target_rpeak",
)):
    """A hypothetical upgrade: new size and peak, optionally a new code base.

    Either target may be omitted; the missing one is derived assuming the
    per-core peak stays at base_rpeak / base_cores. alpha_scale_factor
    multiplies the serial fraction: values below 1 model software that
    parallelizes better after the upgrade, values above 1 the common case
    where more of the machine is spent on coordination.
    """

    __slots__ = ()

    def __new__(cls, base_one_minus_alpha: float, base_cores: int,
                alpha_scale_factor: float = 1.0, base_rpeak: float | None = None,
                target_cores: int | None = None, target_rpeak: float | None = None):
        base_one_minus_alpha = _require_fraction(base_one_minus_alpha, "base_one_minus_alpha")
        base_cores = _require_count(base_cores, "cores", 1)
        alpha_scale_factor = _require_nonnegative(alpha_scale_factor, "alpha_scale_factor")
        if base_rpeak is not None:
            base_rpeak = _require_positive(base_rpeak, "base_rpeak")
        if target_rpeak is not None:
            target_rpeak = _require_positive(target_rpeak, "target_rpeak")
        if target_cores is not None:
            target_cores = _require_count(target_cores, "cores", 1)
        if target_cores is None and target_rpeak is None:
            raise ValueError("a scenario needs target_cores, target_rpeak, or both")
        if (target_cores is None or target_rpeak is None) and base_rpeak is None:
            raise ValueError(
                "base_rpeak is required to derive the missing target from the per-core peak"
            )
        return tuple.__new__(cls, (base_one_minus_alpha, base_cores, alpha_scale_factor,
                                   base_rpeak, target_cores, target_rpeak))

    @property
    def resolved_target_cores(self) -> int:
        if self.target_cores is not None:
            return self.target_cores
        return _cores_at(self.target_rpeak, self.base_cores, self.base_rpeak)

    @property
    def resolved_target_rpeak(self) -> float:
        if self.target_rpeak is not None:
            return self.target_rpeak
        rpeak = self.target_cores * (self.base_rpeak / self.base_cores)
        if not math.isfinite(rpeak):
            raise ModelError(f"target peak of {self.target_cores} cores overflows the float range")
        return rpeak


class ScenarioResult(NamedTuple):
    one_minus_alpha: float
    efficiency: Efficiency
    rmax: float


def whatif(scenario: ScalingScenario) -> ScenarioResult:
    """Evaluate a scaling scenario.

    Raises:
        AlphaOverflowError: the scaled serial fraction exceeds 1, meaning the
            scenario left the model's domain.
        ModelError: the target peak implies a core count beyond the float range.
    """
    scaled = scenario.base_one_minus_alpha * scenario.alpha_scale_factor
    if scaled > 1.0:
        raise AlphaOverflowError(
            f"scaled serial fraction {scaled!r} exceeds 1 "
            f"(base {scenario.base_one_minus_alpha!r} x {scenario.alpha_scale_factor!r})"
        )
    eff = efficiency_from_alpha(scaled, scenario.resolved_target_cores)
    return ScenarioResult(
        one_minus_alpha=scaled,
        efficiency=eff,
        rmax=eff.value * scenario.resolved_target_rpeak,
    )


def required_one_minus_alpha(target_efficiency: float | Efficiency, cores: int) -> float:
    """The serial fraction a code must stay under to hit an efficiency at a core count.

    This is the efficiency inversion of :func:`alpha_eff_from_efficiency` read
    as a requirement; the boundary E = 1/cores maps to 1.

    Raises:
        InfeasibleTargetError: the target efficiency is below 1/cores, which no
            serial fraction in [0, 1] can satisfy.
    """
    return alpha_eff_from_efficiency(target_efficiency, cores).one_minus_alpha


def saturation_rmax(per_processor_rpeak: float, one_minus_alpha: float) -> float:
    """Measured-throughput ceiling as the machine grows without bound.

    Adding processors at fixed per-processor peak drives rmax toward
    per_processor_rpeak / (1 - alpha): past a certain size the serial
    fraction eats every further processor.

    Raises:
        UnboundedError: the serial fraction is zero, there is no ceiling.
        ModelError: the ceiling lies beyond the float range.
    """
    per_processor_rpeak = _require_positive(per_processor_rpeak, "per_processor_rpeak")
    one_minus_alpha = _require_fraction(one_minus_alpha)
    if one_minus_alpha == 0.0:
        raise UnboundedError("serial fraction is zero, throughput grows without bound")
    ceiling = per_processor_rpeak / one_minus_alpha
    if not math.isfinite(ceiling):
        raise ModelError(
            f"saturation throughput {per_processor_rpeak!r} / {one_minus_alpha!r} "
            "overflows the float range"
        )
    return ceiling


class ContributionBudget(_Checked, namedtuple(
    "ContributionBudget",
    "clock_hz total_time_s hardware_cycles os_cycles software_cycles physical_size_m "
    "per_processor_flops",
)):
    """Cycle budget of everything that cannot parallelize, for a bound on 1 - alpha.

    Cycle counts are per run of total_time_s on a clock_hz machine. The
    physical term converts the round trip across physical_size_m at the speed
    of light into cycles; it is the one contribution no engineering removes.
    """

    __slots__ = ()

    def __new__(cls, clock_hz: float, total_time_s: float, hardware_cycles: float = 0.0,
                os_cycles: float = 0.0, software_cycles: float = 0.0,
                physical_size_m: float = 0.0, per_processor_flops: float | None = None):
        return tuple.__new__(cls, (
            _require_positive(clock_hz, "clock_hz"),
            _require_positive(total_time_s, "total_time_s"),
            _require_nonnegative(hardware_cycles, "hardware_cycles"),
            _require_nonnegative(os_cycles, "os_cycles"),
            _require_nonnegative(software_cycles, "software_cycles"),
            _require_nonnegative(physical_size_m, "physical_size_m"),
            None if per_processor_flops is None
            else _require_positive(per_processor_flops, "per_processor_flops"),
        ))


class BoundsResult(NamedTuple):
    total_cycles: float
    propagation_cycles: float
    contributed_cycles: float
    min_one_minus_alpha: float
    max_speedup: float
    saturation_flops: float | None
    breakdown: dict[str, float]


def bounds(budget: ContributionBudget) -> BoundsResult:
    """Lower bound on 1 - alpha from a budget of inherently serial cycles.

    The bound is the contributed cycles over the run's total cycles; its
    reciprocal bounds speedup, and with a per-processor rate it also bounds
    sustained throughput via the saturation ceiling.

    Raises:
        ZeroBudgetError: every contribution is zero, no bound follows.
        ValueError: the run has no representable cycle count, or the
            contributions exceed it (a serial fraction above 1).
        ModelError: the contributions or a bound lie beyond the float range.
    """
    total_cycles = budget.clock_hz * budget.total_time_s
    _require_positive(total_cycles, "total_cycles")
    propagation_cycles = (
        2.0 * budget.physical_size_m / SPEED_OF_LIGHT_M_PER_S
    ) * budget.clock_hz
    parts = {
        "hardware": budget.hardware_cycles,
        "os": budget.os_cycles,
        "software": budget.software_cycles,
        "propagation": propagation_cycles,
    }
    try:
        contributed = math.fsum(parts.values())
    except OverflowError:  # fsum raises where a plain sum would reach inf
        raise ModelError(f"serial contributions overflow the float range: {parts}") from None
    if contributed == 0.0:
        raise ZeroBudgetError("all serial contributions are zero, no bound follows")

    min_oma = contributed / total_cycles
    # A budget that claims more serial cycles than the run has is not a bound.
    _require_fraction(min_oma, "min_one_minus_alpha")
    if min_oma == 0.0:
        raise ModelError(f"min_one_minus_alpha {min_oma!r} is too small for a finite speedup bound")
    speedup = max_speedup(min_oma)
    flops = budget.per_processor_flops
    saturation = None if flops is None else saturation_rmax(flops, min_oma)
    return BoundsResult(
        total_cycles=total_cycles,
        propagation_cycles=propagation_cycles,
        contributed_cycles=contributed,
        min_one_minus_alpha=min_oma,
        max_speedup=speedup,
        saturation_flops=saturation,
        breakdown={k: v / contributed for k, v in parts.items()},
    )
