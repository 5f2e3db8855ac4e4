"""Tests for scaling projections, what-if scenarios, and serial-cycle bounds."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from amdahl.core import Efficiency, efficiency_from_alpha
from amdahl.projection import (
    SPEED_OF_LIGHT_M_PER_S,
    ContributionBudget,
    ScalingScenario,
    bounds,
    geometric_grid,
    project_curve,
    required_one_minus_alpha,
    saturation_rmax,
    whatif,
)
from amdahl.errors import (
    AlphaOverflowError,
    DegenerateCoresError,
    InfeasibleTargetError,
    ModelError,
    UnboundedError,
    ZeroBudgetError,
)

fractions = st.floats(min_value=1e-12, max_value=1.0, allow_nan=False)
core_counts = st.integers(min_value=2, max_value=10**7)


class TestGeometricGrid:
    def test_endpoints_and_spacing(self):
        grid = geometric_grid(1.0, 1000.0, 4)
        assert grid[0] == 1.0
        assert grid[-1] == 1000.0
        assert grid[1] == pytest.approx(10.0, rel=1e-12)
        assert grid[2] == pytest.approx(100.0, rel=1e-12)

    def test_two_points_are_just_the_endpoints(self):
        assert geometric_grid(5.0, 7.0, 2) == [5.0, 7.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_grid(1.0, 10.0, 1)
        with pytest.raises(ValueError):
            geometric_grid(0.0, 10.0, 3)
        with pytest.raises(ValueError):
            geometric_grid(1.0, -10.0, 3)
        with pytest.raises(ValueError, match=r"^grid stop must be finite and > 0, got inf$"):
            geometric_grid(1.0, math.inf, 3)
        with pytest.raises(ValueError, match=r"^grid start must be finite and > 0, got nan$"):
            geometric_grid(math.nan, 1.0, 3)

    def test_grid_beyond_the_cap_is_rejected_before_it_is_built(self):
        with pytest.raises(ModelError, match=r"^a grid has at most 1000000 points, got 1000001$"):
            geometric_grid(1.0, 2.0, 10**6 + 1)

    @pytest.mark.parametrize(
        ("start", "stop", "points"),
        [
            (5e-324, 1.0, 3),  # stop / start overflows
            (1e-300, 1e300, 4),
            (1.0, sys.float_info.max, 5),  # the last power rounds past the float range
            (1e300, 1e-300, 4),  # stop / start underflows to 0
            (np.float64(1e-300), 1e300, 3),  # once a numpy overflow warning
        ],
    )
    def test_endpoints_further_apart_than_the_float_range(self, start, stop, points):
        grid = geometric_grid(start, stop, points)
        assert len(grid) == points
        assert (grid[0], grid[-1]) == (start, stop)
        assert all(type(x) is float and 0.0 < x < math.inf for x in grid)
        ascending = grid if stop > start else grid[::-1]
        assert all(a < b for a, b in zip(ascending, ascending[1:]))

    @given(
        st.floats(min_value=1e-150, max_value=1e150),
        st.floats(min_value=1e-150, max_value=1e150),
        st.integers(min_value=2, max_value=64),
    )
    def test_a_grid_inside_the_float_range_keeps_the_plain_step(self, start, stop, points):
        ratio = (stop / start) ** (1.0 / (points - 1))
        expected = [start * ratio**i for i in range(points - 1)] + [stop]
        assert geometric_grid(start, stop, points) == expected


class TestProjectCurve:
    def test_base_point_reproduces_starting_efficiency(self):
        base_cores, base_rpeak, oma = 10649600, 125000000.0, 3.273e-8
        (point,) = project_curve(base_cores, base_rpeak, oma, [base_rpeak])
        assert point.cores == base_cores
        expected = efficiency_from_alpha(oma, base_cores).value
        assert point.efficiency == pytest.approx(expected, rel=1e-12)
        assert point.rmax == pytest.approx(expected * base_rpeak, rel=1e-12)

    def test_cores_track_peak_homogeneously(self):
        points = project_curve(1000, 100.0, 0.01, [100.0, 200.0, 1000.0])
        assert [p.cores for p in points] == [1000, 2000, 10000]

    def test_tiny_target_floors_at_one_core(self):
        (point,) = project_curve(1000, 100.0, 0.01, [0.001])
        assert point.cores == 1
        assert point.efficiency == 1.0

    def test_perfectly_parallel_code_keeps_unit_efficiency(self):
        points = project_curve(100, 1.0, 0.0, geometric_grid(1.0, 1e6, 5))
        assert all(p.efficiency == 1.0 for p in points)
        assert all(p.rmax == p.rpeak for p in points)

    def test_efficiency_falls_and_rmax_rises_monotonically(self):
        grid = geometric_grid(0.125e9, 1e9, 16)
        points = project_curve(10649600, 0.125e9, 3.273e-8, grid)
        for a, b in zip(points, points[1:]):
            assert b.efficiency <= a.efficiency + 1e-15
            assert b.rmax >= a.rmax - 1e-6

    def test_rmax_respects_saturation_ceiling(self):
        base_cores, base_rpeak, oma = 1000, 1000.0, 1e-3
        ceiling = saturation_rmax(base_rpeak / base_cores, oma)
        points = project_curve(base_cores, base_rpeak, oma, geometric_grid(1e3, 1e12, 20))
        assert all(p.rmax <= ceiling * (1.0 + 1e-12) for p in points)

    def test_rmax_close_to_ceiling_when_cores_dominate(self):
        # Once cores * (1 - alpha) passes 100 the curve is within 1 percent
        # of the ceiling: the machine is deep into saturation.
        base_cores, base_rpeak, oma = 1000, 1000.0, 1e-3
        ceiling = saturation_rmax(base_rpeak / base_cores, oma)
        for rp in (2e5, 1e6, 1e9):
            (point,) = project_curve(base_cores, base_rpeak, oma, [rp])
            assert point.cores * oma > 100.0
            assert point.rmax == pytest.approx(ceiling, rel=1e-2)

    def test_core_count_beyond_the_float_range_is_rejected(self):
        with pytest.raises(ModelError, match=r"^core count for rpeak 1\.0 overflows the float"):
            project_curve(10, 1e-320, 1e-6, [1.0, 1e300])
        with pytest.raises(ModelError, match="overflows the float range"):
            project_curve(10, 1.0, 1e-6, [1e300, 1.7e308])
        # A count that is huge but finite is still a count.
        (point,) = project_curve(10, 1.0, 1e-6, [1e300])
        assert point.cores == round(1e301)

    def test_finite_count_whose_product_overflows_is_projected(self):
        # 10 * 1e308 overflows, but the count 10 * (1e308 / 1e10) is about 1e299.
        low, high = project_curve(10, 1e10, 1e-6, [1e307, 1e308])
        assert low.cores == round(10 * 1e307 / 1e10)
        assert high.cores == round(10 * (1e308 / 1e10))

    def test_validation(self):
        with pytest.raises(ValueError):
            project_curve(0, 100.0, 0.01, [1.0])
        with pytest.raises(ValueError):
            project_curve(10, -5.0, 0.01, [1.0])
        with pytest.raises(ValueError):
            project_curve(10, 100.0, 1.5, [1.0])
        with pytest.raises(ValueError):
            project_curve(10, 100.0, 0.01, [1.0, 0.0])

    @given(
        st.one_of(fractions, fractions.map(np.float64), st.sampled_from([0, 1])),
        core_counts,
        st.floats(min_value=1e-3, max_value=1e6),
        st.lists(st.floats(min_value=1e-300, max_value=1e290), max_size=8),
    )
    def test_points_equal_the_checked_forward_model(self, oma, base_cores, base_rpeak, grid):
        points = project_curve(base_cores, base_rpeak, oma, grid)
        expected = []
        for rp, point in zip(grid, points):
            e = efficiency_from_alpha(oma, point.cores).value
            expected.append(repr((rp, point.cores, e, e * rp)))
        assert [repr(tuple(p)) for p in points] == expected

    def test_grid_points_build_no_efficiency(self, monkeypatch):
        built = []
        original = Efficiency.__new__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Efficiency, "__new__", counting)
        assert len(project_curve(1000, 100.0, 0.01, geometric_grid(1.0, 1e6, 50))) == 50
        assert built == []

    @given(fractions, fractions, core_counts)
    def test_smaller_serial_fraction_never_hurts(self, a, b, base_cores):
        low, high = sorted((a, b))
        grid = [10.0, 1000.0, 100000.0]
        better = project_curve(base_cores, 100.0, low, grid)
        worse = project_curve(base_cores, 100.0, high, grid)
        for p_better, p_worse in zip(better, worse):
            assert p_better.rmax >= p_worse.rmax - 1e-9


class TestScenario:
    def test_requires_some_target(self):
        with pytest.raises(ValueError):
            ScalingScenario(base_one_minus_alpha=0.1, base_cores=100)

    def test_single_target_needs_base_rpeak(self):
        with pytest.raises(ValueError):
            ScalingScenario(base_one_minus_alpha=0.1, base_cores=100, target_cores=200)
        with pytest.raises(ValueError):
            ScalingScenario(base_one_minus_alpha=0.1, base_cores=100, target_rpeak=2000.0)

    def test_derives_missing_rpeak_from_per_core_peak(self):
        scenario = ScalingScenario(
            base_one_minus_alpha=0.1,
            base_cores=100,
            base_rpeak=1000.0,
            target_cores=250,
        )
        assert scenario.resolved_target_cores == 250
        assert scenario.resolved_target_rpeak == pytest.approx(2500.0, rel=1e-15)

    def test_derives_missing_cores_from_per_core_peak(self):
        scenario = ScalingScenario(
            base_one_minus_alpha=0.1,
            base_cores=100,
            base_rpeak=1000.0,
            target_rpeak=2499.0,
        )
        assert scenario.resolved_target_cores == 250
        assert scenario.resolved_target_rpeak == 2499.0

    def test_both_targets_need_no_base_rpeak(self):
        scenario = ScalingScenario(
            base_one_minus_alpha=0.1,
            base_cores=100,
            target_cores=200,
            target_rpeak=4000.0,
        )
        assert scenario.resolved_target_cores == 200
        assert scenario.resolved_target_rpeak == 4000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingScenario(base_one_minus_alpha=-0.1, base_cores=10, target_cores=20,
                            target_rpeak=1.0)
        with pytest.raises(ValueError):
            ScalingScenario(base_one_minus_alpha=0.1, base_cores=0, target_cores=20,
                            target_rpeak=1.0)
        with pytest.raises(ValueError):
            ScalingScenario(base_one_minus_alpha=0.1, base_cores=10, target_cores=20,
                            target_rpeak=1.0, alpha_scale_factor=-1.0)
        with pytest.raises(ValueError):
            ScalingScenario(base_one_minus_alpha=0.1, base_cores=10, target_cores=20,
                            target_rpeak=math.inf)


class TestWhatif:
    def test_identity_scenario_changes_nothing(self):
        scenario = ScalingScenario(
            base_one_minus_alpha=0.02,
            base_cores=512,
            target_cores=512,
            target_rpeak=1000.0,
        )
        result = whatif(scenario)
        assert result.one_minus_alpha == 0.02
        expected = efficiency_from_alpha(0.02, 512).value
        assert result.efficiency.value == expected
        assert result.rmax == expected * 1000.0

    def test_alpha_scale_multiplies_serial_fraction(self):
        base = ScalingScenario(
            base_one_minus_alpha=0.001, base_cores=1000,
            target_cores=4000, target_rpeak=4000.0,
        )
        doubled = ScalingScenario(
            base_one_minus_alpha=0.001, base_cores=1000, alpha_scale_factor=2.0,
            target_cores=4000, target_rpeak=4000.0,
        )
        assert whatif(doubled).one_minus_alpha == pytest.approx(0.002, rel=1e-15)
        assert whatif(doubled).rmax < whatif(base).rmax

    def test_zero_scale_is_perfect_parallelism(self):
        scenario = ScalingScenario(
            base_one_minus_alpha=0.5, base_cores=10, alpha_scale_factor=0.0,
            target_cores=100, target_rpeak=500.0,
        )
        result = whatif(scenario)
        assert result.one_minus_alpha == 0.0
        assert result.efficiency.value == 1.0
        assert result.rmax == 500.0

    def test_overflow_leaves_the_model(self):
        scenario = ScalingScenario(
            base_one_minus_alpha=0.5, base_cores=10, alpha_scale_factor=3.0,
            target_cores=100, target_rpeak=500.0,
        )
        with pytest.raises(AlphaOverflowError):
            whatif(scenario)

    @given(fractions, st.floats(min_value=0.0, max_value=1.0), core_counts)
    def test_more_serial_fraction_never_helps(self, base_oma, factor, cores):
        reference = ScalingScenario(
            base_one_minus_alpha=base_oma, base_cores=cores,
            target_cores=cores * 4, target_rpeak=1000.0,
        )
        relaxed = ScalingScenario(
            base_one_minus_alpha=base_oma, base_cores=cores, alpha_scale_factor=factor,
            target_cores=cores * 4, target_rpeak=1000.0,
        )
        assert whatif(relaxed).rmax >= whatif(reference).rmax - 1e-9

    def test_derived_core_count_beyond_the_float_range_is_rejected(self):
        scenario = ScalingScenario(
            base_one_minus_alpha=1e-6, base_cores=10, base_rpeak=1e-320, target_rpeak=1.0
        )
        with pytest.raises(ModelError, match="overflows the float range"):
            whatif(scenario)

    def test_derived_target_peak_beyond_the_float_range_is_rejected(self):
        scenario = ScalingScenario(1e-6, 1, base_rpeak=1e300, target_cores=10**10)
        with pytest.raises(ModelError, match="target peak of 10000000000 cores overflows"):
            scenario.resolved_target_rpeak
        with pytest.raises(ModelError):
            whatif(scenario)


class TestRequiredAlpha:
    def test_unit_efficiency_needs_no_serial_work(self):
        assert required_one_minus_alpha(1.0, 1000) == 0.0

    @pytest.mark.parametrize("efficiency, cores", [(0.25, 4), (1 / 3, 3), (1 / 7, 7)])
    def test_boundary_efficiency_allows_everything(self, efficiency, cores):
        assert required_one_minus_alpha(efficiency, cores) == 1.0

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            required_one_minus_alpha(0.1, 4)

    def test_needs_at_least_two_cores(self):
        with pytest.raises(DegenerateCoresError):
            required_one_minus_alpha(0.5, 1)

    @given(fractions, core_counts)
    def test_inverts_the_forward_model(self, one_minus_alpha, cores):
        eff = efficiency_from_alpha(one_minus_alpha, cores)
        back = required_one_minus_alpha(eff, cores)
        assert back == pytest.approx(one_minus_alpha, rel=1e-12)


class TestSaturation:
    def test_reference_value(self):
        assert saturation_rmax(10.0, 0.001) == pytest.approx(10000.0, rel=1e-15)

    def test_fully_serial_saturates_at_one_processor(self):
        assert saturation_rmax(42.0, 1.0) == 42.0

    def test_unbounded_when_perfectly_parallel(self):
        with pytest.raises(UnboundedError):
            saturation_rmax(10.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            saturation_rmax(0.0, 0.5)
        with pytest.raises(ValueError):
            saturation_rmax(10.0, 1.5)

    def test_ceiling_beyond_the_float_range_is_rejected(self):
        with pytest.raises(ModelError, match="overflows"):
            saturation_rmax(1e308, 1e-320)
        assert saturation_rmax(1e300, 1e-7) == pytest.approx(1e307, rel=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e6), fractions)
    def test_scales_linearly_in_per_processor_peak(self, per, oma):
        assert saturation_rmax(2.0 * per, oma) == pytest.approx(
            2.0 * saturation_rmax(per, oma), rel=1e-12
        )


class TestBounds:
    def test_speed_of_light_constant(self):
        assert SPEED_OF_LIGHT_M_PER_S == 2.998e8

    def test_propagation_term(self):
        budget = ContributionBudget(clock_hz=1e9, total_time_s=1.0, physical_size_m=100.0)
        result = bounds(budget)
        expected = (2.0 * 100.0 / 2.998e8) * 1e9
        assert result.propagation_cycles == expected
        assert result.contributed_cycles == expected
        assert result.breakdown["propagation"] == 1.0

    def test_total_cycles(self):
        budget = ContributionBudget(clock_hz=2e9, total_time_s=3.0, os_cycles=1.0)
        assert bounds(budget).total_cycles == 6e9

    def test_bound_and_speedup_are_reciprocal(self):
        budget = ContributionBudget(
            clock_hz=1e9, total_time_s=10.0,
            hardware_cycles=5e3, os_cycles=3e3, software_cycles=2e3,
        )
        result = bounds(budget)
        assert result.min_one_minus_alpha == pytest.approx(1e4 / 1e10, rel=1e-12)
        assert result.max_speedup * result.min_one_minus_alpha == pytest.approx(1.0, rel=1e-12)

    def test_breakdown_shares_sum_to_one(self):
        budget = ContributionBudget(
            clock_hz=1e9, total_time_s=1.0,
            hardware_cycles=1.0, os_cycles=2.0, software_cycles=3.0, physical_size_m=10.0,
        )
        shares = bounds(budget).breakdown
        assert set(shares) == {"hardware", "os", "software", "propagation"}
        assert math.fsum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(s >= 0.0 for s in shares.values())

    def test_saturation_only_with_per_processor_rate(self):
        base = dict(clock_hz=1e9, total_time_s=1.0, os_cycles=100.0)
        assert bounds(ContributionBudget(**base)).saturation_flops is None
        result = bounds(ContributionBudget(**base, per_processor_flops=2e9))
        assert result.saturation_flops == pytest.approx(2e9 / (100.0 / 1e9), rel=1e-12)

    def test_zero_budget(self):
        with pytest.raises(ZeroBudgetError):
            bounds(ContributionBudget(clock_hz=1e9, total_time_s=1.0))

    def test_contributions_above_the_run_are_rejected(self):
        budget = ContributionBudget(clock_hz=1.0, total_time_s=1.0, hardware_cycles=5.0)
        with pytest.raises(ValueError, match="min_one_minus_alpha must lie in"):
            bounds(budget)

    def test_underflowing_cycle_count_is_rejected(self):
        budget = ContributionBudget(clock_hz=1e-320, total_time_s=1e-320, hardware_cycles=1.0)
        with pytest.raises(ValueError, match="total_cycles must be finite and > 0"):
            bounds(budget)

    @pytest.mark.parametrize(
        ("budget", "message"),
        [
            # the serial fraction underflows to 0
            (dict(clock_hz=0.5, total_time_s=1e30, os_cycles=1e-300, per_processor_flops=1e15),
             "min_one_minus_alpha 0.0 is too small"),
            # a subnormal fraction whose reciprocal, the speedup bound, overflows
            (dict(clock_hz=3.0, total_time_s=0.5, hardware_cycles=1e-320),
             "is too small for a finite speedup bound"),
            # a finite speedup bound whose throughput ceiling overflows
            (dict(clock_hz=1.0, total_time_s=1.0, hardware_cycles=1e-300,
                  per_processor_flops=1e18),
             "saturation throughput 1e\\+18 / 1e-300 overflows"),
            # contributions whose exact sum lies beyond the float range
            (dict(clock_hz=1.0, total_time_s=1e-300, hardware_cycles=1e308, os_cycles=1.7e308),
             "serial contributions overflow the float range"),
        ],
        ids=["fraction-underflows", "speedup-overflows", "throughput-overflows", "sum-overflows"],
    )
    def test_bounds_beyond_the_float_range_are_rejected(self, budget, message):
        with pytest.raises(ModelError, match=message):
            bounds(ContributionBudget(**budget))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ContributionBudget(clock_hz=0.0, total_time_s=1.0)
        with pytest.raises(ValueError):
            ContributionBudget(clock_hz=1e9, total_time_s=-1.0)
        with pytest.raises(ValueError):
            ContributionBudget(clock_hz=1e9, total_time_s=1.0, os_cycles=-5.0)
        with pytest.raises(ValueError):
            ContributionBudget(clock_hz=1e9, total_time_s=1.0, physical_size_m=math.nan)
        with pytest.raises(ValueError):
            ContributionBudget(clock_hz=1e9, total_time_s=1.0, per_processor_flops=0.0)
