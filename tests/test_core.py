"""Unit and property tests for the closed-form scaling relations."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amdahl.core import (
    AlphaEstimate,
    Efficiency,
    EstimationMethod,
    Speedup,
    _efficiency,
    _from_inverse_excess,
    _from_speedups,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    alpha_from_two_efficiencies,
    alpha_from_two_timings,
    efficiency_from_alpha,
    max_speedup,
    speedup_from_alpha,
)
from amdahl.errors import (
    DegenerateCoresError,
    InconsistentMeasurementsError,
    ModelError,
    SuperlinearError,
    UnboundedError,
)

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
small_fractions = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)
core_counts = st.integers(min_value=2, max_value=10**7)


class TestForwardModel:
    def test_reference_points(self):
        assert speedup_from_alpha(0.25, 3).value == 2.0
        assert speedup_from_alpha(0.0, 64).value == 64.0
        assert speedup_from_alpha(1.0, 64).value == 1.0
        assert speedup_from_alpha(0.5, 1).value == 1.0

    def test_efficiency_reference_points(self):
        assert efficiency_from_alpha(0.0, 1000).value == 1.0
        assert efficiency_from_alpha(0.0, 1000).inverse_excess == 0.0
        assert efficiency_from_alpha(0.3, 1).value == 1.0
        e = efficiency_from_alpha(1.0, 4)
        assert e.value == 0.25
        assert e.inverse_excess == 3.0

    @given(fractions, core_counts)
    def test_speedup_stays_within_model_range(self, one_minus_alpha, cores):
        s = speedup_from_alpha(one_minus_alpha, cores).value
        assert 1.0 <= s <= cores

    @given(fractions, core_counts)
    def test_efficiency_and_speedup_agree(self, one_minus_alpha, cores):
        s = speedup_from_alpha(one_minus_alpha, cores).value
        e = efficiency_from_alpha(one_minus_alpha, cores).value
        assert e * cores == pytest.approx(s, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            speedup_from_alpha(-0.1, 4)
        with pytest.raises(ValueError):
            speedup_from_alpha(1.1, 4)
        with pytest.raises(ValueError):
            speedup_from_alpha(math.nan, 4)
        with pytest.raises(ValueError):
            speedup_from_alpha(0.5, 0)


class TestValueTypes:
    def test_speedup_validation(self):
        with pytest.raises(ValueError):
            Speedup(0.0)
        with pytest.raises(ValueError):
            Speedup(-2.0)
        with pytest.raises(ValueError):
            Speedup(math.inf)

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            Efficiency(0.0)
        with pytest.raises(ValueError):
            Efficiency(math.nan)
        with pytest.raises(SuperlinearError):
            Efficiency(1.2)

    def test_efficiency_derives_inverse_excess(self):
        e = Efficiency(0.5)
        assert e.inverse_excess == 1.0
        assert Efficiency(1.0).inverse_excess == 0.0

    def test_efficiency_checks_supplied_inverse_excess(self):
        Efficiency(0.5, inverse_excess=1.0)
        with pytest.raises(ValueError):
            Efficiency(0.5, inverse_excess=2.0)
        with pytest.raises(ValueError):
            Efficiency(0.5, inverse_excess=-1.0)

    def test_alpha_estimate_validation(self):
        est = AlphaEstimate(0.25, EstimationMethod.SIMULATED, 4)
        assert est.alpha == 0.75
        with pytest.raises(ValueError):
            AlphaEstimate(1.5, EstimationMethod.SIMULATED)
        with pytest.raises(ValueError):
            AlphaEstimate(-0.1, EstimationMethod.SIMULATED)
        with pytest.raises(ValueError):
            AlphaEstimate(0.5, EstimationMethod.SIMULATED, cores=0)

    def test_method_labels_are_stable(self):
        # The CLI prints these; changing one silently breaks downstream parsing.
        assert {m.value for m in EstimationMethod} == {
            "speedup", "efficiency", "two-point-slope", "two-timings", "simulated",
        }


class TestInverseFromSpeedup:
    def test_boundaries(self):
        assert alpha_eff_from_speedup(4.0, 4).one_minus_alpha == 0.0
        assert alpha_eff_from_speedup(1.0, 4).one_minus_alpha == 1.0

    def test_reference_point(self):
        est = alpha_eff_from_speedup(2.0, 3)
        assert est.one_minus_alpha == 0.25
        assert est.alpha == 0.75
        assert est.method is EstimationMethod.FROM_SPEEDUP
        assert est.cores == 3

    def test_accepts_wrapped_value(self):
        assert alpha_eff_from_speedup(Speedup(2.0), 3).one_minus_alpha == 0.25

    def test_error_taxonomy(self):
        with pytest.raises(SuperlinearError):
            alpha_eff_from_speedup(5.0, 4)
        with pytest.raises(ValueError):
            alpha_eff_from_speedup(0.5, 4)
        with pytest.raises(DegenerateCoresError):
            alpha_eff_from_speedup(1.0, 1)

    @given(small_fractions, core_counts)
    def test_round_trip_through_speedup(self, one_minus_alpha, cores):
        # The bare speedup value cannot carry full precision near S = k, so
        # this round trip is looser than the efficiency one below.
        s = speedup_from_alpha(one_minus_alpha, cores)
        back = alpha_eff_from_speedup(s, cores).one_minus_alpha
        assert back == pytest.approx(one_minus_alpha, rel=1e-7, abs=1e-18)

    def test_matches_textbook_serial_fraction_metric(self):
        # Independent algebraic form: (1/S - 1/k) / (1 - 1/k).
        for s, k in ((2.0, 3), (1.7, 8), (999.0, 1000), (1.01, 2)):
            textbook = (1.0 / s - 1.0 / k) / (1.0 - 1.0 / k)
            got = alpha_eff_from_speedup(s, k).one_minus_alpha
            assert got == pytest.approx(textbook, rel=1e-12)


class TestInverseFromEfficiency:
    def test_boundaries(self):
        assert alpha_eff_from_efficiency(1.0, 64).one_minus_alpha == 0.0
        assert alpha_eff_from_efficiency(0.25, 4).one_minus_alpha == 1.0
        # E exactly 1/k lands on the boundary even when 1/k is inexact.
        assert alpha_eff_from_efficiency(1.0 / 3.0, 3).one_minus_alpha == 1.0

    def test_below_one_over_k(self):
        with pytest.raises(ValueError):
            alpha_eff_from_efficiency(0.1, 4)

    def test_core_count_beyond_the_float_range(self):
        with pytest.raises(ModelError, match="cores must be <= .*, got a 1329-bit integer"):
            alpha_eff_from_efficiency(0.5, 10**400)
        with pytest.raises(ModelError, match="cores must be <= .*, got inf"):
            speedup_from_alpha(0.5, math.inf)

    def test_degenerate_cores(self):
        with pytest.raises(DegenerateCoresError):
            alpha_eff_from_efficiency(0.9, 1)

    @given(fractions, core_counts)
    def test_round_trip_is_tight(self, one_minus_alpha, cores):
        e = efficiency_from_alpha(one_minus_alpha, cores)
        back = alpha_eff_from_efficiency(e, cores).one_minus_alpha
        if one_minus_alpha == 0.0:
            assert back == 0.0
        else:
            assert abs(back - one_minus_alpha) / one_minus_alpha <= 1e-12

    def test_round_trip_survives_extreme_scales(self):
        for one_minus_alpha in (1e-300, 1e-17, 3.273e-8, 1e-9):
            for cores in (2, 10649600):
                e = efficiency_from_alpha(one_minus_alpha, cores)
                back = alpha_eff_from_efficiency(e, cores).one_minus_alpha
                assert abs(back - one_minus_alpha) / one_minus_alpha <= 1e-12

    def test_bare_float_efficiency_is_good_enough_at_coarse_scales(self):
        est = alpha_eff_from_efficiency(0.69, 16)
        assert est.one_minus_alpha == pytest.approx(0.029951690821256045, rel=1e-12)


class TestTwoPointEstimators:
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_slope_recovers_planted_fraction_exactly(self, one_minus_alpha):
        e1 = efficiency_from_alpha(one_minus_alpha, 2)
        e2 = efficiency_from_alpha(one_minus_alpha, 3)
        est = alpha_from_two_efficiencies(e1, 2, e2, 3)
        assert est.one_minus_alpha == one_minus_alpha
        assert est.method is EstimationMethod.TWO_POINT_SLOPE
        assert est.cores is None

    @given(
        st.floats(min_value=1e-12, max_value=0.999),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=501, max_value=100000),
    )
    def test_slope_recovers_planted_fraction_for_general_pairs(self, one_minus_alpha, k1, k2):
        e1 = efficiency_from_alpha(one_minus_alpha, k1)
        e2 = efficiency_from_alpha(one_minus_alpha, k2)
        got = alpha_from_two_efficiencies(e1, k1, e2, k2).one_minus_alpha
        assert got == pytest.approx(one_minus_alpha, rel=1e-12)

    def test_rejects_contradictory_measurements(self):
        # Efficiency improving with more processors: negative slope.
        with pytest.raises(InconsistentMeasurementsError):
            alpha_from_two_efficiencies(0.5, 4, 0.9, 8)
        # Slope of 1 or more: no admissible parallel fraction.
        with pytest.raises(InconsistentMeasurementsError):
            alpha_from_two_efficiencies(Efficiency(1.0), 1, Efficiency(1.0 / 3.0), 2)

    @pytest.mark.parametrize(
        "args, shown",
        [
            # Each inverse excess overflows to inf, so the slope is inf - inf: nan.
            ((5e-324, 2, 5e-324, 3), "5e-324 at 2 and 5e-324 at 3"),
            ((2.2e-309, 7, 2.2e-309, 1000001), "2.2e-309 at 7 and 2.2e-309 at 1000001"),
            # One inverse excess overflows, so the slope is inf.
            ((5e-324, 17, 0.3, 9), "5e-324 at 17 and 0.3 at 9"),
        ],
    )
    def test_slope_beyond_the_float_range(self, args, shown):
        # The message once gave the slope itself: nan or inf.
        with pytest.raises(InconsistentMeasurementsError) as excinfo:
            alpha_from_two_efficiencies(*args)
        assert str(excinfo.value) == (
            f"two-point slope of efficiencies {shown} overflows the float range"
        )

    def test_rejects_equal_counts(self):
        with pytest.raises(ValueError):
            alpha_from_two_efficiencies(0.8, 4, 0.7, 4)

    def test_timings_reference_point(self):
        # t(k) proportional to (1 - a) + a/k with 1 - a = 0.2.
        est = alpha_from_two_timings(10.0, 1, 4.0, 4)
        assert est.one_minus_alpha == 0.2
        assert est.method is EstimationMethod.TWO_TIMINGS

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.integers(min_value=2, max_value=1000),
    )
    def test_timings_recover_planted_fraction(self, one_minus_alpha, k2):
        # The floor keeps the planted fraction away from 0, where rounding in
        # the timing ratio can push the implied fraction epsilon-negative and
        # the estimator rightly refuses to guess.
        t1 = one_minus_alpha + (1.0 - one_minus_alpha) / 1
        t2 = one_minus_alpha + (1.0 - one_minus_alpha) / k2
        got = alpha_from_two_timings(t1, 1, t2, k2).one_minus_alpha
        assert got == pytest.approx(one_minus_alpha, rel=1e-9, abs=1e-12)

    def test_timings_equal_times_mean_no_speedup(self):
        assert alpha_from_two_timings(5.0, 2, 5.0, 8).one_minus_alpha == 1.0

    def test_timings_error_taxonomy(self):
        with pytest.raises(InconsistentMeasurementsError):
            alpha_from_two_timings(1.0, 1, 0.4, 2)  # faster than k2 allows
        # t1/t2 = (1 - 1/2) / (1 - 1/4): the ratio sits exactly at the pole.
        with pytest.raises(
            InconsistentMeasurementsError,
            match=r"^timing ratio 0\.6666666666666666 at counts 2 and 4 has no finite solution$",
        ):
            alpha_from_two_timings(2.0, 2, 3.0, 4)
        with pytest.raises(ValueError):
            alpha_from_two_timings(1.0, 4, 2.0, 4)
        with pytest.raises(ValueError):
            alpha_from_two_timings(-1.0, 1, 2.0, 4)
        with pytest.raises(ValueError):
            alpha_from_two_timings(1.0, 1, 0.0, 4)

    def test_timing_ratio_beyond_the_float_range(self):
        # The ratio overflowed to inf, and the message gave a serial fraction of nan.
        with pytest.raises(
            InconsistentMeasurementsError,
            match=r"^timing ratio 1e\+308 / 5e-324 at counts 1 and 2 overflows the float range$",
        ):
            alpha_from_two_timings(1e308, 1, 5e-324, 2)

    def test_serial_fraction_beyond_the_float_range(self):
        # With k2 = 1 the solution grows as the ratio does, and overflowed to inf.
        with pytest.raises(InconsistentMeasurementsError) as excinfo:
            alpha_from_two_timings(1e308, 2, 1.0, 1)
        assert str(excinfo.value) == (
            "timing ratio 1e+308 / 1.0 at counts 2 and 1 implies a serial fraction "
            "that overflows the float range"
        )


class TestMaxSpeedup:
    def test_reference_points(self):
        assert max_speedup(0.01) == 100.0
        assert max_speedup(1.0) == 1.0

    def test_perfectly_parallel_is_unbounded(self):
        with pytest.raises(UnboundedError):
            max_speedup(0.0)

    def test_limit_beyond_the_float_range(self):
        # a subnormal fraction whose reciprocal overflows
        with pytest.raises(ModelError, match="is too small for a finite speedup bound") as info:
            max_speedup(1e-320)
        assert not isinstance(info.value, UnboundedError)

    @given(small_fractions, core_counts)
    def test_dominates_any_finite_machine(self, one_minus_alpha, cores):
        s = speedup_from_alpha(one_minus_alpha, cores).value
        assert s <= max_speedup(one_minus_alpha) * (1.0 + 1e-12)


def same_bits(a: float | None, b: float | None) -> bool:
    """a and b are the same float, bit for bit (repr is the shortest round trip), or both None."""
    return type(a) is type(b) and repr(a) == repr(b)


wide_counts = st.one_of(core_counts, st.integers(min_value=2, max_value=2**70))


def scalar_from_speedup(s: float, k: int) -> float:
    """1 - alpha of one speedup s on k processors, for 2 <= k and 1 <= s <= k.

    The kernel's one-point form, written out independently of core: k - s in
    parts where (k - 1) * s reaches 2**53, a second division where that product
    passes the float range, and a result rounded just past 1 snapped back to 1.
    """
    denom = (k - 1) * s
    if denom < 2.0**53:
        x = (k - s) / denom
    else:
        numer = (k - int(s)) - (s - int(s))
        x = numer / (k - 1) / s if denom > sys.float_info.max else numer / denom
    return 1.0 if 1.0 < x <= 1.0 + 1e-12 else x


def read_back(s: float, k: int) -> float | None:
    """The read-back rule of a simulated speedup: None below 1, and above k read as k."""
    return None if s < 1.0 else scalar_from_speedup(min(s, float(k)), k)


# (k - 1) * k passes 2**53 between these two counts, where the inline form ends.
INLINE_LAST = 94_906_266
INLINE_BOUND = [INLINE_LAST - 1, INLINE_LAST, INLINE_LAST + 1, INLINE_LAST + 2]


@st.composite
def count_and_speedup(draw):
    """A count from 2 to 2**70 and a speedup in [1, k]."""
    k = draw(st.one_of(wide_counts, st.sampled_from(INLINE_BOUND)))
    # float(k) rounds above a count past 2**53 about half the time: s stays <= k.
    top = float(k) if float(k) <= k else math.nextafter(float(k), 0.0)
    return k, draw(st.floats(min_value=1.0, max_value=top))


class TestKernels:
    """Each kernel gives exactly what an independent evaluation gives on valid inputs."""

    @given(count_and_speedup())
    @example((INLINE_LAST, 1.0))
    @example((INLINE_LAST, 1.5))
    @example((INLINE_LAST, float(INLINE_LAST)))
    @example((INLINE_LAST, INLINE_LAST - 0.5))
    @example((INLINE_LAST + 1, 1.0))
    @example((INLINE_LAST + 1, 1.5))
    @example((INLINE_LAST + 1, float(INLINE_LAST + 1)))
    @example((INLINE_LAST + 1, INLINE_LAST + 0.5))
    @example((2**53 + 3, 2.0**53))
    @example((2**70, 2.0**70))
    def test_from_speedups_matches_the_scalar_form(self, case):
        k, s = case
        [got] = _from_speedups([s], k)
        assert same_bits(got, scalar_from_speedup(s, k))

    def test_the_examples_straddle_the_inline_bound(self):
        assert (INLINE_LAST - 1) * INLINE_LAST < 2**53 <= INLINE_LAST * (INLINE_LAST + 1)

    @given(st.one_of(wide_counts, st.sampled_from(INLINE_BOUND)), st.data())
    def test_a_row_reads_each_speedup_back(self, cores, data):
        # Below 1, inside [1, k], and a few ulp above k, in one list.
        ulps_above = st.integers(min_value=1, max_value=4).map(
            lambda n: float(cores) + n * math.ulp(float(cores)))
        speedups = data.draw(st.lists(st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.floats(min_value=1.0, max_value=float(cores)),
            ulps_above,
        ), max_size=20))
        got = _from_speedups(speedups, cores)
        expected = [read_back(s, cores) for s in speedups]
        assert len(got) == len(expected) and all(map(same_bits, got, expected))

    @given(wide_counts, st.data())
    def test_from_inverse_excess(self, cores, data):
        e = Efficiency(data.draw(st.floats(min_value=1.0 / cores, max_value=1.0)))
        expected = alpha_eff_from_efficiency(e, cores).one_minus_alpha
        assert same_bits(_from_inverse_excess(e.inverse_excess, cores), expected)

    @given(fractions, wide_counts)
    def test_from_inverse_excess_of_a_modeled_efficiency(self, one_minus_alpha, cores):
        e = efficiency_from_alpha(one_minus_alpha, cores)
        expected = alpha_eff_from_efficiency(e, cores).one_minus_alpha
        assert same_bits(_from_inverse_excess(e.inverse_excess, cores), expected)

    @given(fractions, st.one_of(st.integers(min_value=1, max_value=10**7), wide_counts))
    def test_efficiency(self, one_minus_alpha, cores):
        expected = efficiency_from_alpha(one_minus_alpha, cores).value
        assert same_bits(_efficiency(one_minus_alpha, cores), expected)
