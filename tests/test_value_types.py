"""The contract every public value type keeps: an immutable, hashable named tuple.

Each type keeps its field names, order and defaults, keyword construction, its
``repr`` and its checks. The seven validated types run their checks in
``__new__``, so ``_make`` and ``_replace`` cannot build a value the
constructor would reject.
"""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from amdahl.core import AlphaEstimate, Efficiency, EstimationMethod, Speedup
from amdahl.dataset import (
    Architecture,
    Benchmark,
    DerivedMetrics,
    MachineRecord,
    RegressionFit,
    YearlyEfficiency,
)
from amdahl.errors import InvalidWorkloadError, SuperlinearError
from amdahl.projection import (
    BoundsResult,
    ContributionBudget,
    CurvePoint,
    ScalingScenario,
    ScenarioResult,
)
from amdahl.workload import (
    ParallelPhase,
    ScheduleResult,
    SequentialPhase,
    SweepPoint,
    TimelineSegment,
    WorkloadSpec,
)

RECORD = dict(
    year=2017, rank=1, name="Sunway TaihuLight", arch=Architecture.MPP, cores=10649600,
    rmax=93014594.0, rpeak=125435904.0, benchmark=Benchmark.HPL,
)
SPEC = dict(processors=2, phases=(SequentialPhase(1.0), ParallelPhase((1.0, 2.0))))

# (type, field names in order, keyword arguments, the values of the fields not given)
CASES = [
    (AlphaEstimate, "one_minus_alpha method cores",
     dict(one_minus_alpha=0.25, method=EstimationMethod.FROM_SPEEDUP), dict(cores=None)),
    (Speedup, "value", dict(value=2.0), {}),
    (Efficiency, "value inverse_excess", dict(value=0.5), dict(inverse_excess=1.0)),
    (MachineRecord, "year rank name arch cores rmax rpeak benchmark", RECORD, {}),
    (DerivedMetrics, "efficiency one_minus_alpha_eff",
     dict(efficiency=Efficiency(0.5), one_minus_alpha_eff=0.1), {}),
    (RegressionFit, "slope intercept r_squared n",
     dict(slope=-0.1, intercept=200.0, r_squared=0.9, n=5), {}),
    (YearlyEfficiency, "year mean_efficiency sd_efficiency",
     dict(year=2017, mean_efficiency=0.6, sd_efficiency=0.1), {}),
    (CurvePoint, "rpeak cores efficiency rmax",
     dict(rpeak=2.0, cores=20, efficiency=0.5, rmax=1.0), {}),
    (ScalingScenario,
     "base_one_minus_alpha base_cores alpha_scale_factor base_rpeak target_cores target_rpeak",
     dict(base_one_minus_alpha=1e-6, base_cores=10, base_rpeak=1.0, target_cores=20),
     dict(alpha_scale_factor=1.0, target_rpeak=None)),
    (ScenarioResult, "one_minus_alpha efficiency rmax",
     dict(one_minus_alpha=1e-6, efficiency=Efficiency(0.5), rmax=1.0), {}),
    (ContributionBudget,
     "clock_hz total_time_s hardware_cycles os_cycles software_cycles physical_size_m "
     "per_processor_flops",
     dict(clock_hz=1e9, total_time_s=1.0),
     dict(hardware_cycles=0.0, os_cycles=0.0, software_cycles=0.0, physical_size_m=0.0,
          per_processor_flops=None)),
    (BoundsResult,
     "total_cycles propagation_cycles contributed_cycles min_one_minus_alpha max_speedup "
     "saturation_flops breakdown",
     dict(total_cycles=1e9, propagation_cycles=0.0, contributed_cycles=1.0,
          min_one_minus_alpha=1e-9, max_speedup=1e9, saturation_flops=None,
          breakdown={"hardware": 1.0, "os": 0.0, "software": 0.0, "propagation": 0.0}), {}),
    (SequentialPhase, "duration", dict(duration=1.5), {}),
    (ParallelPhase, "chunks dispatch_overhead collect_overhead", dict(chunks=(1.0, 2.0)),
     dict(dispatch_overhead=0.0, collect_overhead=0.0)),
    (WorkloadSpec, "processors phases", SPEC, {}),
    (TimelineSegment, "processor start end label",
     dict(processor=1, start=0.0, end=2.0, label="chunk2.2"), {}),
    (ScheduleResult,
     "serial_time parallel_time speedup alpha_eff per_processor_busy per_processor_idle "
     "timeline",
     dict(serial_time=3.0, parallel_time=2.0, speedup=Speedup(1.5),
          alpha_eff=AlphaEstimate(1 / 3, EstimationMethod.SIMULATED, 2),
          per_processor_busy=(2.0, 1.0), per_processor_idle=(0.0, 1.0),
          timeline=(TimelineSegment(0, 0.0, 2.0, "chunk1.1"),)), {}),
    (SweepPoint, "overhead_ratio sequential_ratio one_minus_alpha_eff",
     dict(overhead_ratio=0.5, sequential_ratio=1.0, one_minus_alpha_eff=None), {}),
]
IDS = [case[0].__name__ for case in CASES]


def build(case):
    cls, _, kwargs, _ = case
    return cls(**kwargs)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_keyword_construction_fills_the_defaults(case):
    cls, fields, kwargs, rest = case
    value = build(case)
    assert cls._fields == tuple(fields.split())
    assert value._asdict() == {name: {**kwargs, **rest}[name] for name in cls._fields}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_fields_cannot_be_assigned(case):
    value = build(case)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 1.0)
    with pytest.raises(AttributeError):
        value.note = "no new attributes either"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(case):
    value = build(case)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value


HASHABLE = [case for case in CASES if case[0] is not BoundsResult]


@pytest.mark.parametrize("case", HASHABLE, ids=[case[0].__name__ for case in HASHABLE])
def test_equal_values_hash_equal(case):
    assert hash(build(case)) == hash(build(case))


def test_bounds_result_is_unhashable_for_its_breakdown_dict():
    with pytest.raises(TypeError):
        hash(build(CASES[IDS.index("BoundsResult")]))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_values_are_tuples(case):
    value = build(case)
    first, *_ = value
    assert first == value[0] == getattr(value, value._fields[0])
    assert value == tuple(value)


@pytest.mark.parametrize(
    ("value", "text"),
    [
        (AlphaEstimate(0.25, EstimationMethod.FROM_SPEEDUP, 4),
         "AlphaEstimate(one_minus_alpha=0.25, method=<EstimationMethod.FROM_SPEEDUP: "
         "'speedup'>, cores=4)"),
        (Efficiency(0.5), "Efficiency(value=0.5, inverse_excess=1.0)"),
        (MachineRecord(**RECORD),
         "MachineRecord(year=2017, rank=1, name='Sunway TaihuLight', "
         "arch=<Architecture.MPP: 'MPP'>, cores=10649600, rmax=93014594.0, "
         "rpeak=125435904.0, benchmark=<Benchmark.HPL: 'HPL'>)"),
        (WorkloadSpec(**SPEC),
         "WorkloadSpec(processors=2, phases=(SequentialPhase(duration=1.0), "
         "ParallelPhase(chunks=(1.0, 2.0), dispatch_overhead=0.0, collect_overhead=0.0)))"),
    ],
    ids=["AlphaEstimate", "Efficiency", "MachineRecord", "WorkloadSpec"],
)
def test_repr(value, text):
    assert repr(value) == text


def test_workload_spec_stores_its_phases_as_a_tuple():
    spec = WorkloadSpec(2, [SequentialPhase(1.0)])
    assert spec.phases == (SequentialPhase(1.0),)
    assert isinstance(spec.phases, tuple)


# (a valid value, a field change its constructor rejects, the error it raises)
INVALID_CHANGES = [
    (AlphaEstimate(0.25, EstimationMethod.ASSUMED), dict(one_minus_alpha=1.5), ValueError),
    (AlphaEstimate(0.25, EstimationMethod.ASSUMED), dict(cores=0), ValueError),
    (Speedup(2.0), dict(value=-1.0), ValueError),
    (Efficiency(0.5), dict(value=0.25), ValueError),
    (Efficiency(0.5), dict(value=1.5), SuperlinearError),
    (Efficiency(0.5), dict(inverse_excess=-1.0), ValueError),
    (MachineRecord(**RECORD), dict(rank=0), ValueError),
    (MachineRecord(**RECORD), dict(rmax=2e8), ValueError),
    (ScalingScenario(1e-6, 10, 1.0, 1.0, 20), dict(base_cores=0), ValueError),
    (ScalingScenario(1e-6, 10, 1.0, 1.0, 20), dict(target_cores=None), ValueError),
    (ContributionBudget(1e9, 1.0), dict(clock_hz=0.0), ValueError),
    (ContributionBudget(1e9, 1.0), dict(per_processor_flops=float("nan")), ValueError),
    (WorkloadSpec(**SPEC), dict(processors=0), InvalidWorkloadError),
    (WorkloadSpec(**SPEC), dict(phases=()), InvalidWorkloadError),
]


@pytest.mark.parametrize(
    ("value", "change", "error"),
    INVALID_CHANGES,
    ids=[f"{type(v).__name__}-{'-'.join(c)}" for v, c, _ in INVALID_CHANGES],
)
def test_replace_and_make_run_the_constructor_checks(value, change, error):
    fields = {**value._asdict(), **change}
    with pytest.raises(error) as direct:
        type(value)(**fields)
    message = f"^{re.escape(str(direct.value))}$"
    with pytest.raises(error, match=message):
        value._replace(**change)
    with pytest.raises(error, match=message):
        type(value)._make(fields.values())


def test_replace_keeps_efficiency_consistent():
    with pytest.raises(ValueError, match="inverse_excess 1.0 is inconsistent with value 0.25"):
        Efficiency(0.5)._replace(value=0.25)
    assert Efficiency(0.5)._replace(value=0.25, inverse_excess=3.0) == Efficiency(0.25)


def test_make_builds_a_checked_value():
    assert Speedup._make([2.0]) == Speedup(2.0)
    assert type(Speedup._make([2.0])) is Speedup
    with pytest.raises(TypeError):
        Speedup._make([2.0, 3.0])
