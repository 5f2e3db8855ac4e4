"""Strong-scaling performance modeling.

The package estimates how well a program parallelizes from whole-system
measurements (speedup, efficiency, paired timings), analyzes benchmark record
collections, projects what happens at larger core counts, and simulates
sequential/parallel execution timelines. The central quantity everywhere is
the effective serial fraction, stored as 1 - alpha because its interesting
values sit many orders of magnitude below 1.
"""

from __future__ import annotations

from .core import (
    AlphaEstimate,
    Efficiency,
    EstimationMethod,
    Speedup,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    alpha_from_two_efficiencies,
    alpha_from_two_timings,
    efficiency_from_alpha,
    max_speedup,
    speedup_from_alpha,
)
from .dataset import (
    Architecture,
    Benchmark,
    ChampionCriterion,
    DerivedMetrics,
    MachineRecord,
    RegressionFit,
    YearlyEfficiency,
    derive,
    fit_semilog,
    fixture_path,
    parse_records,
    read_records,
    select_champions,
    write_records,
    yearly_mean_efficiency,
)
from .errors import (
    AlphaOverflowError,
    DegenerateCoresError,
    DegenerateDataError,
    InconsistentMeasurementsError,
    InfeasibleTargetError,
    InvalidTemplateError,
    InvalidWorkloadError,
    MalformedRowError,
    MissingHeaderError,
    ModelError,
    NonPositiveValueError,
    SuperlinearError,
    UnboundedError,
    ZeroBudgetError,
)
from .projection import (
    BoundsResult,
    ContributionBudget,
    CurvePoint,
    ScalingScenario,
    ScenarioResult,
    bounds,
    geometric_grid,
    project_curve,
    required_one_minus_alpha,
    saturation_rmax,
    whatif,
)
from .workload import (
    ParallelPhase,
    ScheduleResult,
    SequentialPhase,
    SweepPoint,
    TimelineSegment,
    WorkloadSpec,
    load_workload,
    simulate,
    sweep_alpha_eff,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "AlphaEstimate",
    "Efficiency",
    "EstimationMethod",
    "Speedup",
    "alpha_eff_from_efficiency",
    "alpha_eff_from_speedup",
    "alpha_from_two_efficiencies",
    "alpha_from_two_timings",
    "efficiency_from_alpha",
    "max_speedup",
    "speedup_from_alpha",
    # dataset
    "Architecture",
    "Benchmark",
    "ChampionCriterion",
    "DerivedMetrics",
    "MachineRecord",
    "RegressionFit",
    "YearlyEfficiency",
    "derive",
    "fit_semilog",
    "fixture_path",
    "parse_records",
    "read_records",
    "select_champions",
    "write_records",
    "yearly_mean_efficiency",
    # errors
    "AlphaOverflowError",
    "DegenerateCoresError",
    "DegenerateDataError",
    "InconsistentMeasurementsError",
    "InfeasibleTargetError",
    "InvalidTemplateError",
    "InvalidWorkloadError",
    "MalformedRowError",
    "MissingHeaderError",
    "ModelError",
    "NonPositiveValueError",
    "SuperlinearError",
    "UnboundedError",
    "ZeroBudgetError",
    # projection
    "BoundsResult",
    "ContributionBudget",
    "CurvePoint",
    "ScalingScenario",
    "ScenarioResult",
    "bounds",
    "geometric_grid",
    "project_curve",
    "required_one_minus_alpha",
    "saturation_rmax",
    "whatif",
    # workload
    "ParallelPhase",
    "ScheduleResult",
    "SequentialPhase",
    "SweepPoint",
    "TimelineSegment",
    "WorkloadSpec",
    "load_workload",
    "simulate",
    "sweep_alpha_eff",
]
