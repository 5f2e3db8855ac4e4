"""Strong-scaling performance modeling.

The package estimates how well a program parallelizes from whole-system
measurements (speedup, efficiency, paired timings), analyzes benchmark record
collections, projects what happens at larger core counts, and simulates
sequential/parallel execution timelines. The central quantity everywhere is
the effective serial fraction, stored as 1 - alpha because its interesting
values sit many orders of magnitude below 1.

``import amdahl`` loads no submodule: each public name is imported from its
home module on first use (PEP 562), so a caller pays only for the layers it
touches.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Home module of every public name, in the order of ``__all__``. This is the one
# list of public names: the loader must find each name's home without importing
# any module, so the table lives here and each home module's ``__all__`` reads
# its own entry.
_HOMES = {
    "core": (
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
    ),
    "dataset": (
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
    ),
    "errors": (
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
    ),
    "projection": (
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
    ),
    "workload": (
        "ParallelPhase",
        "ScheduleResult",
        "SequentialPhase",
        "SweepPoint",
        "TimelineSegment",
        "WorkloadSpec",
        "load_workload",
        "simulate",
        "sweep_alpha_eff",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset((*_HOMES, "cli"))

__all__ = ["__version__", *_HOME]


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without calling back here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
