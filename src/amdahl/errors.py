"""Exception hierarchy shared by all amdahl modules.

Everything derives from ModelError (itself a ValueError) so callers can
distinguish "the data or the request is outside the model" from programming
errors. The CLI maps any ModelError to exit code 2.
"""

from __future__ import annotations

from . import _HOMES

__all__ = _HOMES["errors"]


class ModelError(ValueError):
    """A measurement, record, or request that the scaling model cannot represent."""


class SuperlinearError(ModelError):
    """Measured speedup above the processor count (or efficiency above 1)."""


class DegenerateCoresError(ModelError):
    """An inversion that needs at least two processors was asked about fewer."""


class InconsistentMeasurementsError(ModelError):
    """A pair of measurements admits no parallel fraction in [0, 1]."""


class UnboundedError(ModelError):
    """A quantity with no finite value, e.g. the speedup limit of a perfectly parallel program."""


class InfeasibleTargetError(ModelError):
    """No parallel fraction in [0, 1] can reach the requested operating point."""


class AlphaOverflowError(ModelError):
    """Scaling pushed the serial fraction above 1, leaving the model's domain."""


class ZeroBudgetError(ModelError):
    """A contribution budget with no cycles at all: the bound is unbounded, not a number."""


class InvalidWorkloadError(ModelError):
    """A workload description that cannot be scheduled (bad durations, empty phases...)."""


class InvalidTemplateError(ModelError):
    """A sweep template that does not have exactly one parallel phase."""


class MissingHeaderError(ModelError):
    """A record file whose first content row is not the expected header."""


class MalformedRowError(ModelError):
    """A record row that cannot be parsed or violates a field invariant."""

    def __init__(self, line_num: int, reason: str):
        self.line_num = line_num
        self.reason = reason
        super().__init__(f"row at line {line_num}: {reason}")


class NonPositiveValueError(ModelError):
    """A value that must be strictly positive (e.g. before taking a log) was not."""


class DegenerateDataError(ModelError):
    """Input data with no spread where a fit or statistic needs one."""
