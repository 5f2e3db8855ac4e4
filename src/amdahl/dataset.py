"""Benchmark record ingestion and per-record scaling metrics.

Records follow the TOP500 publication shape: one machine per row with its
list rank, core count, and measured versus peak throughput for a named
benchmark. The canonical performance unit in files is Gflop/s.

File format: CSV with header ``year,rank,name,arch,cores,rmax_gflops,
rpeak_gflops,benchmark``. Lines starting with ``#`` are treated as comments
wherever they appear, which lets output produced by the CLI round-trip through
this parser. Extra columns after the required eight are ignored, for the same
reason.

Parsing and derivation are pure per-row transformations; output order always
follows input order.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import namedtuple
from enum import Enum
from importlib import resources
from typing import IO, Iterable, NamedTuple, Sequence

from . import _HOMES
from .core import (
    Efficiency,
    _Checked,
    _comment_lines,
    _finite,
    _from_inverse_excess,
    _require_count,
    _require_positive,
    _shown,
    alpha_eff_from_efficiency,
)
from .errors import (
    DegenerateDataError,
    MalformedRowError,
    MissingHeaderError,
    ModelError,
    NonPositiveValueError,
)

__all__ = _HOMES["dataset"]

_HEADER = ("year", "rank", "name", "arch", "cores", "rmax_gflops", "rpeak_gflops", "benchmark")
# The file columns plus the derived pair that write_records and `amdahl timeline` add.
_COLUMNS = _HEADER + ("efficiency", "one_minus_alpha_eff")
# The largest |x| fit_semilog takes: the squared deviations of such values, summed
# over up to 10**7 points, stay inside the float range.
_MAX_FIT_X = 1e150


class Architecture(Enum):
    MPP = "MPP"
    CLUSTER = "Cluster"
    OTHER = "Other"


class Benchmark(Enum):
    HPL = "HPL"
    HPCG = "HPCG"


class ChampionCriterion(Enum):
    BEST_RMAX = "best-rmax"
    BEST_ALPHA = "best-alpha"


class MachineRecord(
    _Checked, namedtuple("MachineRecord", "year rank name arch cores rmax rpeak benchmark")
):
    """One published measurement of one machine. rmax and rpeak are in Gflop/s."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_count(self.rank, "rank", 1, maximum=math.inf)
        _require_count(self.cores, "cores", 1)
        _require_positive(self.rmax, "rmax")
        _require_positive(self.rpeak, "rpeak")
        if self.rmax > self.rpeak:
            raise ValueError(
                f"rmax {self.rmax!r} exceeds rpeak {self.rpeak!r}, which would be superlinear"
            )
        return self


class DerivedMetrics(NamedTuple):
    """Parallel efficiency and effective serial fraction of one record."""

    efficiency: Efficiency
    one_minus_alpha_eff: float


def parse_records(stream: Iterable[str]) -> list[MachineRecord]:
    """Parse records from CSV text. Raises on the first malformed row.

    Raises:
        MissingHeaderError: the first content row is not the expected header.
        MalformedRowError: a row has the wrong shape or violates an invariant;
            carries the 1-based line number of the offending row.
    """
    reader = csv.reader(stream)
    header: list[str] | None = None
    records: list[MachineRecord] = []
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        if header is None:
            header = [cell.strip().lower() for cell in row]
            if tuple(header[: len(_HEADER)]) != _HEADER:
                raise MissingHeaderError(
                    "expected header starting with "
                    f"'{','.join(_HEADER)}', got '{','.join(header)}'"
                )
            continue
        records.append(_parse_row(row, reader.line_num))
    if header is None:
        raise MissingHeaderError("input has no header row")
    return records


def _parse_row(row: Sequence[str], line_num: int) -> MachineRecord:
    if len(row) < len(_HEADER):
        raise MalformedRowError(line_num, f"expected at least {len(_HEADER)} fields, got {len(row)}")
    year_s, rank_s, name, arch_s, cores_s, rmax_s, rpeak_s, bench_s = (
        cell.strip() for cell in row[: len(_HEADER)]
    )
    try:
        year = int(year_s)
        rank = int(rank_s)
        cores = int(cores_s)
        rmax = float(rmax_s)
        rpeak = float(rpeak_s)
    except ValueError as exc:
        raise MalformedRowError(line_num, f"numeric field could not be parsed: {exc}") from exc

    lowered = arch_s.lower()
    if lowered == "mpp":
        arch = Architecture.MPP
    elif lowered == "cluster":
        arch = Architecture.CLUSTER
    else:
        # Anything else (including historical class names) lands in the catch-all.
        arch = Architecture.OTHER

    try:
        benchmark = Benchmark(bench_s.upper())
    except ValueError:
        raise MalformedRowError(line_num, f"benchmark must be HPL or HPCG, got {bench_s!r}") from None

    try:
        return MachineRecord(year, rank, name, arch, cores, rmax, rpeak, benchmark)
    except ValueError as exc:
        raise MalformedRowError(line_num, str(exc)) from exc


def read_records(path: str) -> list[MachineRecord]:
    """Convenience wrapper: parse records from a file path."""
    with open(path, newline="", encoding="utf-8") as fh:
        return parse_records(fh)


def write_records(
    records: Iterable[MachineRecord],
    stream: IO[str],
    comment: str | None = None,
    derived: bool = False,
) -> None:
    """Serialize records to CSV, losslessly (floats use shortest round-trip form).

    With ``derived`` set, two extra columns (efficiency, one_minus_alpha_eff)
    are appended; the required eight stay first so the output still parses.
    """
    writer = csv.writer(stream, lineterminator="\n")
    if comment:
        stream.write(_comment_lines(comment))
    writer.writerow(_COLUMNS if derived else _HEADER)
    # csv writes each float as str(), its shortest round-trip form, also for a
    # float subclass whose repr() is not a number, such as numpy's float64.
    writer.writerows(_record_row(r, derived) for r in records)


def _record_row(r: MachineRecord, derived: bool) -> list:
    """A record's fields in file column order, then its derived pair when asked."""
    row = [r.year, r.rank, r.name, r.arch.value, r.cores, r.rmax, r.rpeak, r.benchmark.value]
    if derived:
        m = derive(r)
        row += [m.efficiency.value, m.one_minus_alpha_eff]
    return row


def derive(record: MachineRecord) -> DerivedMetrics:
    """Efficiency rmax/rpeak and the serial fraction it implies at the record's core count."""
    eff = Efficiency(record.rmax / record.rpeak)  # raises where rmax / rpeak underflows to 0
    k = record.cores  # an integer >= 1: the record checked it
    if k > 1:
        one_minus = _from_inverse_excess(eff.inverse_excess, k)
        if one_minus <= 1.0:
            return DerivedMetrics(efficiency=eff, one_minus_alpha_eff=one_minus)
    # One core, or E < 1/k: the checked inversion raises its error.
    return DerivedMetrics(eff, alpha_eff_from_efficiency(eff, k).one_minus_alpha)


def _year_cohorts(records: Iterable[MachineRecord], top: int | None) -> list[list[MachineRecord]]:
    """Each year's records, years ascending.

    With ``top``, each year keeps only its first ``top`` records by (rank, name).
    """
    by_year: dict[int, list[MachineRecord]] = {}
    for r in records:
        by_year.setdefault(r.year, []).append(r)
    cohorts = [by_year[year] for year in sorted(by_year)]
    if top is None:
        return cohorts
    return [sorted(cohort, key=lambda r: (r.rank, r.name))[:top] for cohort in cohorts]


def select_champions(
    records: Iterable[MachineRecord],
    by: ChampionCriterion | str,
    top: int | None = None,
) -> list[MachineRecord]:
    """The best record of each year, years ascending.

    ``by`` is a criterion or its value, such as "best-rmax"; anything else
    raises ValueError. BEST_RMAX takes the highest measured throughput,
    BEST_ALPHA the smallest derived serial fraction. Ties break toward the
    lower list rank, then the lexicographically smaller name. With ``top``,
    only each year's first ``top`` records by (rank, name) compete.
    """
    if top is not None:
        _require_count(top, "top", 1, maximum=math.inf)
    if ChampionCriterion(by) is ChampionCriterion.BEST_RMAX:
        key = lambda r: (-r.rmax, r.rank, r.name)
    else:
        key = lambda r: (derive(r).one_minus_alpha_eff, r.rank, r.name)
    return [min(cohort, key=key) for cohort in _year_cohorts(records, top)]


class RegressionFit(NamedTuple):
    """Least-squares fit of log10(y) against x."""

    slope: float
    intercept: float
    r_squared: float
    n: int


def fit_semilog(points: Iterable[tuple[float, float]]) -> RegressionFit:
    """Ordinary least squares of log10(y) on x, for trend lines on semilog plots.

    Raises:
        NonPositiveValueError: some y is not a finite int or float > 0.
        ModelError: some x is not a finite int or float, or exceeds 1e150 in magnitude.
        DegenerateDataError: all x are identical, no slope exists.
        ValueError: fewer than two points.
    """
    xs: list[float] = []
    ys: list[float] = []
    for x, y in points:
        fy, fx = _finite(y), _finite(x)
        if fy is None or fy <= 0.0:
            raise NonPositiveValueError(f"cannot take log10 of {_shown(y)}")
        if fx is None or abs(fx) > _MAX_FIT_X:
            raise ModelError(f"x must be finite and at most 1e150 in magnitude, got {_shown(x)}")
        xs.append(fx)
        ys.append(math.log10(fy))
    n = len(xs)
    if n < 2:
        raise ValueError(f"a fit needs at least 2 points, got {n}")

    x_mean = statistics.fmean(xs)
    y_mean = statistics.fmean(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateDataError("all x values are identical, the slope is undefined")
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return RegressionFit(slope=slope, intercept=intercept, r_squared=r_squared, n=n)


class YearlyEfficiency(NamedTuple):
    year: int
    mean_efficiency: float
    sd_efficiency: float


def yearly_mean_efficiency(
    records: Iterable[MachineRecord],
    top_n: int,
) -> list[YearlyEfficiency]:
    """Mean and population standard deviation of efficiency over each year's top ranks.

    Within a year, records are ordered by list rank, then name, and the first
    ``top_n`` enter the statistics (all of them when the year has fewer). The
    standard deviation is the population form: these are the complete top-N
    cohorts, not samples from something larger.
    """
    _require_count(top_n, "top_n", 1, maximum=math.inf)
    rows = []
    for cohort in _year_cohorts(records, top_n):
        efficiencies = [r.rmax / r.rpeak for r in cohort]
        rows.append(
            YearlyEfficiency(
                year=cohort[0].year,
                mean_efficiency=statistics.fmean(efficiencies),
                sd_efficiency=statistics.pstdev(efficiencies),
            )
        )
    return rows


def fixture_path(name: str) -> str:
    """Filesystem path of a data file shipped with the package."""
    return str(resources.files("amdahl.data").joinpath(name))
