"""Benchmark record ingestion and per-record scaling metrics.

Records follow the TOP500 publication shape: one machine per row with its
list rank, core count, and measured versus peak throughput for a named
benchmark. The canonical performance unit in files is Gflop/s.

File format: CSV with header ``year,rank,name,arch,cores,rmax_gflops,
rpeak_gflops,benchmark``. A line that starts a row with ``#`` is a comment
up to its line end, which lets output produced by the CLI round-trip through
this parser. Extra columns after the required eight are ignored, for the same
reason.

Parsing and derivation are pure per-row transformations; output order always
follows input order.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from enum import Enum
from functools import reduce
from operator import add
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from . import _HOMES
from .core import (
    _FLOAT_MAX,
    Efficiency,
    _Checked,
    _comment_lines,
    _csv_field,
    _csv_line,
    _finite,
    _from_inverse_excess,
    _measured_efficiency,
    _require_count,
    _require_positive,
    _shown_number,
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
# The largest |x| fit_semilog takes: the distance between two such values stays
# inside the float range.
_MAX_FIT_X = 1e150


class Architecture(Enum):
    MPP = "MPP"
    CLUSTER = "Cluster"
    OTHER = "Other"


class Benchmark(Enum):
    HPL = "HPL"
    HPCG = "HPCG"


# The lookups _parse_row makes for the lowered arch and the upper-cased benchmark field.
_ARCHITECTURES = {"mpp": Architecture.MPP, "cluster": Architecture.CLUSTER}
_BENCHMARKS = {b.value: b for b in Benchmark}


class ChampionCriterion(Enum):
    BEST_RMAX = "best-rmax"
    BEST_ALPHA = "best-alpha"


class MachineRecord(
    _Checked, namedtuple("MachineRecord", "year rank name arch cores rmax rpeak benchmark")
):
    """One published measurement of one machine. rmax and rpeak are in Gflop/s."""

    __slots__ = ()

    def __new__(
        cls, year: int, rank: int, name: str, arch: Architecture, cores: int, rmax: float,
        rpeak: float, benchmark: Benchmark,
    ):
        # Exact ints and floats inside the bounds, as _parse_row passes them, are
        # stored as they are; anything else goes through the guards, which convert
        # it or raise.
        if not (
            type(year) is int and type(rank) is int and type(cores) is int
            and type(rmax) is float and type(rpeak) is float
            and 1 <= year <= 9999 and rank >= 1 and 1 <= cores <= _FLOAT_MAX
            and 0.0 < rmax <= rpeak <= _FLOAT_MAX
        ):
            year = _require_count(year, "year", 1, maximum=9999)
            rank = _require_count(rank, "rank", 1, maximum=math.inf)
            cores = _require_count(cores, "cores", 1)
            rmax = _require_positive(rmax, "rmax")
            rpeak = _require_positive(rpeak, "rpeak")
            if rmax > rpeak:
                raise ValueError(f"rmax {rmax!r} exceeds rpeak {rpeak!r}, which would be superlinear")
        return tuple.__new__(cls, (year, rank, name, arch, cores, rmax, rpeak, benchmark))


class DerivedMetrics(NamedTuple):
    """Parallel efficiency and effective serial fraction of one record."""

    efficiency: Efficiency
    one_minus_alpha_eff: float


def parse_records(stream: Iterable[str]) -> list[MachineRecord]:
    """Parse records from CSV text. Raises on the first malformed row.

    Raises:
        MissingHeaderError: the first content row is not the expected header.
        MalformedRowError: a row is not valid csv (a field past csv's size limit),
            has the wrong shape or violates an invariant;
            carries the 1-based line number of the offending row.
    """
    def lines() -> Iterator[str]:
        # A "#" line that starts a row goes to csv as a blank line: a quote in it opens
        # no field, and reader.line_num still counts it.
        for line in stream:
            if "#" in line and reader.line_num == row_end and line.lstrip().startswith("#"):
                line = "\n"
            yield line

    row_end = 0  # reader.line_num when the last row ended
    reader = csv.reader(lines())
    header: list[str] | None = None
    records: list[MachineRecord] = []
    try:
        for row in reader:
            row_end = reader.line_num
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
            records.append(_parse_row(row, row_end))
    except csv.Error as exc:  # a field past csv's size limit, for one
        raise MalformedRowError(reader.line_num, str(exc)) from exc
    if header is None:
        raise MissingHeaderError("input has no header row")
    return records


def _parse_row(row: Sequence[str], line_num: int) -> MachineRecord:
    if len(row) < len(_HEADER):
        raise MalformedRowError(line_num, f"expected at least {len(_HEADER)} fields, got {len(row)}")
    try:
        year, rank, cores = int(row[0]), int(row[1]), int(row[4])
        rmax, rpeak = float(row[5]), float(row[6])
    except ValueError:
        # int() and float() skip surrounding whitespace, but not \x1c to \x1f, which
        # str.strip() removes; the retry reads those fields, and an error quotes the
        # field as stripped.
        try:
            year, rank, cores = int(row[0].strip()), int(row[1].strip()), int(row[4].strip())
            rmax, rpeak = float(row[5].strip()), float(row[6].strip())
        except ValueError as exc:
            raise MalformedRowError(line_num, f"numeric field could not be parsed: {exc}") from exc

    # Anything but MPP or Cluster (including historical class names) lands in the catch-all.
    arch = _ARCHITECTURES.get(row[3].strip().lower(), Architecture.OTHER)
    bench_s = row[7].strip()
    benchmark = _BENCHMARKS.get(bench_s.upper())
    if benchmark is None:
        raise MalformedRowError(line_num, f"benchmark must be HPL or HPCG, got {bench_s!r}")

    try:
        return MachineRecord(year, rank, row[2].strip(), arch, cores, rmax, rpeak, benchmark)
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

    Each record is one formatted line and one write: its ints by ``str``, its
    floats by ``repr``, its name through ``core._csv_field``, which quotes a
    name holding ``,``, ``"``, ``\\r`` or ``\\n``. Rows are written in input
    order, each built just before it is written, so a record whose derived
    pair raises leaves the rows before it in the stream.
    """
    if comment:
        stream.write(_comment_lines(comment))
    stream.write(_csv_line(_COLUMNS if derived else _HEADER))
    write = stream.write
    for r in records:
        # _value_ is the enum's stored text; .value reads it through a slower property.
        line = (f"{r.year},{r.rank},{_csv_field(r.name)},{r.arch._value_},{r.cores},{r.rmax!r},"
                f"{r.rpeak!r},{r.benchmark._value_}")
        if derived:
            value, one_minus = _derived_pair(r)
            line = f"{line},{value!r},{one_minus!r}"
        write(line + "\n")


def derive(record: MachineRecord) -> DerivedMetrics:
    """Efficiency rmax/rpeak and the serial fraction it implies at the record's core count."""
    value, one_minus = _derived_pair(record)
    return tuple.__new__(DerivedMetrics, (_measured_efficiency(value), one_minus))


def _derived_pair(r: MachineRecord) -> tuple[float, float]:
    """rmax / rpeak and 1 - alpha_eff of a checked record, as floats.

    The one per-record kernel: derive, the BEST_ALPHA key and the derived write
    columns call it. The record guarantees 0 < rmax <= rpeak, so the efficiency
    lies in (0, 1] unless the division underflows to 0.
    """
    value = r.rmax / r.rpeak
    k = r.cores  # an integer >= 1: the record checked it
    if value != 0.0 and k != 1:
        # Efficiency's inverse excess, inverted as alpha_eff_from_efficiency does.
        one_minus = _from_inverse_excess((1.0 - value) / value, k)
        if one_minus <= 1.0:
            return value, one_minus
    # An efficiency of 0, one core, or E < 1/k: the checked inversion raises its error.
    return value, alpha_eff_from_efficiency(value, k).one_minus_alpha


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
        top = _require_count(top, "top", 1, maximum=math.inf)
    if ChampionCriterion(by) is ChampionCriterion.BEST_RMAX:
        key = lambda r: (-r.rmax, r.rank, r.name)
    else:
        key = lambda r: (_derived_pair(r)[1], r.rank, r.name)
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
        NonPositiveValueError: some y is not a finite number > 0.
        ModelError: some x is not a finite number, or exceeds 1e150 in magnitude,
            or the x values lie so close that the slope overflows the float range.
        DegenerateDataError: all x are identical, no slope exists.
        ValueError: fewer than two points.
    """
    xs: list[float] = []
    ys: list[float] = []
    for x, y in points:
        fy, fx = _finite(y), _finite(x)
        if fy is None or fy <= 0.0:
            raise NonPositiveValueError(f"cannot take log10 of {_shown_number(y)}")
        if fx is None or abs(fx) > _MAX_FIT_X:
            raise ModelError(
                f"x must be finite and at most 1e150 in magnitude, got {_shown_number(x)}")
        xs.append(fx)
        ys.append(math.log10(fy))
    n = len(xs)
    if n < 2:
        raise ValueError(f"a fit needs at least 2 points, got {n}")

    # x centred on its first point and scaled by the largest distance from it: a
    # rounded mean of large x would lose the spread, and squares of a tiny spread
    # would underflow.
    x0 = xs[0]
    spread = max(abs(x - x0) for x in xs)
    if spread == 0.0:
        raise DegenerateDataError("all x values are identical, the slope is undefined")
    us = [(x - x0) / spread for x in xs]
    u_mean = math.fsum(us) / n
    y_mean = math.fsum(ys) / n
    # Sums added in order, one addition at a time: sum() compensates float
    # rounding from Python 3.12 on, which would make the fit depend on the version.
    sxx = reduce(add, [(u - u_mean) ** 2 for u in us], 0.0)
    sxy = reduce(add, [(u - u_mean) * (y - y_mean) for u, y in zip(us, ys)], 0.0)
    slope_u = sxy / sxx  # per unit of spread
    slope = slope_u / spread
    if math.isinf(slope):
        raise ModelError(f"the slope {slope_u!r} / {spread!r} overflows the float range")
    intercept = y_mean - slope_u * u_mean - slope * x0

    ss_res = reduce(add, [(y - y_mean - slope_u * (u - u_mean)) ** 2
                          for u, y in zip(us, ys)], 0.0)
    ss_tot = reduce(add, [(y - y_mean) ** 2 for y in ys], 0.0)
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
    cohorts, not samples from something larger. It is correctly rounded (see
    ``_pstdev``); the mean is the correctly rounded sum divided by the count.
    """
    top_n = _require_count(top_n, "top_n", 1, maximum=math.inf)
    rows = []
    for cohort in _year_cohorts(records, top_n):
        efficiencies = [r.rmax / r.rpeak for r in cohort]
        rows.append(
            YearlyEfficiency(
                year=cohort[0].year,
                mean_efficiency=math.fsum(efficiencies) / len(efficiencies),
                sd_efficiency=_pstdev(efficiencies),
            )
        )
    return rows


def _pstdev(xs: list[float]) -> float:
    """Population standard deviation of floats in [0, 1], correctly rounded.

    Each x is n / d exactly, d a power of two. Over the largest d, D, the numerators
    N are ints and the variance is (k * sum(N*N) - sum(N)**2) / (k*k * D*D). Its root
    is taken to 109 bits (2 * 53 + 3) with math.isqrt and rounded to odd (Boldo and
    Melquiond), so that one int division rounds it to the nearest float: the float
    statistics.pstdev returns on Python 3.11, without its Fractions.
    """
    ratios = [x.as_integer_ratio() for x in xs]
    big = max(d for _, d in ratios)
    ns = [n * (big // d) for n, d in ratios]
    k = len(ns)
    total = sum(ns)
    num = k * sum([n * n for n in ns]) - total * total
    den = k * k * big * big
    # The variance is at most 1/4, so its root is scaled up by 2**shift, shift > 0.
    shift = -((num.bit_length() - den.bit_length() - 109) // 2)
    num <<= 2 * shift
    root = math.isqrt(num // den)
    return (root | (root * root * den != num)) / (1 << shift)


def fixture_path(name: str) -> str:
    """Filesystem path of a data file shipped with the package."""
    from importlib import resources  # with pathlib and tempfile; no CLI call needs them

    return str(resources.files("amdahl.data").joinpath(name))
