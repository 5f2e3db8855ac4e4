"""Tests for record parsing, derivation, champion selection, and trend fits."""

from __future__ import annotations

import csv
import io
import math
import statistics
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amdahl.core import (
    Efficiency,
    _comment_lines,
    _csv_field,
    _csv_line,
    alpha_eff_from_efficiency,
    efficiency_from_alpha,
)
from amdahl.dataset import (
    Architecture,
    Benchmark,
    ChampionCriterion,
    DerivedMetrics,
    MachineRecord,
    derive,
    fit_semilog,
    fixture_path,
    parse_records,
    read_records,
    select_champions,
    write_records,
    yearly_mean_efficiency,
)
from amdahl.dataset import _COLUMNS, _HEADER, _derived_pair, _parse_row, _pstdev
from amdahl.errors import (
    DegenerateCoresError,
    DegenerateDataError,
    InfeasibleTargetError,
    MalformedRowError,
    MissingHeaderError,
    ModelError,
    NonPositiveValueError,
)

HEADER = "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark"


def record(
    year=2017,
    rank=1,
    name="Machine",
    arch=Architecture.MPP,
    cores=1000,
    rmax=500.0,
    rpeak=1000.0,
    benchmark=Benchmark.HPL,
) -> MachineRecord:
    return MachineRecord(year, rank, name, arch, cores, rmax, rpeak, benchmark)


def stripping_parse_row(row, line_num):
    """The record parser as it was: strip every field, then convert; the reference."""
    if len(row) < 8:
        raise MalformedRowError(line_num, f"expected at least 8 fields, got {len(row)}")
    year_s, rank_s, name, arch_s, cores_s, rmax_s, rpeak_s, bench_s = (
        cell.strip() for cell in row[:8]
    )
    try:
        year, rank, cores = int(year_s), int(rank_s), int(cores_s)
        rmax, rpeak = float(rmax_s), float(rpeak_s)
    except ValueError as exc:
        raise MalformedRowError(line_num, f"numeric field could not be parsed: {exc}") from exc
    lowered = arch_s.lower()
    if lowered == "mpp":
        arch = Architecture.MPP
    elif lowered == "cluster":
        arch = Architecture.CLUSTER
    else:
        arch = Architecture.OTHER
    try:
        benchmark = Benchmark(bench_s.upper())
    except ValueError:
        reason = f"benchmark must be HPL or HPCG, got {bench_s!r}"
        raise MalformedRowError(line_num, reason) from None
    try:
        return MachineRecord(year, rank, name, arch, cores, rmax, rpeak, benchmark)
    except ValueError as exc:
        raise MalformedRowError(line_num, str(exc)) from exc


def parse_outcome(parse, row):
    """A parsed record with its field types, or the error's type, line and message."""
    try:
        parsed = parse(row, 7)
    except MalformedRowError as exc:
        return type(exc), exc.line_num, str(exc)
    return parsed, [type(field) for field in parsed]


# Whitespace int() and float() skip (space, tab, line break, no-break space,
# ideographic space, next line) and the separators they do not (\x1c to \x1f),
# which str.strip() removes.
PADDING = st.text(alphabet=" \t\n\r\xa0\u3000\x85\x1c\x1d\x1e\x1f", max_size=3)
DIGITS = st.integers(min_value=-10, max_value=10**12).map(str)
NUMERIC_FIELDS = st.one_of(
    DIGITS,
    st.integers(min_value=1990, max_value=2030).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=1e-3, max_value=1e9).map(repr),
    DIGITS.map(lambda s: "_".join(s)),  # separators between every digit
    st.sampled_from((
        "1_000", "2_017", "1__0", "_1", "1_", "1_0.5_5", "1e1_0", "nan", "-inf", "inf", "1e999",
        "\uff12\uff10\uff11\uff17", "\u0662\u0660\u0661\u0667", "\u0967.5", "", "x", "0x10",
        "1" * 4301, " " + "9" * 5000, "1" * 400,
    )),
)
LABELS = st.one_of(
    st.sampled_from(("MPP", "mpp", "mPp", "Cluster", "CLUSTER", "cluster", "Vector", "Other",
                     "HPL", "hpl", "Hpcg", "HPCG", "LINPACK", "", "\u0131")),
    st.text(max_size=6),
)
padded_fields = st.builds(lambda a, field, b: a + field + b, PADDING, NUMERIC_FIELDS, PADDING)
padded_labels = st.builds(lambda a, field, b: a + field + b, PADDING, LABELS, PADDING)


@st.composite
def raw_rows(draw):
    """A csv row: numeric fields in every form, names and labels of any case, all padded;
    sometimes short or with extra columns."""
    row = [
        draw(padded_fields), draw(padded_fields), draw(padded_labels), draw(padded_labels),
        draw(padded_fields), draw(padded_fields), draw(padded_fields), draw(padded_labels),
    ]
    if draw(st.booleans()):  # a record that parses more often than not
        rpeak = draw(st.floats(min_value=1.0, max_value=1e9))
        row[:2] = [str(draw(st.integers(1, 9999))), str(draw(st.integers(1, 500)))]
        row[4:8] = [
            draw(st.sampled_from(("4", " 100 ", "\x1c1_000\x1f"))),
            repr(rpeak * draw(st.floats(min_value=0.0, max_value=1.5))),  # superlinear above 1
            draw(st.sampled_from((repr(rpeak), f"\x1d{rpeak!r} "))),
            draw(st.sampled_from(("HPL", " hpcg", "\x1eHpl\x1f"))),
        ]
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        row = row[: draw(st.integers(min_value=0, max_value=7))]
    return row + draw(st.lists(st.text(max_size=3), max_size=2))  # extra columns


class TestParsing:
    def test_single_row(self):
        text = f"{HEADER}\n2017,1,Sunway TaihuLight,MPP,10649600,92750000,125000000,HPL\n"
        records = parse_records(io.StringIO(text))
        assert records == [
            MachineRecord(
                2017, 1, "Sunway TaihuLight", Architecture.MPP, 10649600,
                92750000.0, 125000000.0, Benchmark.HPL,
            )
        ]
        assert round(records[0].rmax / records[0].rpeak, 3) == 0.742

    def test_comments_blanks_and_extra_columns(self):
        text = (
            "# produced by a tool\n"
            "\n"
            f"{HEADER},note\n"
            "# mid-file remark\n"
            "1992,6,Intel Delta,MPP,512,13.9,20.0,HPL,delta\n"
        )
        records = parse_records(io.StringIO(text))
        assert len(records) == 1
        assert records[0].name == "Intel Delta"
        assert records[0].rmax == 13.9

    def test_a_comment_ends_at_its_line_end(self):
        # A quote after a comma in a "#" line opens no csv field, and a "#" line inside
        # a quoted name is part of the name.
        text = (
            '# a,"b\n'
            f"{HEADER}\n"
            '  # c,"d\n'
            '2017,1,"x\n# not a comment",MPP,4,1,2,HPL\n'
            '# e,"f\n'
            "2017,2,y,MPP,4,1,2,HPL\n"
        )
        records = parse_records(io.StringIO(text))
        assert [(r.rank, r.name) for r in records] == [(1, "x\n# not a comment"), (2, "y")]

    @pytest.mark.parametrize(
        ("row", "fragment"),
        [
            ("2017,1,X,MPP,4,1,2", "at least 8 fields"),
            (f"2017,1,{'x' * 131073},MPP,4,1,2,HPL", "field larger than field limit (131072)"),
        ],
        ids=["malformed-row", "field-past-the-csv-size-limit"],
    )
    def test_line_numbers_count_comment_lines(self, row, fragment):
        text = f'# a,"b\n{HEADER}\n# c\n2017,1,"x\ny",MPP,4,1,2,HPL\n# d,"e\n{row}\n'
        with pytest.raises(MalformedRowError) as excinfo:
            parse_records(io.StringIO(text))
        assert excinfo.value.line_num == 7
        assert fragment in str(excinfo.value)

    def test_header_case_and_spacing_tolerated(self):
        text = "Year, Rank, Name, Arch, Cores, RMAX_GFLOPS, Rpeak_Gflops, Benchmark\n"
        assert parse_records(io.StringIO(text)) == []

    def test_missing_header(self):
        with pytest.raises(MissingHeaderError):
            parse_records(io.StringIO("2017,1,X,MPP,4,1,2,HPL\n"))
        with pytest.raises(MissingHeaderError):
            parse_records(io.StringIO(""))
        with pytest.raises(MissingHeaderError):
            parse_records(io.StringIO("# only a comment\n"))

    def test_architecture_and_benchmark_normalization(self):
        text = (
            f"{HEADER}\n"
            "2017,1,A,mpp,4,1,2,hpl\n"
            "2017,2,B,CLUSTER,4,1,2,HPCG\n"
            "2016,3,C,Vector,4,1,2,hpcg\n"
            "2016,4,D,,4,1,2,HPL\n"
        )
        records = parse_records(io.StringIO(text))
        assert [r.arch for r in records] == [
            Architecture.MPP, Architecture.CLUSTER, Architecture.OTHER, Architecture.OTHER,
        ]
        assert [r.benchmark for r in records] == [
            Benchmark.HPL, Benchmark.HPCG, Benchmark.HPCG, Benchmark.HPL,
        ]

    @pytest.mark.parametrize(
        ("row", "fragment"),
        [
            ("2017,1,X,MPP,4,1,2", "at least 8 fields"),
            ("2017,one,X,MPP,4,1,2,HPL", "numeric"),
            ("2017,1,X,MPP,4,1,2,SPEC", "benchmark"),
            ("2017,1,X,MPP,4,3,2,HPL", "exceeds rpeak"),
            ("2017,1,X,MPP,0,1,2,HPL", "cores"),
            ("2017,0,X,MPP,4,1,2,HPL", "rank"),
            ("2017,1,X,MPP,4,-1,2,HPL", "rmax"),
            ("2017,1,X,MPP,4,nan,2,HPL", "rmax"),
            ("0,1,X,MPP,4,1,2,HPL", "year must be >= 1, got 0"),
            ("10000,1,X,MPP,4,1,2,HPL", "year must be <= 9999, got 10000"),
            pytest.param(
                f"2017,1,{'x' * 131073},MPP,4,1,2,HPL", "field larger than field limit (131072)",
                id="field-past-the-csv-size-limit",
            ),
        ],
    )
    def test_malformed_rows(self, row, fragment):
        text = f"{HEADER}\n2017,5,OK,MPP,4,1,2,HPL\n{row}\n"
        with pytest.raises(MalformedRowError) as excinfo:
            parse_records(io.StringIO(text))
        assert excinfo.value.line_num == 3
        assert fragment in str(excinfo.value)

    def test_core_count_beyond_the_float_range_is_malformed(self):
        text = f"{HEADER}\n2017,5,OK,MPP,4,1,2,HPL\n2017,1,X,MPP,1{'0' * 400},1,2,HPL\n"
        with pytest.raises(MalformedRowError) as excinfo:
            parse_records(io.StringIO(text))
        assert excinfo.value.line_num == 3
        assert excinfo.value.reason == (
            "cores must be <= 1.7976931348623157e+308, got a 1329-bit integer"
        )

    @given(raw_rows())
    @example(["2017", "1", "X", "MPP", "\x1c4\x1f", "1", "2", "HPL"])
    @example(["2017", "1", "X", "MPP", "4", "\x1f" + "1" * 4301, "2", "HPL"])
    @example(["\x1c" + "1" * 4301, "x", "X", "MPP", "4", "1", "2", "HPL"])
    @example(["2017", "1", "X", "MPP", "4", "3", "2", "HPL"])
    @example(["2017", "1", "X", "MPP", "4", "1", "2", "\x1fSPEC "])
    def test_rows_parse_as_the_stripping_parser_did(self, row):
        assert parse_outcome(_parse_row, row) == parse_outcome(stripping_parse_row, row)

    def test_read_records_from_path(self):
        records = read_records(fixture_path("top500_2017_hpl.csv"))
        assert len(records) == 10
        assert records[0].name == "Sunway TaihuLight"
        assert [r.rank for r in records] == list(range(1, 11))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_records(str(tmp_path / "absent.csv"))


def csv_writer(stream):
    """A csv writer whose rows end in a line feed and quote every field holding a line break.

    csv.writer quotes a field that holds a character of its line terminator, so a
    line feed alone as the terminator would leave a bare carriage return unquoted.
    The writer therefore ends each row in CR LF, and each row goes on to the
    stream ending in LF alone.
    """
    rows = SimpleNamespace(write=lambda row: stream.write(row[:-2] + "\n"))
    return csv.writer(rows, lineterminator="\r\n")


def csv_write_records(records, stream, comment=None, derived=False):
    """write_records with every row through the csv writer; the reference."""
    writer = csv_writer(stream)
    if comment:
        stream.write(_comment_lines(comment))
    writer.writerow(_COLUMNS if derived else _HEADER)
    for r in records:
        row = [r.year, r.rank, r.name, r.arch.value, r.cores, r.rmax, r.rpeak, r.benchmark.value]
        writer.writerow(row + list(_derived_pair(r)) if derived else row)


def write_outcome(write, records, comment=None, derived=False):
    """The text a write leaves in its stream, and its error's type and message if it raised."""
    buffer = io.StringIO()
    try:
        write(records, buffer, comment=comment, derived=derived)
    except ValueError as exc:
        return buffer.getvalue(), (type(exc), str(exc))
    return buffer.getvalue(), None


class Shouted(str):
    """A str subclass that str() changes; a csv field holds its own characters."""

    def __str__(self):
        return self.upper()


# Names over all of Unicode, the four characters csv quotes, characters it does not
# quote, and names that are no exact str.
NAMES = st.one_of(
    st.text(),
    st.text(alphabet=',"\r\n\x00\x1c \u2028ab', max_size=6),
    st.sampled_from((",", '"', "\r", "\n", "\x00", "\x1c", " ", "", "a,b", 'say "hi"', "c\r\nr")),
    st.none(),
    st.integers(),
    st.text(max_size=4).map(Shouted),
)
EXTREME_FLOATS = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.sampled_from((5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308)),
    st.integers(min_value=1, max_value=2**1000),
    st.floats(min_value=5e-324, max_value=1e300).map(np.float64),
)


@st.composite
def machine_records(draw):
    a, b = draw(EXTREME_FLOATS), draw(EXTREME_FLOATS)
    return MachineRecord(
        draw(st.integers(min_value=1, max_value=9999)),
        draw(st.integers(min_value=1, max_value=2**70)),
        draw(NAMES),
        draw(st.sampled_from(Architecture)),
        draw(st.integers(min_value=1, max_value=2**70) | st.integers(min_value=1, max_value=4)),
        min(a, b),
        max(a, b),
        draw(st.sampled_from(Benchmark)),
    )


def csv_row(fields) -> str:
    """One row as the csv writer writes it."""
    buffer = io.StringIO()
    csv_writer(buffer).writerow(fields)
    return buffer.getvalue()


class TestCsvField:
    """core._csv_field quotes a field as the csv writer does, and _csv_line joins a row."""

    @pytest.mark.parametrize(
        "place", ["{}", "{}a", "a{}b", "a{}"], ids=["alone", "start", "middle", "end"]
    )
    def test_every_code_point(self, place):
        for start in range(0, sys.maxunicode + 1, 4096):
            stop = min(start + 4096, sys.maxunicode + 1)
            fields = [place.format(chr(c)) for c in range(start, stop)]
            assert _csv_line(fields) == csv_row(fields), hex(start)

    def test_values_that_are_no_str(self):
        # A row of one empty field is the one the writer writes as "", and no table
        # of the package has a single column: None goes with other fields.
        fields = [None, 0, -7, 2**100, 0.1, 5e-324, -0.0, math.inf, Shouted("a,b"), Shouted("s"),
                  "", None]
        assert _csv_line(fields) == csv_row(fields)
        assert type(_csv_field(Shouted("s"))) is str and _csv_field(Shouted("s")) == "s"


class TestWriting:
    def test_round_trip_is_lossless(self):
        original = read_records(fixture_path("early_linpack_1992.csv"))
        buffer = io.StringIO()
        write_records(original, buffer, comment="rewritten")
        assert parse_records(io.StringIO(buffer.getvalue())) == original

    def test_derived_columns_round_trip_and_parse(self):
        original = read_records(fixture_path("top500_2017_hpcg.csv"))
        buffer = io.StringIO()
        write_records(original, buffer, derived=True)
        text = buffer.getvalue()
        header = text.splitlines()[0]
        assert header.endswith("efficiency,one_minus_alpha_eff")
        again = parse_records(io.StringIO(text))
        assert again == original
        last = text.splitlines()[-1].split(",")
        assert float(last[8]) == original[-1].rmax / original[-1].rpeak

    def test_numpy_floats_round_trip(self):
        # repr(np.float64(0.5)) is "np.float64(0.5)", which no parser reads back.
        original = record(rmax=np.float64(0.5), rpeak=np.float64(1.0))
        buffer = io.StringIO()
        write_records([original], buffer, derived=True)
        assert buffer.getvalue().splitlines()[1].split(",")[5:7] == ["0.5", "1.0"]
        assert parse_records(io.StringIO(buffer.getvalue())) == [original]

    def test_line_breaks_in_a_name_round_trip(self):
        # csv.writer ending rows in \n alone left a bare \r unquoted, ending the row early.
        original = [record(name="c\rr"), record(name="c\r\nr", rank=2), record(name="c\nr", rank=3)]
        buffer = io.StringIO()
        write_records(original, buffer, derived=True)
        assert buffer.getvalue().split("\n")[1].startswith('2017,1,"c\rr",MPP,')
        assert parse_records(io.StringIO(buffer.getvalue())) == original

    def test_comment_line_starts_with_hash(self):
        buffer = io.StringIO()
        write_records([record()], buffer, comment="amdahl table --input x.csv")
        assert buffer.getvalue().startswith("# amdahl table --input x.csv\n")

    @pytest.mark.parametrize(
        "comment", ["made by\nsomeone", "two\r\nlines\n", "\n", "a\rb\x0cc"]
    )
    def test_comment_with_line_breaks_round_trips(self, comment):
        original = [record(), record(name="Other", rank=2)]
        buffer = io.StringIO()
        write_records(original, buffer, comment=comment, derived=True)
        lines = buffer.getvalue().splitlines()
        header = lines.index(",".join((HEADER, "efficiency,one_minus_alpha_eff")))
        assert header == len(comment.splitlines())
        assert all(line.startswith("# ") for line in lines[:header])
        assert parse_records(io.StringIO(buffer.getvalue())) == original

    @given(st.lists(machine_records(), max_size=8), st.none() | st.text(), st.booleans())
    @example([record(name="a,b"), record(name=None, rank=2), record(name="c", rank=3)], None, True)
    @example([record(name="x\x00y"), record(name=Shouted("s"), rank=2)], "made\nby", False)
    @example([record(name='a,"b')], 'c,"d', True)
    @example([record(), record(name='"q"', rank=2), record(cores=1, rank=3), record(rank=4)],
             None, True)
    def test_output_is_the_csv_writers_byte_for_byte(self, records, comment, derived):
        written = write_outcome(write_records, records, comment, derived)
        assert written == write_outcome(csv_write_records, records, comment, derived)
        if written[1] is None and all(isinstance(r.name, str) for r in records):
            stripped = [r._replace(name=r.name.strip()) for r in records]  # as parse_records does
            assert parse_records(io.StringIO(written[0])) == stripped

    def test_rows_that_need_quoting_keep_their_place(self):
        names = ["a", "b,c", "d", 'e "f"', "g", None, "h", "i\rj", "k\nl", "m", 7, "n"]
        original = [record(name=name, rank=i) for i, name in enumerate(names, 1)]
        for derived in (False, True):
            buffer = io.StringIO()
            write_records(original, buffer, derived=derived)
            assert buffer.getvalue() == write_outcome(csv_write_records, original,
                                                      derived=derived)[0]
            again = parse_records(io.StringIO(buffer.getvalue()))
            assert [r.rank for r in again] == list(range(1, len(names) + 1))
            assert [r.name for r in again] == [
                "" if name is None else str(name) for name in names
            ]

    @pytest.mark.parametrize(
        ("bad", "error", "message"),
        [
            (record(name="one core", cores=1, rank=4), DegenerateCoresError,
             "needs at least 2 processors to invert, got 1"),
            (record(name="one, core", cores=1, rank=4), DegenerateCoresError,
             "needs at least 2 processors to invert, got 1"),
            (record(name="below", cores=4, rmax=0.2, rpeak=1.0, rank=4), InfeasibleTargetError,
             "efficiency 0.2 is below 1/4, a slowdown the model cannot express"),
        ],
        ids=["plain-name", "quoted-name", "below-one-over-k"],
    )
    def test_a_derived_error_leaves_the_rows_before_it(self, bad, error, message):
        original = [record(name="a"), record(name="b,c", rank=2), record(name="d", rank=3), bad,
                    record(name="e", rank=5)]
        written = write_outcome(write_records, original, comment="c", derived=True)
        assert written == write_outcome(csv_write_records, original, comment="c", derived=True)
        text, raised = written
        assert raised == (error, message)
        assert [r.name for r in parse_records(io.StringIO(text))] == ["a", "b,c", "d"]


# rmax and rpeak as a record holds them: floats down to the smallest subnormal,
# ints and numpy floats.
peaks = (
    st.floats(min_value=5e-324, max_value=1e300)
    | st.integers(min_value=1, max_value=2**1000)
    | st.floats(min_value=5e-324, max_value=1e300).map(np.float64)
)


class TestDerive:
    def test_reference_values(self):
        titan = record(cores=560640, rmax=0.649, rpeak=1.0)
        metrics = derive(titan)
        assert metrics.efficiency.value == 0.649
        assert metrics.one_minus_alpha_eff == pytest.approx(9.647e-7, rel=1e-3)

        ncube = record(cores=1024, rmax=0.12, rpeak=1.0)
        assert derive(ncube).one_minus_alpha_eff == pytest.approx(7.168e-3, rel=5e-3)

    def test_peak_efficiency_means_fully_parallel(self):
        assert derive(record(rmax=1000.0, rpeak=1000.0)).one_minus_alpha_eff == 0.0

    def test_single_core_cannot_be_inverted(self):
        with pytest.raises(DegenerateCoresError):
            derive(record(cores=1, rmax=500.0, rpeak=1000.0))

    @pytest.mark.parametrize(
        ("fields", "error", "message"),
        [
            ({"cores": 1}, DegenerateCoresError, "needs at least 2 processors to invert, got 1"),
            ({"cores": 4, "rmax": 0.2, "rpeak": 1.0}, InfeasibleTargetError,
             "efficiency 0.2 is below 1/4, a slowdown the model cannot express"),
            # E = 5e-324 has an infinite inverse excess
            ({"cores": 4, "rmax": 5e-324, "rpeak": 1.0}, InfeasibleTargetError,
             "efficiency 5e-324 is below 1/4, a slowdown the model cannot express"),
            ({"rmax": 5e-324, "rpeak": 1e300}, ValueError,
             "efficiency must be finite and > 0, got 0.0"),
        ],
        ids=["one-core", "below-one-over-k", "inverse-excess-overflows", "efficiency-underflows"],
    )
    def test_errors(self, fields, error, message):
        with pytest.raises(ValueError) as excinfo:
            derive(record(**fields))
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_efficiency_at_one_over_k_is_fully_serial(self):
        assert derive(record(cores=4, rmax=0.25, rpeak=1.0)).one_minus_alpha_eff == 1.0

    @given(
        st.integers(min_value=1, max_value=10**7) | st.integers(min_value=2, max_value=2**70),
        peaks,
        peaks,
    )
    @example(1, 1.0, 2.0)  # one core
    @example(4, 0.2, 1.0)  # E < 1/k
    @example(4, 5e-324, 1.0)  # an inverse excess that overflows
    @example(1000, 5e-324, 1e300)  # rmax / rpeak underflows to 0
    @example(1000, 1, 3)  # int rmax and rpeak
    @example(1000, np.float64(0.5), 1.0)
    def test_matches_the_checked_inversion(self, cores, a, b):
        """derive, the best-alpha key and the derived write columns give the checked inversion's
        floats bit for bit, or its error."""
        r = record(cores=cores, rmax=min(a, b), rpeak=max(a, b))

        def checked():
            eff = Efficiency(r.rmax / r.rpeak)
            return DerivedMetrics(eff, alpha_eff_from_efficiency(eff, r.cores).one_minus_alpha)

        def outcome(f):
            try:
                value = f()
            except ValueError as exc:
                return type(exc), str(exc)
            return repr(value), [type(x) for x in value]

        def written():
            buffer = io.StringIO()
            write_records([r], buffer, derived=True)
            return tuple(map(float, buffer.getvalue().splitlines()[1].split(",")[8:]))

        expected = outcome(checked)
        assert outcome(lambda: derive(r)) == expected
        assert outcome(lambda: derive(r).efficiency) == outcome(lambda: checked().efficiency)
        pair = outcome(lambda: (checked().efficiency.value, checked().one_minus_alpha_eff))
        assert outcome(lambda: _derived_pair(r)) == pair  # the best-alpha key's number
        assert outcome(written) == pair
        assert outcome(lambda: select_champions([r], "best-alpha")) == (
            outcome(lambda: [r]) if isinstance(expected[0], str) else expected
        )

    def test_forward_model_reproduces_fixture_efficiencies(self):
        for name in ("top500_2017_hpl.csv", "top500_2017_hpcg.csv", "early_linpack_1992.csv"):
            for r in read_records(fixture_path(name)):
                m = derive(r)
                rebuilt = efficiency_from_alpha(m.one_minus_alpha_eff, r.cores).value
                measured = r.rmax / r.rpeak
                assert abs(rebuilt - measured) / measured <= 1e-12


class TestChampions:
    def test_best_rmax_per_year(self):
        rows = [
            record(year=1993, rank=2, name="B", rmax=60.0, rpeak=100.0),
            record(year=1993, rank=1, name="A", rmax=50.0, rpeak=100.0),
            record(year=1994, rank=1, name="C", rmax=70.0, rpeak=100.0),
        ]
        champs = select_champions(rows, ChampionCriterion.BEST_RMAX)
        assert [(c.year, c.name) for c in champs] == [(1993, "B"), (1994, "C")]

    def test_best_alpha_prefers_smaller_serial_fraction(self):
        # Same efficiency, more cores: the larger machine implies a smaller
        # serial fraction, so it wins the alpha criterion.
        small = record(rank=1, name="Small", cores=100, rmax=800.0, rpeak=1000.0)
        large = record(rank=2, name="Large", cores=10000, rmax=800.0, rpeak=1000.0)
        champs = select_champions([small, large], ChampionCriterion.BEST_ALPHA)
        assert champs == [large]

    def test_ties_break_by_rank_then_name(self):
        a = record(rank=2, name="Zeta")
        b = record(rank=2, name="Alpha")
        c = record(rank=5, name="Aardvark")
        assert select_champions([a, b, c], ChampionCriterion.BEST_RMAX) == [b]

    def test_years_come_back_sorted(self):
        rows = [record(year=y, name=f"M{y}") for y in (2001, 1997, 1999)]
        champs = select_champions(rows, ChampionCriterion.BEST_ALPHA)
        assert [c.year for c in champs] == [1997, 1999, 2001]

    @given(
        st.lists(
            st.builds(
                record,
                year=st.integers(min_value=2000, max_value=2002),
                rank=st.integers(min_value=1, max_value=3),
                name=st.sampled_from(("A", "B", "C")),
                cores=st.sampled_from((10, 1000)),
                rmax=st.sampled_from((250.0, 500.0, 750.0)),
            ),
            max_size=25,
        ),
        st.sampled_from(list(ChampionCriterion)),
        st.integers(min_value=1, max_value=4),
    )
    def test_top_selects_from_each_years_best_ranks(self, records, by, top):
        pool = []
        for year in sorted({r.year for r in records}):
            cohort = [r for r in records if r.year == year]
            pool += sorted(cohort, key=lambda r: (r.rank, r.name))[:top]
        assert select_champions(records, by, top=top) == select_champions(pool, by)

    def test_top_must_be_positive(self):
        with pytest.raises(ValueError):
            select_champions([record()], ChampionCriterion.BEST_RMAX, top=0)

    def test_criterion_is_a_member_or_its_value(self):
        # X has the higher rmax, Y the smaller serial fraction.
        x = record(rank=1, name="X", cores=10, rmax=900.0, rpeak=1000.0)
        y = record(rank=2, name="Y", cores=10**6, rmax=500.0, rpeak=1000.0)
        for by in (ChampionCriterion.BEST_RMAX, "best-rmax"):
            assert select_champions([x, y], by) == [x]
        for by in (ChampionCriterion.BEST_ALPHA, "best-alpha"):
            assert select_champions([x, y], by) == [y]
        for by in ("nonsense", None, "BEST_RMAX"):
            with pytest.raises(ValueError):
                select_champions([x, y], by)


class TestSemilogFit:
    def test_recovers_planted_line(self):
        slope, intercept = -0.1, -1.0
        points = [(x, 10.0 ** (intercept + slope * x)) for x in range(10)]
        fit = fit_semilog(points)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n == 10

    def test_two_points_fit_exactly(self):
        fit = fit_semilog([(0.0, 1.0), (10.0, 0.01)])
        assert fit.slope == pytest.approx(-0.2, rel=1e-12)
        assert fit.r_squared == 1.0

    def test_flat_data_has_unit_r_squared(self):
        fit = fit_semilog([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_error_taxonomy(self):
        with pytest.raises(NonPositiveValueError):
            fit_semilog([(0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(NonPositiveValueError):
            fit_semilog([(0.0, 1.0), (1.0, -2.0)])
        with pytest.raises(NonPositiveValueError, match="^cannot take log10 of a 1329-bit integer$"):
            fit_semilog([(1, 10**400), (2, 1.0)])
        with pytest.raises(DegenerateDataError):
            fit_semilog([(3.0, 1.0), (3.0, 2.0)])
        with pytest.raises(ValueError):
            fit_semilog([(0.0, 1.0)])

    @pytest.mark.parametrize(
        ("x", "shown"),
        [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**200, str(10**200)),
         (-1e151, "-1e+151"), (10**400, "a 1329-bit integer")],
        ids=["nan", "inf", "-inf", "1e200-int", "-1e151", "int-beyond-float"],
    )
    def test_rejects_x_that_is_not_finite_or_too_large(self, x, shown):
        with pytest.raises(ModelError) as excinfo:
            fit_semilog([(2000.0, 1.0), (x, 2.0), (2010.0, 3.0)])
        assert str(excinfo.value) == f"x must be finite and at most 1e150 in magnitude, got {shown}"

    @pytest.mark.parametrize(
        ("points", "slope"),
        [
            ([(2.0**60, 10.0), (2.0**60 + 256, 100.0)], 0.00390625),  # a spread of one ulp of x
            ([(0.0, 1.0), (1e-170, 10.0)], 1e170),  # a spread whose square underflows
        ],
        ids=["ulp-spread", "tiny-spread"],
    )
    def test_spread_at_the_edges_of_the_float_range(self, points, slope):
        # Centred on the rounded mean, the first gave slope 0.001953125 and r_squared
        # 0.5, and the second raised DegenerateDataError.
        fit = fit_semilog(points)
        assert (fit.slope, fit.r_squared) == (slope, 1.0)

    def test_slope_beyond_the_float_range(self):
        message = r"^the slope 1\.0 / 5e-324 overflows the float range$"
        with pytest.raises(ModelError, match=message):
            fit_semilog([(0.0, 1.0), (5e-324, 10.0)])

    def test_largest_x_fits(self):
        fit = fit_semilog([(-1e150, 1.0), (1e150, 100.0)])
        assert fit.slope == pytest.approx(1e-150)
        assert fit.intercept == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1990, max_value=2020),
                st.floats(min_value=1e-9, max_value=1.0),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_matches_numpy_least_squares(self, points):
        xs = [p[0] for p in points]
        if len(set(xs)) < 2:
            points = points + [(xs[0] + 1, 0.5)]
        fit = fit_semilog(points)
        design = np.array([[1.0, x] for x, _ in points])
        target = np.log10(np.array([y for _, y in points]))
        coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert fit.intercept == pytest.approx(coeffs[0], rel=1e-8, abs=1e-8)
        assert fit.slope == pytest.approx(coeffs[1], rel=1e-8, abs=1e-8)


class TestYearlyEfficiency:
    def test_single_year_statistics(self):
        rows = [
            record(rank=1, rmax=800.0, rpeak=1000.0),
            record(rank=2, rmax=600.0, rpeak=1000.0),
            record(rank=3, rmax=400.0, rpeak=1000.0),
        ]
        (stats,) = yearly_mean_efficiency(rows, top_n=3)
        assert stats.year == 2017
        assert stats.mean_efficiency == pytest.approx(0.6, rel=1e-15)
        # Population form: sqrt(mean of squared deviations), not the n-1 form.
        expected_sd = math.sqrt(((0.2) ** 2 + 0.0 + (0.2) ** 2) / 3)
        assert stats.sd_efficiency == pytest.approx(expected_sd, rel=1e-12)

    def test_top_n_takes_best_ranks(self):
        rows = [
            record(rank=3, rmax=100.0, rpeak=1000.0),
            record(rank=1, rmax=900.0, rpeak=1000.0),
            record(rank=2, rmax=700.0, rpeak=1000.0),
        ]
        (stats,) = yearly_mean_efficiency(rows, top_n=2)
        assert stats.mean_efficiency == pytest.approx(0.8, rel=1e-15)

    def test_years_are_separate_and_sorted(self):
        rows = [
            record(year=2010, rmax=500.0, rpeak=1000.0),
            record(year=2008, rmax=250.0, rpeak=1000.0),
        ]
        result = yearly_mean_efficiency(rows, top_n=5)
        assert [(r.year, r.mean_efficiency, r.sd_efficiency) for r in result] == [
            (2008, 0.25, 0.0),
            (2010, 0.5, 0.0),
        ]

    def test_rejects_bad_top_n(self):
        with pytest.raises(ValueError):
            yearly_mean_efficiency([record()], top_n=0)

    def test_synthetic_cohort_fixture(self):
        rows = read_records(fixture_path("top25_2016_hpl.csv"))
        (stats,) = yearly_mean_efficiency(rows, top_n=25)
        assert stats.year == 2016
        assert stats.mean_efficiency == pytest.approx(0.757, abs=1e-12)
        assert stats.sd_efficiency == pytest.approx(0.117, abs=1e-12)

    @pytest.mark.parametrize(
        "name, top_n, expected",
        [
            ("early_linpack_1992.csv", 3, (1992, 0.8233333333333333, 0.09568466729604885)),
            ("early_linpack_1992.csv", 500, (1992, 0.614, 0.33215056826686296)),
            ("top500_2017_hpl.csv", 3, (2017, 0.7108347409609773, 0.06758623120761925)),
            ("top500_2017_hpl.csv", 500, (2017, 0.7197504222882932, 0.13323065674834927)),
            ("top500_2017_hpcg.csv", 3, (2017, 0.030666666666666665, 0.017249798710580813)),
            ("top500_2017_hpcg.csv", 500, (2017, 0.01877777777777778, 0.013595569358171047)),
            ("top25_2016_hpl.csv", 3, (2016, 0.87641262496068, 0.0)),
            ("top25_2016_hpl.csv", 500, (2016, 0.757, 0.11700000000000002)),
        ],
    )
    def test_bundled_files_give_the_statistics_module_floats(self, name, top_n, expected):
        # The floats statistics.fmean and statistics.pstdev gave on Python 3.11.
        (stats,) = yearly_mean_efficiency(read_records(fixture_path(name)), top_n=top_n)
        assert tuple(stats) == expected


# Efficiencies as a cohort holds them: floats in [0, 1], subnormals and 0.0 among them.
unit_floats = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(
    [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0]
)


@st.composite
def cohorts(draw):
    values = draw(st.lists(unit_floats, min_size=1, max_size=600))
    if draw(st.booleans()):  # few distinct values, each repeated
        values = draw(st.lists(st.sampled_from(values[:4]), min_size=1, max_size=600))
    return values


class TestPstdev:
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.pstdev is correctly rounded from Python 3.11")
    @given(cohorts())
    @example([5e-324])
    @example([0.0, 5e-324])
    @example([5e-324, 1.0])
    @example([0.1] * 600)
    @example([0.0, 1.0] * 300)
    def test_equals_statistics_pstdev(self, values):
        assert _pstdev(values).hex() == statistics.pstdev(values).hex()

    def test_exact_where_the_root_is_exact(self):
        assert _pstdev([0.25]) == 0.0
        assert _pstdev([0.0, 1.0]) == 0.5
        assert _pstdev([0.5, 0.5, 0.75, 0.75]) == 0.125
        assert _pstdev([0.0, 2.0**-1074]) == 0.0  # 2**-1075 ties to the even 0


class Int(int):
    pass


class Float(float):
    pass


def record_outcome(year, rank, cores, rmax, rpeak):
    """The record with the types of its fields, or the error's type and message.

    A message names a numpy value by the plain number it reads as, so the messages
    of a numpy and a plain record compare equal.
    """
    try:
        r = MachineRecord(year, rank, "x", Architecture.MPP, cores, rmax, rpeak, Benchmark.HPL)
    except ValueError as exc:
        return type(exc), str(exc)
    return r, [type(field) for field in r]


def as_subclasses(year, rank, cores, rmax, rpeak):
    return Int(year), Int(rank), Int(cores), Float(rmax), Float(rpeak)


def as_numpy(year, rank, cores, rmax, rpeak):
    def np_int(v):
        return np.int64(v) if -(2**63) <= v < 2**63 else v
    return np_int(year), np_int(rank), np_int(cores), np.float64(rmax), np.float64(rpeak)


MAX = sys.float_info.max


class TestRecordAcceptPath:
    """Exact ints and floats in range skip the guards; the guards must agree with them."""

    @pytest.mark.parametrize("convert", [as_subclasses, as_numpy], ids=["subclass", "numpy"])
    @pytest.mark.parametrize(
        "year, rank, cores, rmax, rpeak",
        [
            (2017, 1, 4, 1.0, 2.0),
            (0, 1, 4, 1.0, 2.0),
            (1, 1, 4, 1.0, 2.0),
            (9999, 1, 4, 1.0, 2.0),
            (10000, 1, 4, 1.0, 2.0),
            (2017, 0, 4, 1.0, 2.0),
            (2017, 2**70, 4, 1.0, 2.0),
            (2017, 1, 0, 1.0, 2.0),
            (2017, 1, 1, 1.0, 2.0),
            (2017, 1, 2**1024, 1.0, 2.0),
            (2017, 1, 4, 0.0, 2.0),
            (2017, 1, 4, -0.0, 2.0),
            (2017, 1, 4, 5e-324, 2.0),
            (2017, 1, 4, 5e-324, 5e-324),
            (2017, 1, 4, 1.0, MAX),
            (2017, 1, 4, MAX, MAX),
            (2017, 1, 4, 1.0, math.inf),
            (2017, 1, 4, math.inf, math.inf),
            (2017, 1, 4, math.nan, 2.0),
            (2017, 1, 4, 1.0, math.nan),
            (2017, 1, 4, 2.0, 1.0),
            (2017, 1, 4, 1.0, 0.0),
            (2017, 1, 4, 1.0, -0.0),
        ],
    )
    def test_boundaries_match_the_guard_path(self, convert, year, rank, cores, rmax, rpeak):
        exact = record_outcome(year, rank, cores, rmax, rpeak)
        assert record_outcome(*convert(year, rank, cores, rmax, rpeak)) == exact

    @given(
        st.integers(-2, 10**4 + 2), st.integers(-2, 2**70), st.integers(-2, 2**1030),
        st.floats(), st.floats(),
    )
    def test_random_values_match_the_guard_path(self, year, rank, cores, rmax, rpeak):
        exact = record_outcome(year, rank, cores, rmax, rpeak)
        assert record_outcome(*as_subclasses(year, rank, cores, rmax, rpeak)) == exact

    @pytest.mark.parametrize("field", ["year", "rank", "cores"])
    def test_bool_fields_are_rejected(self, field):
        fields = {**dict(year=2017, rank=1, cores=4, rmax=1.0, rpeak=2.0), field: True}
        assert record_outcome(**fields) == (ValueError, f"{field} must be an integer, got True")


class TestFixtures:
    def test_fixture_paths_exist(self):
        for name in (
            "early_linpack_1992.csv",
            "top500_2017_hpl.csv",
            "top500_2017_hpcg.csv",
            "top25_2016_hpl.csv",
            "workload_classic.json",
            "workload_realistic.json",
        ):
            path = fixture_path(name)
            with open(path, encoding="utf-8") as fh:
                assert fh.read(1)

    def test_hpl_fixture_is_internally_consistent(self):
        for r in read_records(fixture_path("top500_2017_hpl.csv")):
            assert r.year == 2017
            assert r.benchmark is Benchmark.HPL
            assert 0.0 < r.rmax / r.rpeak <= 1.0

    def test_hpcg_fixture_ranks_are_benchmark_ranks(self):
        ranks = [r.rank for r in read_records(fixture_path("top500_2017_hpcg.csv"))]
        assert ranks == [1, 2, 3, 4, 5, 6, 7, 8, 10]
