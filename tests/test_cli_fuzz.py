"""Fuzz of the command line: any argv ends in exit 0, 1 or 2, never a traceback.

Each example is one subcommand with a random subset of its flags, valued from
edge numbers (nan, infinities, signed zeros, the smallest subnormal, values
near the float maximum, unit suffixes, 30-digit integers), some of them
padded with spaces, tabs or line breaks, which the flag parsers strip. A run
that exits 0 never prints ``inf`` or ``nan``, and in csv format writes only
``#`` lines before its header row, even where the echoed argv holds a line break.

Counts that size an allocation stay small (``--points`` and ``--processors`` at
most 64, and only the bundled workload files), so no example can ask for a
huge grid or processor list.

The input files get the same check: each example writes one small record or
workload file and runs a subcommand that reads it. Half the files are valid
throughout; in the other half, fields are replaced by edge tokens, rows cut
short, JSON values given the wrong type and the text truncated. Record numbers
are sometimes written with a ``_`` between digits or padded with \\x1c to
\\x1f, and names hold line breaks; a record table printed in table format
keeps each row on one line. Workloads name at most 16 processors, or a count
every subcommand rejects.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
import shlex
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amdahl.cli import run
from amdahl.dataset import fixture_path

EDGE_NUMBERS = (
    "nan", "-nan", "inf", "-inf", "0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.5e-320",
    "1e-308", "1e308", "-1e308", "1.7976931348623157e308", "1", "2", "0.5", "0.999", "1e-9",
    "123456789012345678901234567890", "-123456789012345678901234567890", "x", "",
)


def padded(tokens):
    """The tokens, one in four with whitespace around it; int() and float() strip it."""
    space = st.sampled_from(("", " ", "\t", "\n", " \n"))
    return st.one_of(tokens, tokens, tokens, st.tuples(space, tokens, space).map("".join))


number = padded(st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.floats(min_value=0.0, max_value=1.0).map(repr),  # in most domains, so some runs succeed
    st.floats(min_value=1.0, max_value=1e6).map(repr),
    st.floats().map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
))
performance = st.one_of(
    number,
    st.tuples(st.sampled_from(EDGE_NUMBERS), st.sampled_from("MGTPEmgtpeX")).map("".join),
)
count = padded(st.one_of(
    st.sampled_from(("1", "2", "3", "16", "0", "-1", "2.5", "nan", "1" + "0" * 30)),
    st.integers(min_value=1, max_value=10**6).map(str),
    st.integers(min_value=-3, max_value=10**30).map(str),
))
small_count = padded(st.integers(min_value=-1, max_value=64).map(str))  # sizes an allocation
ratios = st.lists(padded(st.sampled_from(EDGE_NUMBERS)), max_size=4).map(",".join)
records = st.sampled_from(
    [fixture_path(name) for name in (
        "top500_2017_hpl.csv", "top500_2017_hpcg.csv", "early_linpack_1992.csv",
        "top25_2016_hpl.csv", "workload_classic.json",
    )]
)
workloads = st.sampled_from(
    [fixture_path(name) for name in (
        "workload_classic.json", "workload_realistic.json", "top500_2017_hpl.csv",
    )]
)
names = st.sampled_from(("Titan", "Sunway TaihuLight", "K computer", "Parsytec FT-400", "none"))

FLAGS = {
    "alpha": {
        "--efficiency": number, "--speedup": number, "--cores": count, "--e1": number,
        "--e2": number, "--t1": number, "--t2": number, "--k1": count, "--k2": count,
    },
    "simulate": {"--workload": workloads},
    "timeline": {
        "--input": records, "--select": st.sampled_from(("best-rmax", "best-alpha", "x")),
        "--top": count,
    },
    "mean-efficiency": {"--input": records, "--top": count},
    "project": {
        "--input": records, "--name": names, "--one-minus-alpha": number, "--cores": count,
        "--rpeak": performance, "--rpeak-from": performance, "--rpeak-to": performance,
        "--points": small_count,
    },
    "whatif": {
        "--efficiency": number, "--cores": count, "--new-cores": count, "--rpeak": performance,
        "--alpha-scale": number,
    },
    "required-alpha": {"--efficiency": number, "--cores": count},
    "bounds": {
        "--clock-hz": number, "--runtime-s": number, "--hw-cycles": number,
        "--os-cycles": number, "--sw-cycles": number, "--size-m": number,
        "--per-proc-flops": performance,
    },
    "saturation": {"--per-proc-flops": performance, "--one-minus-alpha": number},
    "sweep": {
        "--workload": workloads, "--processors": small_count, "--overhead": ratios,
        "--sequential": ratios,
    },
}


# The flags that make each complete call of a subcommand.
CALLS = {
    "alpha": [
        ("--efficiency", "--cores"), ("--speedup", "--cores"),
        ("--e1", "--k1", "--e2", "--k2"), ("--t1", "--k1", "--t2", "--k2"),
    ],
    "simulate": [("--workload",)],
    "timeline": [("--input", "--select")],
    "mean-efficiency": [("--input", "--top")],
    "project": [
        ("--input", "--name", "--rpeak-from", "--rpeak-to", "--points"),
        ("--one-minus-alpha", "--cores", "--rpeak", "--rpeak-from", "--rpeak-to", "--points"),
    ],
    "whatif": [("--efficiency", "--cores", "--new-cores", "--rpeak")],
    "required-alpha": [("--efficiency", "--cores")],
    "bounds": [("--clock-hz", "--runtime-s")],
    "saturation": [("--per-proc-flops", "--one-minus-alpha")],
    "sweep": [("--workload", "--overhead", "--sequential")],
}


@st.composite
def argvs(draw):
    """A complete call; one in ten misses a flag, one in four has another of its flags."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    picked = list(draw(st.sampled_from(CALLS[command])))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        picked.remove(draw(st.sampled_from(picked)))
    others = sorted(set(flags) - set(picked))
    if others and draw(st.integers(min_value=0, max_value=3)) == 0:
        picked.append(draw(st.sampled_from(others)))
    # flag=value, so a value starting with "-" reaches the flag's own parser.
    argv = [command, *(f"{flag}={draw(flags[flag])}" for flag in picked)]
    if draw(st.booleans()):
        argv.insert(0, "--format=csv")
    return argv


def run_captured(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(argvs())
# Grid endpoints further apart than the float range: an inf grid point, and an
# OverflowError out of run(), before the grid fell back to log space.
@example(["project", "--one-minus-alpha", "0.1", "--cores", "4", "--rpeak", "1",
          "--rpeak-from", "5e-324", "--rpeak-to", "1", "--points", "3"])
@example(["project", "--one-minus-alpha", "0.1", "--cores", "1", "--rpeak", "1e10",
          "--rpeak-from", "1", "--rpeak-to", "1.7976931348623157e308", "--points", "5"])
# A count and a ratio ending in a line break, which split the echoed argv.
@example(["--format=csv", "alpha", "--efficiency=0.5", "--cores=4\n"])
@example(["--format=csv", "sweep", f"--workload={fixture_path('workload_classic.json')}",
          "--overhead=0\n", "--sequential=1"])
def test_any_argv_exits_cleanly(argv):
    check_clean_exit(argv)


def check_clean_exit(argv: list[str]) -> tuple[int, str]:
    code, out = run_captured(argv)
    assert code in (0, 1, 2)
    if code != 0:
        return code, out
    lines = out.splitlines()
    echoed = 0
    if argv[0] == "--format=csv":
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert re.fullmatch(r"[a-z_]+(,[a-z_]+)*", lines[header]), lines[: header + 1]
        # The first comment repeats the argv, which may itself say nan or inf.
        echoed = len(("amdahl " + shlex.join(argv)).splitlines())
    printed = "\n".join(lines[echoed:])
    assert not re.search(r"\b(inf|nan)\b", printed, re.IGNORECASE), printed
    return code, out


def check_table_rows(out: str) -> None:
    """Every row of a table-format table reaches its last column.

    Each cell is left-aligned under its header word and the last cell is a
    number, so a row that ends before the last column lost cells to a line
    break in an earlier cell.
    """
    lines = re.split(r"\r\n|\r|\n", out)
    header = next(i for i, line in enumerate(lines) if re.fullmatch(r"[a-z_]+(  +[a-z_]+)+", line))
    last_column = lines[header].rindex(" ") + 1
    for line in itertools.takewhile(bool, lines[header + 1:]):  # up to the blank line
        assert len(line) > last_column, lines


FILE = "<file>"  # stands for the path of the file an example writes
LONG_INT = "1" + "0" * 400
HEADER = "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark"
# Names with a comma, line breaks and a quote; none says inf or nan.
NAMES = ("A", "B", "Titan", "a, b", "line\nbreak", 'say "hi"', "carriage\rreturn")
edge_fields = st.sampled_from(EDGE_NUMBERS + (LONG_INT, "-1", "10000", "2.5", '"open', "#"))


@st.composite
def spelled(draw, number: str) -> str:
    """A number as written, or with a ``_`` between two digits, padding int() and float()
    do not skip (\\x1c to \\x1f, which the parser strips), or both."""
    if draw(st.booleans()):
        number = re.sub(r"(\d)(\d)", r"\1_\2", number, count=1)
    if draw(st.booleans()):
        pad = st.text(alphabet="\x1c\x1d\x1e\x1f ", max_size=2)
        number = draw(pad) + number + draw(pad)
    return number


@st.composite
def record_rows(draw, name: str, noisy: bool) -> str:
    """One csv row: a valid record, or when noisy now and then an edge field or a short row."""
    rpeak = draw(st.sampled_from((100.0, 93014.6, 1e6)))
    rmax = rpeak * draw(st.floats(min_value=0.05, max_value=1.0))  # E >= 1/20 cores: invertible
    row = [
        draw(spelled(str(draw(st.integers(min_value=1993, max_value=2020))))),
        draw(spelled(str(draw(st.integers(min_value=1, max_value=5))))),
        '"' + name.replace('"', '""') + '"',
        draw(st.sampled_from(("MPP", "Cluster", "Other"))),
        draw(spelled(str(draw(st.integers(min_value=20, max_value=10**6))))),
        draw(spelled(repr(rmax))),
        draw(spelled(repr(rpeak))),
        draw(st.sampled_from(("HPL", "HPCG"))),
    ]
    if noisy and draw(st.booleans()):  # not the name, which is printed as it is
        row[draw(st.sampled_from((0, 1, 3, 4, 5, 6, 7)))] = draw(edge_fields)
    if noisy and draw(st.integers(min_value=0, max_value=5)) == 0:
        row = row[: draw(st.integers(min_value=0, max_value=7))]
    return ",".join(row)


@st.composite
def record_runs(draw) -> tuple[str, list[str]]:
    """A record file of at most 5 rows, and a subcommand that reads it."""
    noisy = draw(st.booleans())
    comments = st.sampled_from(("# a comment", "  # indented", "", "#,x,y"))
    first = draw(st.integers(min_value=0, max_value=len(NAMES) - 1))
    size = draw(st.integers(min_value=0, max_value=5))
    names = [NAMES[(first + i) % len(NAMES)] for i in range(size)]
    lines = [  # one row per name; one in four a comment or blank line
        draw(st.one_of(*[record_rows(name, noisy)] * 3, comments)) for name in names
    ]
    text = "\n".join([HEADER, *lines]) + "\n"
    command = draw(st.sampled_from(("timeline", "mean-efficiency", "project")))
    if command == "timeline":
        args = ["--select", draw(st.sampled_from(("best-rmax", "best-alpha")))]
        if draw(st.booleans()):
            args += ["--top", str(draw(st.integers(min_value=1, max_value=3)))]
    elif command == "mean-efficiency":
        args = ["--top", str(draw(st.integers(min_value=1, max_value=5)))]
    else:
        args = ["--name", draw(st.sampled_from(names or NAMES)), "--rpeak-from=1",
                "--rpeak-to=1e6", "--points=3"]
    return text, [command, "--input", FILE, *args]


@st.composite
def workload_runs(draw) -> tuple[str, list[str]]:
    """A workload file, valid or with wrong JSON types and truncated text, and simulate or sweep."""
    noisy = draw(st.booleans())
    # 2**63 is the one count above 16 drawn: every subcommand rejects it.
    edge = st.sampled_from(
        (0, -1, 2.5, "1", None, True, [], {}, math.inf, math.nan, 10**400, 2**63)
    )

    def value(valid: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(valid, valid, valid, edge) if noisy else valid

    durations = value(st.floats(min_value=0.01, max_value=10.0))
    overheads = value(st.floats(min_value=0.0, max_value=1.0))
    sequential = st.fixed_dictionaries({"type": st.just("sequential"), "duration": durations})
    parallel = st.fixed_dictionaries({
        "type": st.just("parallel"), "dispatch": overheads, "collect": overheads,
        "chunks": value(st.lists(durations, min_size=1, max_size=5)),
    })
    if draw(st.booleans()):
        argv = ["simulate", "--workload", FILE]
        phases = st.lists(value(sequential | parallel), min_size=1, max_size=4)
    else:  # a sweep template has one parallel phase
        argv = ["sweep", "--workload", FILE, "--overhead=0,0.1", "--sequential=0,1"]
        phases = st.tuples(value(parallel)) | st.tuples(value(sequential), value(parallel))
    workload = st.fixed_dictionaries({
        "processors": value(st.integers(min_value=2, max_value=16)), "phases": value(phases),
    })
    text = json.dumps(draw(value(workload)))
    if noisy and draw(st.integers(min_value=0, max_value=3)) == 0:
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return text, argv


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=300, deadline=None)
@given(st.one_of(record_runs(), workload_runs()), st.booleans())
# Each once printed a traceback: a field past csv's size limit, a 401-digit year
# that float() could not convert, and nesting deeper than json.loads recurses.
@example((f"{HEADER}\n2017,1,{'x' * 131073},MPP,100,50,100,HPL\n",
          ["timeline", "--input", FILE, "--select", "best-rmax"]), False)
@example((f"{HEADER}\n2017,1,A,MPP,100,50,100,HPL\n{LONG_INT},1,B,MPP,100,60,100,HPL\n",
          ["timeline", "--input", FILE, "--select", "best-rmax"]), True)
@example(("[" * 200_000, ["simulate", "--workload", FILE]), False)
# A name with a line break once split its table row in two.
@example((f'{HEADER}\n2016,1,"two\nlines",MPP,100,50,100,HPL\n',
          ["timeline", "--input", FILE, "--select", "best-rmax"]), False)
def test_any_input_file_exits_cleanly(input_path, case, csv_format):
    text, argv = case
    input_path.write_text(text, encoding="utf-8")
    argv = [str(input_path) if token == FILE else token for token in argv]
    code, out = check_clean_exit(["--format=csv", *argv] if csv_format else argv)
    if code == 0 and not csv_format and argv[0] not in ("simulate", "sweep"):  # a record table
        check_table_rows(out)
