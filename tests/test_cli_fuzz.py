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
"""

from __future__ import annotations

import io
import re
import shlex
import sys

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
    code, out = run_captured(argv)
    assert code in (0, 1, 2)
    if code != 0:
        return
    lines = out.splitlines()
    echoed = 0
    if argv[0] == "--format=csv":
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert re.fullmatch(r"[a-z_]+(,[a-z_]+)*", lines[header]), lines[: header + 1]
        # The first comment repeats the argv, which may itself say nan or inf.
        echoed = len(("amdahl " + shlex.join(argv)).splitlines())
    printed = "\n".join(lines[echoed:])
    assert not re.search(r"\b(inf|nan)\b", printed, re.IGNORECASE), printed
