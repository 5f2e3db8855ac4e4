"""Byte-exact text of the command line: the ``--help`` pages and the README examples.

Help text is argparse's, wrapped to the terminal width, so each test pins
``COLUMNS=80``. The literals are the output of Python 3.11; other versions
of argparse may wrap or label sections differently.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from amdahl.cli import run

REPO = Path(__file__).resolve().parents[1]

HELP = {
    (): """\
usage: amdahl [-h] [--format {table,csv}] [--precision PRECISION]
              <command> ...

Strong-scaling analysis: serial-fraction estimation, benchmark record
analytics, scaling projections, and timeline simulation.

positional arguments:
  <command>
    alpha               estimate the effective serial fraction from
                        measurements
    simulate            run a sequential/parallel workload through the
                        timeline scheduler
    timeline            per-year champion records with derived scaling metrics
                        and a trend fit
    mean-efficiency     per-year mean and standard deviation of efficiency
                        over top-ranked records
    project             efficiency and payload performance along a peak-
                        performance sweep
    whatif              rescale a measured machine to a new size, optionally
                        degrading the code
    required-alpha      serial fraction needed to hold an efficiency at a core
                        count
    bounds              absolute limits implied by a budget of inherently
                        serial cycles
    saturation          payload-performance ceiling of unbounded growth
    sweep               grid of effective parallel fractions over overhead and
                        sequential ratios

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
""",
    ("alpha",): """\
usage: amdahl alpha [-h] [--format {table,csv}] [--precision PRECISION]
                    [--efficiency EFFICIENCY] [--speedup SPEEDUP]
                    [--cores CORES] [--e1 E1] [--e2 E2] [--t1 T1] [--t2 T2]
                    [--k1 K1] [--k2 K2]

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --efficiency EFFICIENCY
                        measured efficiency in (0, 1]
  --speedup SPEEDUP     measured speedup
  --cores CORES         processor count of the measurement
  --e1 E1               first efficiency of a two-point estimate
  --e2 E2               second efficiency of a two-point estimate
  --t1 T1               first runtime of a two-timing estimate
  --t2 T2               second runtime of a two-timing estimate
  --k1 K1               cores of the first point
  --k2 K2               cores of the second point
""",
    ("simulate",): """\
usage: amdahl simulate [-h] [--format {table,csv}] [--precision PRECISION]
                       --workload WORKLOAD

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --workload WORKLOAD   workload file (JSON)
""",
    ("timeline",): """\
usage: amdahl timeline [-h] [--format {table,csv}] [--precision PRECISION]
                       --input INPUT --select {best-rmax,best-alpha}
                       [--top TOP]

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --input INPUT         record CSV
  --select {best-rmax,best-alpha}
                        champion criterion
  --top TOP             only consider each year's N best-ranked records
""",
    ("mean-efficiency",): """\
usage: amdahl mean-efficiency [-h] [--format {table,csv}]
                              [--precision PRECISION] --input INPUT --top TOP

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --input INPUT         record CSV
  --top TOP             cohort size per year
""",
    ("project",): """\
usage: amdahl project [-h] [--format {table,csv}] [--precision PRECISION]
                      [--input INPUT] [--name NAME]
                      [--one-minus-alpha ONE_MINUS_ALPHA] [--cores CORES]
                      [--rpeak RPEAK] --rpeak-from RPEAK_FROM --rpeak-to
                      RPEAK_TO --points POINTS

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --input INPUT         record CSV to take the base machine from
  --name NAME           machine name inside --input
  --one-minus-alpha ONE_MINUS_ALPHA
                        explicit serial fraction
  --cores CORES         explicit base core count
  --rpeak RPEAK         explicit base peak, Gflop/s or suffixed
  --rpeak-from RPEAK_FROM
                        grid start
  --rpeak-to RPEAK_TO   grid end
  --points POINTS       grid size
""",
    ("whatif",): """\
usage: amdahl whatif [-h] [--format {table,csv}] [--precision PRECISION]
                     --efficiency EFFICIENCY --cores CORES --new-cores
                     NEW_CORES --rpeak RPEAK [--alpha-scale ALPHA_SCALE]

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --efficiency EFFICIENCY
                        measured base efficiency
  --cores CORES         base core count
  --new-cores NEW_CORES
                        target core count
  --rpeak RPEAK         target peak
  --alpha-scale ALPHA_SCALE
                        factor applied to the serial fraction (default 1)
""",
    ("required-alpha",): """\
usage: amdahl required-alpha [-h] [--format {table,csv}]
                             [--precision PRECISION] --efficiency EFFICIENCY
                             --cores CORES

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --efficiency EFFICIENCY
  --cores CORES
""",
    ("bounds",): """\
usage: amdahl bounds [-h] [--format {table,csv}] [--precision PRECISION]
                     --clock-hz CLOCK_HZ --runtime-s RUNTIME_S
                     [--hw-cycles HW_CYCLES] [--os-cycles OS_CYCLES]
                     [--sw-cycles SW_CYCLES] [--size-m SIZE_M]
                     [--per-proc-flops PER_PROC_FLOPS]

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --clock-hz CLOCK_HZ
  --runtime-s RUNTIME_S
  --hw-cycles HW_CYCLES
  --os-cycles OS_CYCLES
  --sw-cycles SW_CYCLES
  --size-m SIZE_M
  --per-proc-flops PER_PROC_FLOPS
                        single-processor rate; suffixed values are
                        Gflop/s-based
""",
    ("saturation",): """\
usage: amdahl saturation [-h] [--format {table,csv}] [--precision PRECISION]
                         --per-proc-flops PER_PROC_FLOPS --one-minus-alpha
                         ONE_MINUS_ALPHA

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --per-proc-flops PER_PROC_FLOPS
  --one-minus-alpha ONE_MINUS_ALPHA
""",
    ("sweep",): """\
usage: amdahl sweep [-h] [--format {table,csv}] [--precision PRECISION]
                    --workload WORKLOAD [--processors PROCESSORS] --overhead
                    OVERHEAD --sequential SEQUENTIAL

options:
  -h, --help            show this help message and exit
  --format {table,csv}  output format (default: table)
  --precision PRECISION
                        significant digits for table output (default: 4)
  --workload WORKLOAD   template workload file (JSON)
  --processors PROCESSORS
                        override the template's count
  --overhead OVERHEAD   comma-separated ratios
  --sequential SEQUENTIAL
                        comma-separated ratios
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "amdahl")
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([*command, "--help"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (HELP[command], "")


def _readme_examples() -> list[tuple[list[str], str]]:
    """Each ``$ amdahl ...`` console block under "Command line": its argv and its output."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```console\n(.*?)```", section, re.S):
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)
        while command.endswith("\\\n"):
            command = command[:-2] + lines.pop(0)
        argv = shlex.split(command)
        assert argv[:2] == ["$", "amdahl"], command
        examples.append((argv[2:], "".join(lines)))
    return examples


EXAMPLES = _readme_examples()


def test_readme_shows_one_example_per_subcommand():
    assert len(EXAMPLES) == 10
    assert len({argv[0] for argv, _ in EXAMPLES}) == 10


@pytest.mark.parametrize(("argv", "shown"), EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, argv, shown):
    monkeypatch.chdir(REPO)
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (shown, "")
