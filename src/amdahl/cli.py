"""Command-line front end.

One binary, many subcommands, two output modes. ``table`` is for reading,
``csv`` is for piping into plotting tools: it starts with ``#`` comment lines
naming the command that produced it, then a header row, then data rows whose
floats are written in shortest round-trip form so downstream parsing loses
nothing. A table's notes, the ``project`` title, the ``timeline`` fit and the
``sweep`` processor count, are built once: a table prints them as plain lines
above its header, csv as ``#`` lines with ``repr`` numbers. Given identical
arguments and input files the output bytes are identical; nothing here reads
clocks, environment variables, or config files.

Exit codes: 0 success, 1 usage error (bad flags, unknown subcommand),
2 data or model error (malformed input rows, superlinear measurements,
infeasible targets, missing files).

Performance-valued flags take plain numbers in Gflop/s or a unit suffix:
``229P``, ``1E``, ``93014.6T``, ``0.5M``. ``--per-proc-flops`` for ``bounds``
is normalized to flop/s, everything else to Gflop/s.

Each subcommand is declared once, on its handler: ``@_command`` records its
name, help line and arguments, and the parser is built from those records.
Each handler imports the library layers it calls when it runs, so a call loads
only what it uses.
"""

from __future__ import annotations

import argparse
import sys
from enum import Enum
from typing import Callable, Sequence

__all__ = ["run", "main"]

_GFLOPS_SUFFIX = {"M": 1e-3, "G": 1.0, "T": 1e3, "P": 1e6, "E": 1e9}
# The values of dataset.ChampionCriterion, spelled out so that building the
# parser does not import the record layer.
_CHAMPION_CRITERIA = ("best-rmax", "best-alpha")


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems instead of calling sys.exit(2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message, self)


def _performance(text: str) -> float:
    """Parse a performance value into Gflop/s, accepting M/G/T/P/E suffixes."""
    s = text.strip()
    try:
        return float(s)
    except ValueError:
        pass
    mult = _GFLOPS_SUFFIX.get(s[-1:].upper())
    if mult is not None:
        try:
            return float(s[:-1]) * mult
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"cannot parse performance value {text!r}; use Gflop/s or a suffix M/G/T/P/E"
    )


def _flag_type(parse: Callable, expected: str, accepts: Callable, rule: str) -> Callable:
    """An argparse type: the value ``parse`` reads from the text, if ``accepts`` takes it.

    A text that does not parse is "expected <expected>"; a value ``accepts`` refuses is
    ``rule``, with the value in its ``{}``.
    """

    def convert(text: str) -> object:
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(rule.format(value))
        return value

    return convert


_positive_int = _flag_type(int, "an integer", lambda n: n >= 1,
                           "expected a positive integer, got {}")
_grid_points = _flag_type(int, "an integer", lambda n: n >= 2,
                          "a projection grid needs at least 2 points")
_precision = _flag_type(int, "an integer", lambda n: 1 <= n <= 17,
                        "precision must be in [1, 17], got {}")
# Every float passes; the library checks its own domain.
_number = _flag_type(float, "a number", lambda x: True, "")
# nan is not below 0: it passes on to the library's guard, as inf does.
_nonnegative_float = _flag_type(float, "a number", lambda x: not x < 0.0,
                                "expected a nonnegative number, got {}")
_ratio_list = _flag_type(lambda text: [float(t) for t in text.split(",") if t.strip() != ""],
                         "comma-separated numbers", bool, "expected at least one ratio")


class _Output:
    """Shared rendering: scalar blocks and row tables in table or csv mode.

    Only csv output loads ``shlex``, for the command line it echoes.
    """

    def __init__(self, fmt: str, precision: int, argv: Sequence[str]) -> None:
        self.is_table = fmt == "table"
        self.precision = precision
        self.argv = argv
        self.out = sys.stdout

    def number(self, x: float) -> str:
        if self.is_table:
            return f"{x:.{self.precision - 1}e}"
        return repr(x)

    @staticmethod
    def one_line(text: str) -> str:
        """text with each line break shown as the two characters of its escape, ``\\r`` or ``\\n``.

        A title line or table row stays one line whatever the text holds.
        """
        return text.replace("\r", "\\r").replace("\n", "\\n")

    def cell(self, value: object) -> str:
        """value as one table cell or csv field; an Enum member is shown by its value."""
        if value is None:
            return "n/a" if self.is_table else ""
        if isinstance(value, float):
            return self.number(value)
        return str(value.value if isinstance(value, Enum) else value)

    def rate(self, value: float | None, unit: str = "Gflop/s") -> object:
        """A rate in Gflop/s or flop/s; tables add it in the largest fitting prefix."""
        if not self.is_table or value is None:
            return value
        gflops = value / 1e9 if unit == "flop/s" else value
        human = f"{gflops:.4g} Gflop/s"
        for mult, prefixed in ((1e9, "exaFLOPS"), (1e6, "Pflop/s"), (1e3, "Tflop/s")):
            if abs(gflops) >= mult:
                human = f"{gflops / mult:.4g} {prefixed}"
                break
        return f"{self.number(value)} {unit} ({human})"

    def aligned(self, rows: Sequence[Sequence[str]]) -> None:
        """Text rows in left-aligned columns two spaces apart, each row on one line."""
        rows = [[self.one_line(c) for c in row] for row in rows]
        widths = [max(map(len, column)) for column in zip(*rows)]
        for row in rows:
            self.out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")

    def scalars(self, pairs: Sequence[tuple[str, object]]) -> None:
        """One ``key  value`` line per pair; csv writes them as a one-row table."""
        if self.is_table:
            self.aligned([(key, self.cell(value)) for key, value in pairs])
        else:
            keys, values = zip(*pairs)
            self.table(keys, [values])

    def table(
        self, headers: Sequence[str], rows: Sequence[Sequence[object]], comments: Sequence[str] = ()
    ) -> None:
        """Rows under a header, after the notes in ``comments``.

        A table prints each note as one plain line; csv prints the command line, then the
        notes, as ``#`` lines.
        """
        text_rows = [[self.cell(v) for v in row] for row in rows]
        if self.is_table:
            self.out.writelines(self.one_line(note) + "\n" for note in comments)
            self.aligned([headers, *text_rows])
            return
        import shlex

        from .core import _comment_lines, _csv_line

        for text in ("amdahl " + shlex.join(self.argv), *comments):
            self.out.write(_comment_lines(text))
        self.out.writelines(map(_csv_line, (headers, *text_rows)))


# Subcommand name -> (help line, arguments, handler), filled by @_command in the
# order the handlers are defined, which is the order `amdahl --help` lists them.
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...], Callable]] = {}


def _arg(flag: str, **options: object) -> tuple[str, dict]:
    """One ``add_argument(flag, **options)`` call of a subcommand's parser."""
    return flag, options


def _command(name: str, summary: str, *arguments: tuple[str, dict]) -> Callable:
    """Declare a subcommand on the handler that runs it."""

    def register(handler: Callable) -> Callable:
        _COMMANDS[name] = (summary, arguments, handler)
        return handler

    return register


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="amdahl",
        description="Strong-scaling analysis: serial-fraction estimation, "
        "benchmark record analytics, scaling projections, and timeline simulation.",
    )
    common = _Parser(add_help=False)
    # Both parsers take the output flags; one given after the subcommand wins.
    for p in (parser, common):
        p.add_argument("--format", choices=("table", "csv"), default=argparse.SUPPRESS,
                       help="output format (default: table)")
        p.add_argument("--precision", type=_precision, default=argparse.SUPPRESS,
                       help="significant digits for table output (default: 4)")
    parser.set_defaults(format="table", precision=4)
    sub = parser.add_subparsers(dest="command", metavar="<command>", required=True)
    for name, (summary, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _flag_group(args: argparse.Namespace, groups: dict, message: str) -> tuple[str, list]:
    """The name of the one group of flags args uses, and the values of its flags in order.

    ``groups`` maps a name to the flags that select the group, the flags it needs and
    the message for a missing one. Selecting no group or more than one is ``message``.
    """
    picked = [name for name, (select, _, _) in groups.items()
              if any(getattr(args, f) is not None for f in select)]
    if len(picked) != 1:
        raise _UsageError(message)
    _, flags, missing = groups[picked[0]]
    values = [getattr(args, f) for f in flags]
    if None in values:
        raise _UsageError(missing)
    return picked[0], values


# The estimation modes of `amdahl alpha`, by the name of the core estimator that
# takes their flags in order (named rather than imported, so building the parser
# loads no library layer).
_ALPHA_MODES = {
    "alpha_eff_from_efficiency": (("efficiency",), ("efficiency", "cores"),
                                  "--efficiency also needs --cores"),
    "alpha_eff_from_speedup": (("speedup",), ("speedup", "cores"),
                               "--speedup also needs --cores"),
    "alpha_from_two_efficiencies": (("e1", "e2"), ("e1", "k1", "e2", "k2"),
                                    "two-point estimation needs all of --e1 --k1 --e2 --k2"),
    "alpha_from_two_timings": (("t1", "t2"), ("t1", "k1", "t2", "k2"),
                               "two-timing estimation needs all of --t1 --k1 --t2 --k2"),
}


@_command(
    "alpha",
    "estimate the effective serial fraction from measurements",
    _arg("--efficiency", type=_number, help="measured efficiency in (0, 1]"),
    _arg("--speedup", type=_number, help="measured speedup"),
    _arg("--cores", type=_positive_int, help="processor count of the measurement"),
    _arg("--e1", type=_number, help="first efficiency of a two-point estimate"),
    _arg("--e2", type=_number, help="second efficiency of a two-point estimate"),
    _arg("--t1", type=_number, help="first runtime of a two-timing estimate"),
    _arg("--t2", type=_number, help="second runtime of a two-timing estimate"),
    _arg("--k1", type=_positive_int, help="cores of the first point"),
    _arg("--k2", type=_positive_int, help="cores of the second point"),
)
def _cmd_alpha(args: argparse.Namespace, output: _Output) -> None:
    from . import core
    from .errors import UnboundedError

    estimator, values = _flag_group(args, _ALPHA_MODES, (
        "alpha needs exactly one estimation mode: --efficiency/--cores, "
        "--speedup/--cores, --e1/--k1/--e2/--k2, or --t1/--k1/--t2/--k2"))
    estimate = getattr(core, estimator)(*values)

    try:
        ceiling: object = core.max_speedup(estimate.one_minus_alpha)
    except UnboundedError:
        ceiling = "unbounded"
    output.scalars(
        [
            ("method", estimate.method),
            ("cores", estimate.cores),
            ("one_minus_alpha", estimate.one_minus_alpha),
            ("alpha", estimate.alpha),
            ("max_speedup", ceiling),
        ]
    )


@_command(
    "simulate",
    "run a sequential/parallel workload through the timeline scheduler",
    _arg("--workload", required=True, help="workload file (JSON)"),
)
def _cmd_simulate(args: argparse.Namespace, output: _Output) -> None:
    from itertools import compress

    from .workload import TimelineSegment, load_workload, simulate

    with open(args.workload, encoding="utf-8") as fh:
        spec = load_workload(fh)
    result = simulate(spec)
    efficiency = result.speedup.value / spec.processors
    pairs: list[tuple[str, object]] = [
        ("processors", spec.processors),
        ("serial_time", result.serial_time),
        ("parallel_time", result.parallel_time),
        ("speedup", result.speedup.value),
        ("efficiency", efficiency),
        ("alpha_eff", None if result.alpha_eff is None else result.alpha_eff.alpha),
        (
            "one_minus_alpha_eff",
            None if result.alpha_eff is None else result.alpha_eff.one_minus_alpha,
        ),
    ]
    busy, idle, k = result.per_processor_busy, result.per_processor_idle, spec.processors
    # ran is one past the last processor with busy time > 0. Those after it never ran:
    # busy 0.0, idle the makespan. Two or more of them are one row, labelled by their range.
    ran = max(compress(range(1, len(busy) + 1), busy), default=0)
    busy_rows: list[list[object]] = [[p, busy[p], idle[p]] for p in range(ran)]
    if ran < k:
        busy_rows.append([ran if k - ran == 1 else f"{ran}-{k - 1}", 0.0, result.parallel_time])

    if output.is_table:
        output.scalars(pairs)
        output.out.write("\n")
        output.table(("processor", "busy", "idle"), busy_rows)
        output.out.write("\n")
        output.table(TimelineSegment._fields, result.timeline)
    else:
        comments = [f"{key} = {output.cell(value) or 'n/a'}" for key, value in pairs]
        comments += [f"processor {p}: busy={repr(b)} idle={repr(i)}" for p, b, i in busy_rows]
        output.table(TimelineSegment._fields, result.timeline, comments=comments)


@_command(
    "timeline",
    "per-year champion records with derived scaling metrics and a trend fit",
    _arg("--input", required=True, help="record CSV"),
    _arg("--select", required=True, choices=_CHAMPION_CRITERIA, help="champion criterion"),
    _arg("--top", type=_positive_int, help="only consider each year's N best-ranked records"),
)
def _cmd_timeline(args: argparse.Namespace, output: _Output) -> None:
    from .dataset import _COLUMNS, _derived_pair, fit_semilog, read_records, select_champions

    records = read_records(args.input)
    champions = select_champions(records, args.select, top=args.top)
    rows = [(*r, *_derived_pair(r)) for r in champions]
    try:
        fit = fit_semilog([(row[0], row[-1]) for row in rows])
    except ValueError:  # fewer than two champions, or no fit through them
        fit = None
    fit_lines = [] if fit is None else [
        "fit of log10(one_minus_alpha_eff) on year: "
        + ", ".join(f"{key} {output.cell(value)}" for key, value in zip(fit._fields, fit))
    ]
    output.table(_COLUMNS, rows, comments=fit_lines)


@_command(
    "mean-efficiency",
    "per-year mean and standard deviation of efficiency over top-ranked records",
    _arg("--input", required=True, help="record CSV"),
    _arg("--top", required=True, type=_positive_int, help="cohort size per year"),
)
def _cmd_mean_efficiency(args: argparse.Namespace, output: _Output) -> None:
    from .dataset import YearlyEfficiency, read_records, yearly_mean_efficiency

    records = read_records(args.input)
    output.table(YearlyEfficiency._fields, yearly_mean_efficiency(records, args.top))


# The two ways `amdahl project` takes its base point.
_PROJECT_MODES = {
    "record": (("input", "name"), ("input", "name"), "--input and --name go together"),
    "explicit": (("one_minus_alpha", "cores", "rpeak"), ("one_minus_alpha", "cores", "rpeak"),
                 "explicit mode needs all of --one-minus-alpha --cores --rpeak"),
}


@_command(
    "project",
    "efficiency and payload performance along a peak-performance sweep",
    _arg("--input", help="record CSV to take the base machine from"),
    _arg("--name", help="machine name inside --input"),
    _arg("--one-minus-alpha", type=_number, help="explicit serial fraction"),
    _arg("--cores", type=_positive_int, help="explicit base core count"),
    _arg("--rpeak", type=_performance, help="explicit base peak, Gflop/s or suffixed"),
    _arg("--rpeak-from", required=True, type=_performance, help="grid start"),
    _arg("--rpeak-to", required=True, type=_performance, help="grid end"),
    _arg("--points", required=True, type=_grid_points, help="grid size"),
)
def _cmd_project(args: argparse.Namespace, output: _Output) -> None:
    from .projection import geometric_grid, project_curve

    mode, values = _flag_group(args, _PROJECT_MODES, "project takes either --input/--name or "
                               "--one-minus-alpha/--cores/--rpeak")
    if mode == "record":
        from .dataset import derive, read_records

        matches = [r for r in read_records(args.input) if r.name == args.name]
        if not matches:
            raise ValueError(f"no record named {args.name!r} in {args.input}")
        if len(matches) > 1:
            raise ValueError(
                f"{len(matches)} records named {args.name!r} in {args.input}; "
                "split the file by benchmark first"
            )
        record = matches[0]
        base_cores, base_rpeak = record.cores, record.rpeak
        one_minus_alpha = derive(record).one_minus_alpha_eff
        base_note = f"base: name={record.name} cores={base_cores} rpeak_gflops={base_rpeak!r}"
    else:
        one_minus_alpha, base_cores, base_rpeak = values
        base_note = f"base: cores={base_cores} rpeak_gflops={base_rpeak!r}"

    grid = geometric_grid(args.rpeak_from, args.rpeak_to, args.points)
    rows = project_curve(base_cores, base_rpeak, one_minus_alpha, grid)
    title = f"{base_note}  one_minus_alpha={output.cell(one_minus_alpha)}"
    if output.is_table:  # a count above 2**53 came from a double and equals it: print it as one
        rows = [(rp, float(k) if k > 2**53 else k, e, rmax) for rp, k, e, rmax in rows]
    output.table(
        ("rpeak_gflops", "cores", "efficiency", "rmax_gflops"),
        rows,
        comments=[title],
    )


@_command(
    "whatif",
    "rescale a measured machine to a new size, optionally degrading the code",
    _arg("--efficiency", required=True, type=_number, help="measured base efficiency"),
    _arg("--cores", required=True, type=_positive_int, help="base core count"),
    _arg("--new-cores", required=True, type=_positive_int, help="target core count"),
    _arg("--rpeak", required=True, type=_performance, help="target peak"),
    _arg(
        "--alpha-scale",
        type=_nonnegative_float,
        default=1.0,
        help="factor applied to the serial fraction (default 1)",
    ),
)
def _cmd_whatif(args: argparse.Namespace, output: _Output) -> None:
    from .core import alpha_eff_from_efficiency
    from .projection import ScalingScenario, whatif

    base = alpha_eff_from_efficiency(args.efficiency, args.cores)
    scenario = ScalingScenario(
        base_one_minus_alpha=base.one_minus_alpha,
        base_cores=args.cores,
        alpha_scale_factor=args.alpha_scale,
        target_cores=args.new_cores,
        target_rpeak=args.rpeak,
    )
    result = whatif(scenario)
    output.scalars(
        [
            ("base_efficiency", args.efficiency),
            ("base_cores", args.cores),
            ("base_one_minus_alpha", base.one_minus_alpha),
            ("alpha_scale", args.alpha_scale),
            ("one_minus_alpha", result.one_minus_alpha),
            ("target_cores", args.new_cores),
            ("target_rpeak_gflops", args.rpeak),
            ("efficiency", result.efficiency.value),
            ("rmax_gflops", output.rate(result.rmax)),
        ]
    )


@_command(
    "required-alpha",
    "serial fraction needed to hold an efficiency at a core count",
    _arg("--efficiency", required=True, type=_number),
    _arg("--cores", required=True, type=_positive_int),
)
def _cmd_required_alpha(args: argparse.Namespace, output: _Output) -> None:
    from .projection import required_one_minus_alpha

    required = required_one_minus_alpha(args.efficiency, args.cores)
    output.scalars(
        [
            ("efficiency", args.efficiency),
            ("cores", args.cores),
            ("required_one_minus_alpha", required),
        ]
    )


@_command(
    "bounds",
    "absolute limits implied by a budget of inherently serial cycles",
    _arg("--clock-hz", required=True, type=_number),
    _arg("--runtime-s", required=True, type=_number),
    _arg("--hw-cycles", type=_nonnegative_float, default=0.0),
    _arg("--os-cycles", type=_nonnegative_float, default=0.0),
    _arg("--sw-cycles", type=_nonnegative_float, default=0.0),
    _arg("--size-m", type=_nonnegative_float, default=0.0),
    _arg(
        "--per-proc-flops",
        type=_performance,
        help="single-processor rate; suffixed values are Gflop/s-based",
    ),
)
def _cmd_bounds(args: argparse.Namespace, output: _Output) -> None:
    from .projection import ContributionBudget, bounds

    per_flops = None if args.per_proc_flops is None else args.per_proc_flops * 1e9
    budget = ContributionBudget(
        clock_hz=args.clock_hz,
        total_time_s=args.runtime_s,
        hardware_cycles=args.hw_cycles,
        os_cycles=args.os_cycles,
        software_cycles=args.sw_cycles,
        physical_size_m=args.size_m,
        per_processor_flops=per_flops,
    )
    result = bounds(budget)
    output.scalars(
        [
            ("total_cycles", result.total_cycles),
            ("propagation_cycles", result.propagation_cycles),
            ("contributed_cycles", result.contributed_cycles),
            ("min_one_minus_alpha", result.min_one_minus_alpha),
            ("max_speedup", result.max_speedup),
            ("max_throughput_flops", output.rate(result.saturation_flops, "flop/s")),
            ("share_hardware", result.breakdown["hardware"]),
            ("share_os", result.breakdown["os"]),
            ("share_software", result.breakdown["software"]),
            ("share_propagation", result.breakdown["propagation"]),
        ]
    )


@_command(
    "saturation",
    "payload-performance ceiling of unbounded growth",
    _arg("--per-proc-flops", required=True, type=_performance),
    _arg("--one-minus-alpha", required=True, type=_number),
)
def _cmd_saturation(args: argparse.Namespace, output: _Output) -> None:
    from .projection import saturation_rmax

    ceiling = saturation_rmax(args.per_proc_flops, args.one_minus_alpha)
    output.scalars(
        [
            ("per_processor_rpeak_gflops", args.per_proc_flops),
            ("one_minus_alpha", args.one_minus_alpha),
            ("saturation_rmax_gflops", output.rate(ceiling)),
        ]
    )


@_command(
    "sweep",
    "grid of effective parallel fractions over overhead and sequential ratios",
    _arg("--workload", required=True, help="template workload file (JSON)"),
    _arg("--processors", type=_positive_int, help="override the template's count"),
    _arg("--overhead", required=True, type=_ratio_list, help="comma-separated ratios"),
    _arg("--sequential", required=True, type=_ratio_list, help="comma-separated ratios"),
)
def _cmd_sweep(args: argparse.Namespace, output: _Output) -> None:
    from .workload import load_workload, sweep_alpha_eff

    with open(args.workload, encoding="utf-8") as fh:
        template = load_workload(fh)
    processors = args.processors if args.processors is not None else template.processors
    grid = sweep_alpha_eff(processors, template, args.overhead, args.sequential)
    rows = [
        (overhead, sequential, None if one_minus is None else 1.0 - one_minus, one_minus)
        for overhead, sequential, one_minus in grid
    ]
    output.table(
        ("overhead_ratio", "sequential_ratio", "alpha_eff", "one_minus_alpha_eff"),
        rows,
        comments=[f"processors={processors}"],
    )


def _negative_value(flag: str, token: str) -> bool:
    """Whether token is a negative number given to flag, such as ``--speedup -1e3``.

    argparse reads a token like ``-1e3`` or ``-inf`` as a flag of its own, but takes
    any value written ``--flag=-1e3``; ``--help`` takes no value.
    """
    try:
        _performance(token)
    except argparse.ArgumentTypeError:
        return False
    return (token[:1] == "-" and flag[:2] == "--" and flag[2:].replace("-", "").isalnum()
            and not "--help".startswith(flag))


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute one subcommand, and return the process exit code."""
    argv_list = list(sys.argv[1:] if argv is None else argv)
    parsed = argv_list[:1]
    for flag, token in zip(argv_list, argv_list[1:]):
        if _negative_value(flag, token):
            parsed[-1] += "=" + token
        else:
            parsed.append(token)
    try:
        args = _build_parser().parse_args(parsed)
        _COMMANDS[args.command][2](args, _Output(args.format, args.precision, argv_list))
    except _UsageError as err:  # a handler raises it without a parser, so no usage line
        if err.parser is not None:
            sys.stderr.write(err.parser.format_usage())
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse exits itself only for --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except (ValueError, OSError) as exc:
        # ModelError subclasses ValueError: superlinear, infeasible, malformed rows.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
