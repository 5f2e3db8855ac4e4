"""Golden CLI corpus: the exact output of a fixed set of ``amdahl`` calls, in one committed file.

Each argv runs in this process through ``amdahl.cli.run``, from the
repository root with relative paths (csv output echoes its argv, and some
errors quote the input path) and with ``COLUMNS=80`` (help pages wrap to the
terminal width). Its exit code, stdout and stderr are stored as full text in
``cli_corpus.expected`` next to this module, so a declared output change
shows as a readable diff. A few library calls follow, for messages that no
argv reaches. The inputs beyond the bundled data are written by this module
into ``build/cli-corpus/``.

Check the tree against the expected file, or rewrite it::

    python tests/cli_corpus.py
    python tests/cli_corpus.py --update

The module imports only the standard library and the package, so it runs on
any supported Python without the test dependencies.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_suffix(".expected")

DATA = "src/amdahl/data/"
HPL, HPCG = DATA + "top500_2017_hpl.csv", DATA + "top500_2017_hpcg.csv"
EARLY, TOP25 = DATA + "early_linpack_1992.csv", DATA + "top25_2016_hpl.csv"
CLASSIC, REALISTIC = DATA + "workload_classic.json", DATA + "workload_realistic.json"
INPUTS = "build/cli-corpus/"


def _workload(processors: object, *phases: dict) -> str:
    return json.dumps({"processors": processors, "phases": list(phases)})


def _par(chunks: object, **overheads: object) -> dict:
    return {"type": "parallel", "chunks": chunks, **overheads}


def _seq(duration: object) -> dict:
    return {"type": "sequential", "duration": duration}


_HEADER = "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"

# File name -> text, written under INPUTS before the calls run.
FILES = {
    # Ten 0.1 chunks: sum() adds them with compensation from Python 3.12 on.
    "tenths.json": _workload(3, _seq(0.1), _par([0.1] * 10), _seq(0.2)),
    "million.json": _workload(10**6, _seq(1.0), _par([1.0, 2.0, 3.0], dispatch=0.5)),
    "sunway.json": _workload(10649600, _seq(2.0), _par([1.0] * 4, collect=0.25)),
    "int_chunks.json": _workload(2, _seq(1), _par([1, 2, 3], dispatch=1, collect=0)),
    "seq_only.json": _workload(4, _seq(1.0), _seq(2.0)),
    "two_parallel.json": _workload(3, _par([1.0, 2.0]), _par([3.0])),
    "overflow.json": _workload(2, _par([1e308, 1e308])),
    "bad_chunk.json": _workload(3, _seq(1.0), _par([1.0, -2.0, 3.0])),
    "nan_chunk.json": '{"processors": 3, "phases": [{"type": "parallel", "chunks": [1.0, NaN]}]}',
    "huge_chunk.json": '{"processors": 3, "phases": [{"type": "parallel", "chunks": [1.0, 1'
                       + "0" * 400 + "]}]}",
    "text_chunk.json": _workload(3, _par([1.0, "2"])),
    "no_chunks.json": _workload(3, _par([])),
    "bad_dispatch.json": _workload(3, _par([1.0], dispatch=-1.0)),
    "bad_duration.json": _workload(3, _seq(0), _par([1.0])),
    "bad_type.json": _workload(3, {"type": "serial", "duration": 1.0}),
    "bad_processors.json": _workload(1.5, _par([1.0])),
    "no_processors.json": _workload(0, _par([1.0])),
    "not_json.json": '{"processors": 3,',
    "not_object.json": "[1, 2]",
    "records.csv": _HEADER + "".join(
        f"{2000 + i // 3},{i % 3 + 1},M{i},{('MPP', 'Cluster', 'Other')[i % 3]},{2**(i % 7 + 4)},"
        f"{(0.91 - 0.013 * i) * 10 * (i + 1)!r},{10.0 * (i + 1)!r},HPL\n"
        for i in range(18)
    ),
    "quoted.csv": _HEADER + '2016,1,"Alpha, Beta",MPP,64,50,64,HPL\n'
                  '2016,2,"Say ""hi""",Cluster,32,20,32,HPCG\n'
                  "# page break\n2017,1,Gamma,Other,128,100,128,HPL\n",
    "twins.csv": _HEADER + "2017,1,Twin,MPP,64,50,64,HPL\n2017,1,Twin,MPP,64,30,64,HPCG\n",
    "rmax_above.csv": _HEADER + "2017,1,X,MPP,64,65,64,HPL\n",
    "bad_cores.csv": _HEADER + "2017,1,X,MPP,sixty,50,64,HPL\n",
    "short_row.csv": _HEADER + "2017,1,X,MPP,64\n",
    "bad_arch.csv": _HEADER + "2017,1,X,Vector,64,50,64,HPL\n",
    "no_header.csv": "2017,1,X,MPP,64,50,64,HPL\n",
    "empty.csv": "",
}

_PROJECT = "--rpeak-from 1P --rpeak-to 1E --points 4"
_EXPLICIT = "--one-minus-alpha 1e-6 --cores 1000 --rpeak 1T"
_WHATIF = "whatif --efficiency 0.7 --cores 10 --new-cores 20 --rpeak 1P"
_BOUNDS = "bounds --clock-hz 1e9 --runtime-s 10"

# Each call runs twice: as written, in table format, and with --format csv after it.
CALLS = [
    "alpha --efficiency 0.5 --cores 8",
    "alpha --efficiency 1 --cores 8",
    "alpha --efficiency 0.125 --cores 8",
    "alpha --speedup 2 --cores 3",
    "alpha --speedup 1 --cores 10649600",
    "alpha --speedup 9.3e6 --cores 10649600",
    "alpha --speedup 999999.5 --cores 1000000",
    "alpha --e1 0.9 --k1 10 --e2 0.8 --k2 20",
    "alpha --t1 10 --k1 1 --t2 6 --k2 2",
    "alpha --t1 100 --k1 1 --t2 2 --k2 64",
    f"simulate --workload {CLASSIC}",
    f"simulate --workload {REALISTIC}",
    f"simulate --workload {INPUTS}tenths.json",
    f"simulate --workload {INPUTS}million.json",
    f"simulate --workload {INPUTS}sunway.json",
    f"simulate --workload {INPUTS}int_chunks.json",
    f"simulate --workload {INPUTS}seq_only.json",
    f"timeline --input {HPL} --select best-rmax",
    f"timeline --input {HPL} --select best-alpha --top 3",
    f"timeline --input {HPCG} --select best-alpha",
    f"timeline --input {EARLY} --select best-alpha",
    f"timeline --input {INPUTS}records.csv --select best-rmax",
    f"timeline --input {INPUTS}records.csv --select best-alpha --top 2",
    f"timeline --input {INPUTS}quoted.csv --select best-rmax",
    f"mean-efficiency --input {TOP25} --top 25",
    f"mean-efficiency --input {HPL} --top 5",
    f"mean-efficiency --input {INPUTS}records.csv --top 2",
    f"project --input {HPL} --name Titan {_PROJECT}",
    f"project --input {HPL} --name 'Sunway TaihuLight' --rpeak-from 125P --rpeak-to 1E "
    "--points 3",
    f"project {_EXPLICIT} {_PROJECT}",
    "project --one-minus-alpha 0 --cores 1 --rpeak 1 --rpeak-from 1 --rpeak-to 1e300 "
    "--points 3",
    "project --one-minus-alpha 1e-9 --cores 10649600 --rpeak 125P --rpeak-from 1E "
    "--rpeak-to 1e20 --points 2",
    _WHATIF,
    f"{_WHATIF} --alpha-scale 2",
    "whatif --efficiency 0.74 --cores 10649600 --new-cores 100000000 --rpeak 1E",
    "required-alpha --efficiency 0.5 --cores 8",
    "required-alpha --efficiency 0.9 --cores 1000000",
    "required-alpha --efficiency 0.125 --cores 8",
    _BOUNDS + " --hw-cycles 100",
    _BOUNDS + " --hw-cycles 100 --os-cycles 50 --sw-cycles 25 --size-m 30 --per-proc-flops 1T",
    "saturation --per-proc-flops 1T --one-minus-alpha 1e-6",
    "saturation --per-proc-flops 11.7 --one-minus-alpha 3.5e-8",
    f"sweep --workload {CLASSIC} --overhead 0,1 --sequential 0,1",
    f"sweep --workload {REALISTIC} --processors 6 --overhead 0,0.5,2 --sequential 0,1,4",
    f"sweep --workload {INPUTS}tenths.json --overhead 0 --sequential 1",
    f"sweep --workload {INPUTS}tenths.json --processors 1000000 --overhead 0,1 --sequential 0,1",
    f"sweep --workload {INPUTS}sunway.json --overhead 0,0.5 --sequential 1",
    f"sweep --workload {CLASSIC} --processors 10649600 --overhead 0 --sequential 0,1",
    f"sweep --workload {CLASSIC} --overhead 0,1e308 --sequential 1",
]

# Output flags, usage errors (exit 1), data errors (exit 2) and help pages, run as written.
ARGV = [
    "--precision 6 alpha --efficiency 0.5 --cores 8",
    "alpha --precision 2 --efficiency 0.5 --cores 8",
    "--format csv alpha --format table --efficiency 0.5 --cores 8",
    "--format csv --precision 2 sweep --workload " + CLASSIC + " --overhead 0 --sequential 0",
    "",
    "frobnicate",
    "--format xml alpha --efficiency 0.5 --cores 8",
    "--precision 0 alpha --efficiency 0.5 --cores 8",
    "--precision 18 alpha --efficiency 0.5 --cores 8",
    "alpha",
    "alpha --efficiency 0.5",
    "alpha --efficiency 0.5 --speedup 2 --cores 8",
    "alpha --efficiency 0.5 --cores 8 --k1 3",
    "alpha --e1 0.9 --k1 10 --e2 0.8",
    "alpha --efficiency x --cores 8",
    "alpha --efficiency 0.5 --cores 0",
    "alpha --efficiency 0.5 --cores 1.5",
    "alpha --speedup -1e3 --cores 4",
    "alpha --speedup=-2 --cores 4",
    "alpha --efficiency 1.5 --cores 8",
    "alpha --efficiency 0.1 --cores 8",
    "alpha --efficiency nan --cores 8",
    "alpha --speedup 9 --cores 8",
    "alpha --speedup 0.5 --cores 8",
    "alpha --speedup 2 --cores 1",
    "alpha --speedup inf --cores 8",
    "alpha --e1 0.8 --k1 10 --e2 0.9 --k2 20",
    "alpha --e1 0.9 --k1 10 --e2 0.8 --k2 10",
    "alpha --t1 10 --k1 1 --t2 20 --k2 2",
    "alpha --t1 1e308 --k1 2 --t2 1e-308 --k2 1",
    "simulate",
    "simulate --workload missing.json",
    f"simulate --workload {INPUTS}two_parallel.json",
    f"simulate --workload {INPUTS}overflow.json",
    f"simulate --workload {INPUTS}bad_chunk.json",
    f"simulate --workload {INPUTS}nan_chunk.json",
    f"simulate --workload {INPUTS}huge_chunk.json",
    f"simulate --workload {INPUTS}text_chunk.json",
    f"simulate --workload {INPUTS}no_chunks.json",
    f"simulate --workload {INPUTS}bad_dispatch.json",
    f"simulate --workload {INPUTS}bad_duration.json",
    f"simulate --workload {INPUTS}bad_type.json",
    f"simulate --workload {INPUTS}bad_processors.json",
    f"simulate --workload {INPUTS}no_processors.json",
    f"simulate --workload {INPUTS}not_json.json",
    f"simulate --workload {INPUTS}not_object.json",
    f"timeline --input {HPL}",
    f"timeline --input {HPL} --select best-speed",
    f"timeline --input {HPL} --select best-rmax --top 0",
    "timeline --input missing.csv --select best-rmax",
    f"timeline --input {INPUTS}rmax_above.csv --select best-rmax",
    f"timeline --input {INPUTS}bad_cores.csv --select best-rmax",
    f"timeline --input {INPUTS}short_row.csv --select best-rmax",
    f"timeline --input {INPUTS}bad_arch.csv --select best-rmax",
    f"timeline --input {INPUTS}no_header.csv --select best-rmax",
    f"timeline --input {INPUTS}empty.csv --select best-rmax",
    f"timeline --input {INPUTS}twins.csv --select best-rmax",
    f"mean-efficiency --input {HPL}",
    f"mean-efficiency --input {HPL} --top -1",
    f"mean-efficiency --input {INPUTS}rmax_above.csv --top 2",
    f"project {_PROJECT}",
    f"project --input {HPL} {_PROJECT}",
    f"project --input {HPL} --name Titan --cores 5 {_PROJECT}",
    f"project --one-minus-alpha 1e-6 --cores 1000 {_PROJECT}",
    f"project --input {HPL} --name Titan --rpeak-from 1P --rpeak-to 1E --points 1",
    f"project {_EXPLICIT} --rpeak-from 1P --rpeak-to 1E --points 1",
    f"project {_EXPLICIT} --rpeak-from fast --rpeak-to 1E --points 3",
    f"project --input {HPL} --name Nobody {_PROJECT}",
    f"project --input {INPUTS}twins.csv --name Twin {_PROJECT}",
    f"project {_EXPLICIT} --rpeak-from 0 --rpeak-to 1E --points 3",
    f"project {_EXPLICIT} --rpeak-from 1P --rpeak-to 1E --points 1000001",
    f"project --one-minus-alpha 2 --cores 1000 --rpeak 1T {_PROJECT}",
    "project --one-minus-alpha 1e-6 --cores 1 --rpeak 5e-324 --rpeak-from 1 --rpeak-to 1e300 "
    "--points 2",
    "whatif --efficiency 0.7 --cores 10 --new-cores 20",
    f"{_WHATIF} --alpha-scale -1",
    f"{_WHATIF} --alpha-scale nan",
    f"{_WHATIF} --alpha-scale 1e300",
    "whatif --efficiency 0.01 --cores 10 --new-cores 20 --rpeak 1P",
    "required-alpha --efficiency 0.1 --cores 8",
    "required-alpha --efficiency 2 --cores 8",
    "required-alpha --efficiency 0.5 --cores 1",
    "bounds --clock-hz 1e9",
    _BOUNDS,
    _BOUNDS + " --hw-cycles nan",
    _BOUNDS + " --hw-cycles -5",
    _BOUNDS + " --hw-cycles 1e11",
    "bounds --clock-hz 0 --runtime-s 10 --hw-cycles 1",
    "bounds --clock-hz 1e308 --runtime-s 1e308 --hw-cycles 1",
    "saturation --per-proc-flops 1T --one-minus-alpha 0",
    "saturation --per-proc-flops 1T --one-minus-alpha 1.5",
    "saturation --per-proc-flops -1T --one-minus-alpha 0.5",
    "saturation --per-proc-flops 1e308 --one-minus-alpha 1e-300",
    f"sweep --workload {CLASSIC} --overhead 0",
    f"sweep --workload {CLASSIC} --overhead , --sequential 0",
    f"sweep --workload {CLASSIC} --overhead 0,x --sequential 0",
    f"sweep --workload {CLASSIC} --overhead -1 --sequential 0",
    f"sweep --workload {CLASSIC} --overhead=-1 --sequential 0",
    f"sweep --workload {CLASSIC} --overhead 0,nan --sequential 0",
    f"sweep --workload {CLASSIC} --overhead 0 --sequential 1,2,inf",
    f"sweep --workload {CLASSIC} --overhead nan --sequential=-0.5",
    f"sweep --workload {CLASSIC} --processors 1 --overhead 0 --sequential 0",
    f"sweep --workload {INPUTS}two_parallel.json --overhead 0 --sequential 0",
    f"sweep --workload {INPUTS}seq_only.json --overhead 0 --sequential 0",
    f"sweep --workload {CLASSIC} --overhead 0 --sequential 1e308",
    f"sweep --workload {CLASSIC} --overhead 1e308,1e308 --sequential 0,1",
    "--help",
    "-h",
    *(f"{command} --help" for command in (
        "alpha", "simulate", "timeline", "mean-efficiency", "project", "whatif",
        "required-alpha", "bounds", "saturation", "sweep")),
]

# Library calls whose messages no argv reaches, each shown by its repr or its error.
LIBRARY = [
    "project_curve(10, 1.0, 1e-6, [1.0, 2.0])",
    "project_curve(10, 1.0, 1e-6, [1.0, 0.0, -1.0])",
    "project_curve(10, 1.0, 1e-6, (x for x in [2.0, nan]))",
    "project_curve(10, 1.0, 1e-6, [1e308, 1e308, 'x'])",
    "project_curve(10, 1.0, 1e-6, [1, 2, 10**400])",
    "sweep_alpha_eff(3, template, [0.0, -1.0], [0.0])",
    "sweep_alpha_eff(3, template, [0, 1], [1e308, inf])",
    "sweep_alpha_eff(3, template, [0.0], ['1'])",
    "WorkloadSpec(2, [ParallelPhase((1.0, 0.0))])",
    "WorkloadSpec(2, [ParallelPhase([1e308, 1e308, -0.0])])",
    "WorkloadSpec(2, [ParallelPhase(5)])",
    "WorkloadSpec(2, [SequentialPhase(1.0), ParallelPhase(None)])",
    "geometric_grid(1.0, 2.0, 10**6 + 1)",
    "geometric_grid(1.0, 2.0, 10**400)",
]


def write_inputs() -> None:
    """Write FILES under INPUTS, below the repository root."""
    directory = ROOT / INPUTS
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def _block(title: str, code: object, out: str, err: str) -> str:
    lines = [f"$ {title}", f"exit {code}"]
    for label, text in (("stdout", out), ("stderr", err)):
        if text:
            lines.append(f"{label}:" if text.endswith("\n") else f"{label} (no newline at end):")
            lines += ["| " + line for line in text.removesuffix("\n").split("\n")]
    return "\n".join(lines) + "\n"


def _run(argv: list[str]) -> str:
    from amdahl.cli import run  # imported here, after __main__ puts this tree's src/ first

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return _block(shlex.join(["amdahl", *argv]), code, out.getvalue(), err.getvalue())


def _call(expression: str) -> str:
    import amdahl

    namespace = {name: getattr(amdahl, name) for name in amdahl.__all__}
    namespace.update(nan=float("nan"), inf=float("inf"))
    with open(CLASSIC, encoding="utf-8") as fh:
        namespace["template"] = amdahl.load_workload(fh)
    try:
        shown = repr(eval(expression, namespace))
    except ValueError as exc:  # every domain error of the package is one
        shown = f"{type(exc).__name__}: {exc}"
    return f">>> {expression}\n{shown}\n"


def argvs() -> list[list[str]]:
    """Every argv of the corpus, in order: each call in both formats, then ARGV."""
    calls = [shlex.split(call) for call in CALLS]
    return [*(v for argv in calls for v in (argv, [*argv, "--format", "csv"])),
            *map(shlex.split, ARGV)]


def render() -> str:
    """The corpus text of this tree: run every argv and library call from the repository root."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        write_inputs()
        return "\n".join([*map(_run, argvs()), *map(_call, LIBRARY)])
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def diff(expected: str, actual: str) -> str:
    return "".join(difflib.unified_diff(expected.splitlines(True), actual.splitlines(True),
                                        str(EXPECTED.name), "this tree"))


def main(args: list[str]) -> int:
    if args not in ([], ["--update"]):
        print("usage: python tests/cli_corpus.py [--update]", file=sys.stderr)
        return 1
    actual = render()
    if args:
        EXPECTED.write_text(actual, encoding="utf-8")
        print(f"wrote {len(argvs())} argv and {len(LIBRARY)} library calls to {EXPECTED}")
        return 0
    changes = diff(EXPECTED.read_text(encoding="utf-8"), actual)
    sys.stdout.write(changes or f"{len(argvs())} argv and {len(LIBRARY)} library calls match\n")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main(sys.argv[1:]))
