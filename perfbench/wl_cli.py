"""cli-mix: one fresh-interpreter ``amdahl <subcommand>`` call per operation.

Each round calls all ten subcommands in both ``--format table`` and
``--format csv`` (one of three seeded argument sets each) plus two calls with
invalid argv, in seeded order. Inputs are the bundled fixtures and small
generated files. Start-up and import are about half of each call, so this is
the workload where lazy imports and parser set-up show.

Children run the same code as the ``amdahl`` console script
(``amdahl.cli:main``). An operation passes when its exit code is the expected
one, stderr holds no traceback, and stdout is byte-for-byte the stdout of an
in-process ``cli.run`` of the same argv, computed before the timed loop; a
valid call must also print something.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import sys

import wl_records
import wl_schedule
import wl_sweep
from amdahl import cli, fixture_path
from base import BARE_PYTHON_NOMINAL_MS, BaseWorkload, bare_python_ms, run_child

ENTRY = "import sys; from amdahl.cli import main; sys.exit(main())"
SUBCOMMANDS = ("alpha", "simulate", "timeline", "mean-efficiency", "project", "whatif",
               "required-alpha", "bounds", "saturation", "sweep")
FORMATS = ("table", "csv")
VARIANTS = 3
INVALID_PER_ROUND = 2
RECORD_FIXTURES = ("early_linpack_1992.csv", "top25_2016_hpl.csv", "top500_2017_hpcg.csv",
                   "top500_2017_hpl.csv")
HPL_2017_NAMES = ("Sunway TaihuLight", "Tianhe-2", "Piz Daint", "Titan", "Sequoia", "Cori",
                  "Oakforest-PACS", "K computer", "Mira", "Trinity")


def _fraction(rng: random.Random) -> float:
    return 10 ** rng.uniform(-8, -2)


def _efficiency(x: float, k: int) -> float:
    return 1.0 / (1.0 + (k - 1) * x)


def check_scalar(argv: list[str], stdout: str) -> str | None:
    """Check the headline number of alpha, required-alpha and saturation against its closed form.

    The byte comparison with an in-process run cannot see a wrong number that
    both paths print; this can, for the subcommands whose result is one
    formula of their arguments.
    """
    options: dict[str, str] = {}
    rest = iter(argv)
    for token in rest:
        if token.startswith("--"):
            options[token] = next(rest)
        else:
            sub = token
    if sub == "alpha":
        column = "one_minus_alpha"
        if "--efficiency" in options or "--speedup" in options:
            k = int(options["--cores"])
            e = float(options["--efficiency"]) if "--efficiency" in options else float(options["--speedup"]) / k
            expected = (1.0 / e - 1.0) / (k - 1)
        elif "--e1" in options:
            expected = wl_records.two_point(float(options["--e1"]), int(options["--k1"]),
                                            float(options["--e2"]), int(options["--k2"]))
        else:
            expected = wl_records.two_timings(float(options["--t1"]), int(options["--k1"]),
                                              float(options["--t2"]), int(options["--k2"]))
    elif sub == "required-alpha":
        column = "required_one_minus_alpha"
        expected = (1.0 / float(options["--efficiency"]) - 1.0) / (int(options["--cores"]) - 1)
    elif sub == "saturation":
        column = "saturation_rmax_gflops"
        expected = float(options["--per-proc-flops"].rstrip("T")) * 1e3 / float(options["--one-minus-alpha"])
    else:
        return None
    lines = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    try:
        if options.get("--format") == "csv":
            header, values = list(csv.reader(lines))[:2]
            got, rel = float(dict(zip(header, values))[column]), 1e-6
        else:
            got = float(next(line.split()[1] for line in lines if line.split()[0] == column))
            rel = 10.0 ** (1 - int(options.get("--precision", 4)))
    except (ValueError, KeyError, IndexError, StopIteration):
        return f"amdahl {' '.join(argv)}: no readable {column} in the output"
    if not math.isclose(got, expected, rel_tol=rel):
        return f"amdahl {' '.join(argv)}: {column} {got!r}, closed form gives {expected!r}"
    return None


class Workload(BaseWorkload):
    work_unit = "invocations"
    reference_nominal_ms = BARE_PYTHON_NOMINAL_MS

    def __init__(self, workdir, env: dict[str, str], tiny: bool) -> None:
        super().__init__(workdir, env, tiny)
        self.out = open(workdir / "stdout", "w+b")
        self.err = open(workdir / "stderr", "w+b")
        self.max_child_rss = 0.0
        self.tracebacks = 0

    def prepare(self, rng: random.Random, tracer) -> None:
        self.files = self.write_inputs(rng)
        self.valid = {
            (sub, fmt): [self.with_format(rng, getattr(self, "argv_" + sub.replace("-", "_"))(rng), fmt)
                         for _ in range(VARIANTS)]
            for sub in SUBCOMMANDS for fmt in FORMATS
        }
        self.invalid = [(self.with_format(rng, argv, rng.choice(FORMATS)), code)
                        for argv, code in self.invalid_argvs()]
        self.references: dict[tuple[str, ...], tuple[int, str, str | None]] = {}
        for (sub, _), argvs in self.valid.items():
            for argv in argvs:
                self.reference(tracer, argv, f"cli.run.{sub}")
        for argv, _ in self.invalid:
            self.reference(tracer, argv, "cli.run.rejected")

    def reference(self, tracer, argv: list[str], span: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracer.span(span):
            code = cli.run(argv)
        problem = check_scalar(argv, out.getvalue()) if code == 0 else None
        self.references[tuple(argv)] = (code, out.getvalue(), problem)

    def write_inputs(self, rng: random.Random) -> dict[str, list[str]]:
        files: dict[str, list[str]] = {"records": [], "workloads": [], "templates": []}
        for i, n in enumerate((20, 40, 80)):
            path = self.workdir / f"records{i}.csv"
            path.write_text(wl_records.generate(rng, n, False, i)["text"], encoding="utf-8")
            files["records"].append(str(path))
        path = self.workdir / "malformed.csv"
        path.write_text(wl_records.generate(rng, 30, True, 0)["text"], encoding="utf-8")
        files["malformed"] = [str(path)]
        for k in (2, 4, 6):
            path = self.workdir / f"workload{k}.json"
            path.write_text(wl_schedule.generate(rng, k)["text"], encoding="utf-8")
            files["workloads"].append(str(path))
        for k in (3, 5):
            template = wl_sweep.generate(rng, k, tiny=True)
            phases = [
                {"type": "sequential", "duration": p[1]} if p[0] == "seq"
                else {"type": "parallel", "chunks": list(p[1]), "dispatch": p[2], "collect": p[3]}
                for p in template["phases"]
            ]
            path = self.workdir / f"template{k}.json"
            path.write_text(json.dumps({"processors": k, "phases": phases}), encoding="utf-8")
            files["templates"].append(str(path))
        bundled = [fixture_path(n) for n in ("workload_classic.json", "workload_realistic.json")]
        files["workloads"] += bundled
        files["templates"] += bundled
        files["records"] += [fixture_path(n) for n in RECORD_FIXTURES]
        return files

    @staticmethod
    def with_format(rng: random.Random, argv: list[str], fmt: str) -> list[str]:
        options = ["--format", fmt] + (["--precision", str(rng.randint(2, 8))] if rng.random() < 0.3 else [])
        return options + argv if rng.random() < 0.5 else argv + options

    def argv_alpha(self, rng: random.Random) -> list[str]:
        k = rng.choice((16, 1024, 65536, 10649600))
        x = _fraction(rng)
        mode = rng.choice(("efficiency", "speedup", "two-point", "two-timings"))
        if mode == "efficiency":
            return ["alpha", "--efficiency", repr(_efficiency(x, k)), "--cores", str(k)]
        if mode == "speedup":
            return ["alpha", "--speedup", repr(1.0 / (x + (1.0 - x) / k)), "--cores", str(k)]
        if mode == "two-point":
            return ["alpha", "--e1", repr(_efficiency(x, k)), "--k1", str(k),
                    "--e2", repr(_efficiency(x, 4 * k)), "--k2", str(4 * k)]
        return ["alpha", "--t1", repr(1.0), "--k1", "1",
                "--t2", repr(x + (1.0 - x) / (4 * k)), "--k2", str(4 * k)]

    def argv_simulate(self, rng: random.Random) -> list[str]:
        return ["simulate", "--workload", rng.choice(self.files["workloads"])]

    def argv_timeline(self, rng: random.Random) -> list[str]:
        argv = ["timeline", "--input", rng.choice(self.files["records"]),
                "--select", rng.choice(("best-rmax", "best-alpha"))]
        return argv + (["--top", str(rng.randint(1, 5))] if rng.random() < 0.5 else [])

    def argv_mean_efficiency(self, rng: random.Random) -> list[str]:
        return ["mean-efficiency", "--input", rng.choice(self.files["records"]),
                "--top", str(rng.choice((1, 3, 10, 25)))]

    def argv_project(self, rng: random.Random) -> list[str]:
        grid = ["--rpeak-from", f"{rng.randint(50, 200)}P", "--rpeak-to", rng.choice(("1E", "10E")),
                "--points", str(rng.randint(5, 30))]
        if rng.random() < 0.5:
            return ["project", "--input", fixture_path("top500_2017_hpl.csv"),
                    "--name", rng.choice(HPL_2017_NAMES)] + grid
        return ["project", "--one-minus-alpha", repr(_fraction(rng)),
                "--cores", str(rng.randint(10**4, 10**7)), "--rpeak", f"{rng.uniform(1, 100):.2f}P"] + grid

    def argv_whatif(self, rng: random.Random) -> list[str]:
        k = rng.randint(1000, 10**6)
        return ["whatif", "--efficiency", f"{rng.uniform(0.5, 0.95):.3f}", "--cores", str(k),
                "--new-cores", str(k * rng.randint(2, 50)), "--rpeak", rng.choice(("1E", "500P")),
                "--alpha-scale", f"{rng.uniform(0.5, 3.0):.2f}"]

    def argv_required_alpha(self, rng: random.Random) -> list[str]:
        return ["required-alpha", "--efficiency", f"{rng.uniform(0.3, 0.95):.3f}",
                "--cores", str(rng.randint(4, 10**7))]

    def argv_bounds(self, rng: random.Random) -> list[str]:
        argv = ["bounds", "--clock-hz", f"{rng.uniform(1, 4):.2f}e9",
                "--runtime-s", str(rng.randint(60, 86400)),
                "--hw-cycles", f"{rng.uniform(1e3, 1e6):.0f}", "--os-cycles", f"{rng.uniform(1e4, 1e7):.0f}",
                "--sw-cycles", f"{rng.uniform(1e5, 1e8):.0f}", "--size-m", f"{rng.uniform(10, 200):.1f}"]
        return argv + (["--per-proc-flops", f"{rng.uniform(1, 50):.1f}T"] if rng.random() < 0.5 else [])

    def argv_saturation(self, rng: random.Random) -> list[str]:
        return ["saturation", "--per-proc-flops", f"{rng.uniform(1, 50):.1f}T",
                "--one-minus-alpha", repr(10 ** rng.uniform(-9, -3))]

    def argv_sweep(self, rng: random.Random) -> list[str]:
        argv = ["sweep", "--workload", rng.choice(self.files["templates"]),
                "--overhead", ",".join(f"{rng.uniform(0, 5):.3f}" for _ in range(rng.randint(2, 6))),
                "--sequential", ",".join(f"{rng.uniform(0, 3):.3f}" for _ in range(rng.randint(2, 6)))]
        return argv + (["--processors", str(rng.randint(2, 16))] if rng.random() < 0.3 else [])

    def invalid_argvs(self) -> list[tuple[list[str], int]]:
        """Argv the CLI must refuse: 1 for usage errors, 2 for data and model errors."""
        return [
            (["alpha", "--efficiency", "1.5", "--cores", "8"], 2),
            (["alpha", "--cores", "8"], 1),
            (["frobnicate"], 1),
            (["simulate", "--workload", str(self.workdir / "missing.json")], 2),
            (["timeline", "--input", self.files["malformed"][0], "--select", "best-rmax"], 2),
            (["required-alpha", "--efficiency", "0.01", "--cores", "4"], 2),
            (["project", "--one-minus-alpha", "1e-6", "--cores", "100", "--rpeak", "1P",
              "--rpeak-from", "1P", "--rpeak-to", "1E", "--points", "1"], 1),
            (["sweep", "--workload", self.files["workloads"][0], "--overhead", "0",
              "--sequential", "0"], 2),
        ]

    def round(self, rng: random.Random) -> list[dict]:
        items = [{"argv": rng.choice(argvs), "expected_code": 0} for argvs in self.valid.values()]
        items += [{"argv": argv, "expected_code": code}
                  for argv, code in rng.sample(self.invalid, INVALID_PER_ROUND)]
        rng.shuffle(items)
        return items

    def units(self, item: dict) -> int:
        return 1

    def run(self, tr, item: dict) -> int:
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        _, code, rss = run_child([sys.executable, "-c", ENTRY, *item["argv"]], self.env, self.out, self.err)
        self.max_child_rss = max(self.max_child_rss, rss)
        if code != 0:
            tr.count("cli.rejects")
        return code

    def check(self, item: dict, code: int) -> str | None:
        self.out.seek(0)
        self.err.seek(0)
        stdout, stderr = self.out.read(), self.err.read()
        argv = " ".join(item["argv"])
        if b"Traceback" in stderr:
            self.tracebacks += 1
            return f"traceback from amdahl {argv}"
        ref_code, ref_out, ref_problem = self.references[tuple(item["argv"])]
        if code != item["expected_code"] or ref_code != item["expected_code"]:
            return f"amdahl {argv}: exit {code} (in-process {ref_code}), expected {item['expected_code']}"
        if item["expected_code"] == 0 and not stdout:
            return f"amdahl {argv}: empty stdout"
        if stdout != ref_out.encode("utf-8"):
            return f"amdahl {argv}: stdout differs from the in-process cli.run"
        return ref_problem

    def host_reference(self, tracer) -> float:
        # Every call is a fresh interpreter, so a bare one is the host-speed
        # reference; the traced run also reports it as startup.bare_python.
        with tracer.span("startup.bare_python"):
            return bare_python_ms(self.env) / 1e3

    def peak_rss_mb(self) -> float:
        return self.max_child_rss

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def layer_metrics(self, tracer) -> dict[str, float]:
        metrics = {
            f"cli.run.{sub}_ms": statistics.median(tracer.durations(f"cli.run.{sub}")) * 1e3
            for sub in SUBCOMMANDS
        }
        metrics["cli.rejects"] = tracer.counts["cli.rejects"]
        metrics["cli.tracebacks"] = self.tracebacks
        return metrics
