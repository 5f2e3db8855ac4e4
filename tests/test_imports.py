"""Tests for the package's import structure: lazy exports and per-subcommand imports.

Start-up is paid on every ``amdahl`` call, so ``import amdahl`` loads no
submodule and each subcommand imports only the layers it calls. The checks
that depend on what is already imported run in a fresh interpreter started
with ``-S``, so nothing the site hooks import is charged to the package.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types

import pytest

import amdahl
from amdahl import cli
from amdahl.dataset import ChampionCriterion, fixture_path

SUBMODULES = ("cli", "core", "dataset", "errors", "projection", "workload")


def fresh_modules(script: str, *argv: str) -> list[str]:
    """Run script in a fresh interpreter; return the words it prints to stdout."""
    # The package is stdlib-only, so its own parent directory is enough.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(amdahl.__file__))}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


RUN_CLI = """
import io, sys
sys.stdout = io.StringIO()
from amdahl.cli import run
code = run(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, *sys.modules)
"""


class TestPackageExports:
    def test_import_loads_no_submodule(self):
        loaded = fresh_modules("import sys, amdahl; print(*sys.modules)")
        assert [m for m in loaded if m.startswith("amdahl.")] == []

    def test_star_import_binds_exactly_all(self):
        namespace: dict[str, object] = {}
        exec("from amdahl import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(amdahl.__all__)
        assert len(set(amdahl.__all__)) == len(amdahl.__all__)

    @pytest.mark.parametrize("name", [n for n in amdahl.__all__ if n != "__version__"])
    def test_name_is_its_home_module_object(self, name):
        value = getattr(amdahl, name)
        assert value.__module__.startswith("amdahl.")
        assert getattr(importlib.import_module(value.__module__), name) is value
        assert vars(amdahl)[name] is value  # cached: the next lookup is a plain attribute

    def test_dir_lists_all_and_submodules(self):
        listed = dir(amdahl)
        assert set(amdahl.__all__) <= set(listed)
        assert set(SUBMODULES) <= set(listed)
        assert listed == sorted(listed)

    def test_submodules_resolve_without_explicit_import(self):
        script = (
            "import sys, amdahl\n"
            f"for name in {SUBMODULES!r}:\n"
            "    print(getattr(amdahl, name) is sys.modules['amdahl.' + name])\n"
        )
        assert fresh_modules(script) == ["True"] * len(SUBMODULES)

    @pytest.mark.parametrize("module", sorted(amdahl._HOMES))
    def test_homes_list_exactly_each_module_public_names(self, module):
        # The public names are the classes and functions a module defines without
        # a leading underscore; _HOMES lists exactly those, and __all__ reads it.
        home = importlib.import_module(f"amdahl.{module}")
        public = {
            name for name, value in vars(home).items()
            if isinstance(value, (type, types.FunctionType))
            and value.__module__ == home.__name__ and not name.startswith("_")
        }
        assert set(amdahl._HOMES[module]) == public
        assert home.__all__ is amdahl._HOMES[module]
        namespace: dict[str, object] = {}
        exec(f"from amdahl.{module} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == public

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError) as excinfo:
            amdahl.no_such_name  # noqa: B018
        assert str(excinfo.value) == "module 'amdahl' has no attribute 'no_such_name'"
        assert not hasattr(amdahl, "GroupBy")

    def test_version(self):
        assert amdahl.__version__ == "0.1.0"
        assert "__version__" in amdahl.__all__


HPL = fixture_path("top500_2017_hpl.csv")
CLASSIC = fixture_path("workload_classic.json")
ALPHA = ("alpha", "--efficiency", "0.5", "--cores", "8")
# One call of each subcommand, and the top-level help page.
EVERY_CALL = [
    ALPHA,
    ("simulate", "--workload", CLASSIC),
    ("timeline", "--input", HPL, "--select", "best-alpha"),
    ("mean-efficiency", "--input", HPL, "--top", "5"),
    ("project", "--input", HPL, "--name", "Titan", "--rpeak-from", "1P",
     "--rpeak-to", "1E", "--points", "3"),
    ("whatif", "--efficiency", "0.7", "--cores", "10", "--new-cores", "20",
     "--rpeak", "1P"),
    ("required-alpha", "--efficiency", "0.5", "--cores", "8"),
    ("bounds", "--clock-hz", "1e9", "--runtime-s", "10", "--hw-cycles", "100",
     "--per-proc-flops", "1T"),
    ("saturation", "--per-proc-flops", "1T", "--one-minus-alpha", "1e-6"),
    ("sweep", "--workload", CLASSIC, "--overhead", "0,1", "--sequential", "0,1"),
    ("--help",),
]


class TestSubcommandImports:
    @pytest.mark.parametrize(
        ("argv", "loads", "skips"),
        [
            (
                ("alpha", "--efficiency", "0.5", "--cores", "8"),
                {"amdahl.core"},
                {"amdahl.dataset", "amdahl.workload", "amdahl.projection", "json", "statistics"},
            ),
            (
                ("simulate", "--workload", CLASSIC),
                {"amdahl.workload"},
                {"amdahl.dataset", "amdahl.projection"},
            ),
            (
                ("timeline", "--input", HPL, "--select", "best-alpha"),
                {"amdahl.dataset"},
                {"amdahl.workload", "amdahl.projection"},
            ),
            (
                ("project", "--one-minus-alpha", "1e-6", "--cores", "10", "--rpeak", "1",
                 "--rpeak-from", "1", "--rpeak-to", "10", "--points", "2"),
                {"amdahl.projection"},
                {"amdahl.dataset", "amdahl.workload"},
            ),
            (
                ("--help",),
                set(),
                {"amdahl.core", "amdahl.dataset", "amdahl.projection", "amdahl.workload"},
            ),
        ],
        ids=["alpha", "simulate", "timeline", "project-explicit", "help"],
    )
    def test_subcommand_loads_only_its_layers(self, argv, loads, skips):
        code, *loaded = fresh_modules(RUN_CLI, *argv)
        assert code == "0"
        assert loads <= set(loaded)
        assert not skips & set(loaded)

    @pytest.mark.parametrize("argv", EVERY_CALL, ids=lambda argv: argv[0])
    def test_no_call_loads_dataclasses_or_inspect(self, argv):
        # Value types are named tuples, so no call pays to import dataclasses and inspect.
        code, *loaded = fresh_modules(RUN_CLI, *argv)
        assert code == "0"
        assert not {"dataclasses", "inspect"} & set(loaded)

    @pytest.mark.parametrize("argv", EVERY_CALL, ids=lambda argv: argv[0])
    def test_no_call_loads_importlib_resources(self, argv):
        # Only fixture_path reads the package data through importlib.resources, which
        # loads pathlib and tempfile with it; no call uses fixture_path.
        code, *loaded = fresh_modules(RUN_CLI, *argv)
        assert code == "0"
        assert not {"importlib.resources", "pathlib", "tempfile"} & set(loaded)

    @pytest.mark.parametrize(
        "argv",
        [ALPHA, ("--format", "csv", *ALPHA), ("alpha", "--help"), ("--help",)],
        ids=["alpha", "alpha-csv", "alpha-help", "help"],
    )
    def test_estimates_and_help_load_no_typing(self, argv):
        # typing comes only with the layers that define NamedTuple types; the names
        # the CLI and the core layer annotate with come from collections.abc.
        code, *loaded = fresh_modules(RUN_CLI, *argv)
        assert code == "0"
        assert "amdahl.cli" in loaded
        assert "typing" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ("timeline", "--input", HPL, "--select", "best-alpha"),
            ("mean-efficiency", "--input", HPL, "--top", "5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_reading_records_loads_no_statistics(self, argv):
        # The mean, the trend fit and the standard deviation are computed with math
        # and exact ints, so no call pays to import statistics, fractions and decimal.
        code, *loaded = fresh_modules(RUN_CLI, *argv)
        assert code == "0"
        assert "amdahl.dataset" in loaded
        assert not {"statistics", "fractions", "decimal"} & set(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--workload", CLASSIC),
            ("sweep", "--workload", CLASSIC, "--overhead", "0,1", "--sequential", "0,1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_simulator_calls_load_only_the_workload_layer(self, argv):
        # Beyond what the core layer loads, a simulator call adds the workload module,
        # the json reader, heapq and, for its NamedTuple types, typing, and nothing else:
        # start-up time is measured on every call. itertools and operator are loaded at
        # start-up already.
        code, *core = fresh_modules(RUN_CLI, *ALPHA)
        assert code == "0"
        assert {"itertools", "operator"} <= set(fresh_modules(RUN_CLI, "--help")[1:])
        words = fresh_modules(RUN_CLI + "before = set(sys.modules)\nimport typing\n"
                              "print('typing:', *set(sys.modules) - before)\n", *ALPHA)
        typing = set(words[words.index("typing:") + 1:])
        assert "typing" in typing
        code, *loaded = fresh_modules(RUN_CLI, *argv)
        assert code == "0"
        assert set(loaded) - set(core) == typing | {
            "amdahl.workload", "heapq", "_heapq",
            "json", "json.decoder", "json.encoder", "json.scanner", "_json",
        }

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_only_csv_output_loads_shlex_and_writing_loads_no_csv(self, fmt):
        # csv is loaded only to read records; output is quoted by core._csv_field.
        code, *loaded = fresh_modules(RUN_CLI, "--format", fmt, "alpha", "--efficiency", "0.5",
                                      "--cores", "8")
        assert code == "0"
        assert {"csv", "shlex"} & set(loaded) == ({"shlex"} if fmt == "csv" else set())

    def test_select_choices_are_the_champion_criteria(self):
        assert cli._CHAMPION_CRITERIA == tuple(c.value for c in ChampionCriterion)
