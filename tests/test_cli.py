"""End-to-end tests of the command-line interface.

Everything goes through run() with captured stdio, the same entry point the
console script uses, so exit codes and output bytes are tested exactly as a
shell user would see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import amdahl
from amdahl.cli import main, run
from amdahl.core import alpha_eff_from_efficiency
from amdahl.dataset import (
    _HEADER,
    Architecture,
    Benchmark,
    MachineRecord,
    RegressionFit,
    derive,
    fixture_path,
    fit_semilog,
    parse_records,
    read_records,
    select_champions,
    write_records,
)
from amdahl.workload import load_workload, simulate

HPL = fixture_path("top500_2017_hpl.csv")
HPCG = fixture_path("top500_2017_hpcg.csv")
EARLY = fixture_path("early_linpack_1992.csv")
CLASSIC = fixture_path("workload_classic.json")
REALISTIC = fixture_path("workload_realistic.json")
# A core count of 401 digits: a valid integer argument beyond the float range.
BEYOND_FLOAT = "1" + "0" * 400


def cli(capsys, *argv: str):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out: str) -> list[list[str]]:
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def scalar_map(out: str) -> dict[str, str]:
    header, values = csv_rows(out)
    return dict(zip(header, values))


class TestAlpha:
    def test_efficiency_mode_table(self, capsys):
        code, out, err = cli(capsys, "alpha", "--efficiency", "0.69", "--cores", "16")
        assert code == 0 and err == ""
        assert "2.995e-02" in out
        assert "method" in out and "efficiency" in out
        assert "max_speedup" in out

    def test_speedup_mode_matches_library(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "alpha", "--speedup", "2", "--cores", "3"
        )
        assert code == 0
        values = scalar_map(out)
        assert values["method"] == "speedup"
        assert float(values["one_minus_alpha"]) == 0.25
        assert float(values["alpha"]) == 0.75
        assert float(values["max_speedup"]) == 4.0

    def test_two_point_mode(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "alpha",
            "--e1", "0.8", "--k1", "2", "--e2", "0.6666666666666666", "--k2", "3",
        )
        assert code == 0
        values = scalar_map(out)
        assert values["method"] == "two-point-slope"
        assert values["cores"] == ""
        assert float(values["one_minus_alpha"]) == pytest.approx(0.25, rel=1e-12)

    def test_two_timings_mode(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "alpha",
            "--t1", "10", "--k1", "1", "--t2", "4", "--k2", "4",
        )
        assert code == 0
        assert float(scalar_map(out)["one_minus_alpha"]) == 0.2

    def test_speedup_mode_above_2_to_the_53(self, capsys):
        # 2**60 on 2**60 + 3 cores: the count read as a float would leave 1 - alpha 0.
        code, out, _ = cli(
            capsys, "--format", "csv", "alpha",
            "--speedup", "1152921504606846976", "--cores", "1152921504606846979",
        )
        assert code == 0
        values = scalar_map(out)
        exact = Fraction(3, (2**60 + 2) * 2**60)
        assert float(values["one_minus_alpha"]) == pytest.approx(float(exact), rel=1e-12)
        assert float(values["max_speedup"]) == pytest.approx(float(1 / exact), rel=1e-12)

    def test_fully_parallel_reports_unbounded_ceiling(self, capsys):
        code, out, _ = cli(capsys, "alpha", "--efficiency", "1.0", "--cores", "8")
        assert code == 0
        assert "unbounded" in out

    def test_csv_value_is_lossless(self, capsys):
        _, out, _ = cli(
            capsys, "--format", "csv", "alpha", "--efficiency", "0.69", "--cores", "16"
        )
        expected = alpha_eff_from_efficiency(0.69, 16).one_minus_alpha
        assert float(scalar_map(out)["one_minus_alpha"]) == expected

    @pytest.mark.parametrize("value, shown", [
        ("-1e3", "-1000.0"), ("-inf", "-inf"), ("-nan", "nan"), ("-.5", "-0.5"),
    ])
    def test_negative_value_after_a_space_reaches_the_library(self, capsys, value, shown):
        code, out, err = cli(capsys, "alpha", "--speedup", value, "--cores", "4")
        assert (code, out, err) == (2, "", f"error: speedup must be finite and > 0, got {shown}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("alpha",),
            ("alpha", "--efficiency", "0.9"),
            ("alpha", "--speedup", "2"),
            ("alpha", "--efficiency", "0.9", "--speedup", "2", "--cores", "4"),
            ("alpha", "--e1", "0.8", "--k1", "2"),
            ("alpha", "--t1", "10", "--k1", "1", "--t2", "4"),
        ],
    )
    def test_incomplete_modes_are_usage_errors(self, capsys, argv):
        code, _, err = cli(capsys, *argv)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--efficiency", "0.5", "--cores", "8", "--k1", "3", "--k2", "9"),
             "--efficiency/--cores does not take --k1/--k2"),
            (("--speedup", "2", "--cores", "8", "--k2", "9"),
             "--speedup/--cores does not take --k2"),
            (("--e1", "0.5", "--k1", "2", "--e2", "0.4", "--k2", "4", "--cores", "8"),
             "--e1/--k1/--e2/--k2 does not take --cores"),
            (("--t1", "2", "--k1", "2", "--t2", "1", "--k2", "4", "--cores", "8"),
             "--t1/--k1/--t2/--k2 does not take --cores"),
        ],
        ids=["efficiency-with-k", "speedup-with-k2", "two-point-with-cores",
             "two-timings-with-cores"],
    )
    def test_a_flag_the_mode_does_not_use_is_a_usage_error(self, capsys, argv, message):
        # The one-point modes used to ignore --k1/--k2, and the two-point modes --cores.
        assert cli(capsys, "alpha", *argv) == (1, "", f"error: {message}\n")

    def test_speedup_limit_beyond_the_float_range_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "alpha", "--e1", "1", "--k1", "1",
            "--e2", "0.9999999999999999", "--k2", "1" + "0" * 300,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: one_minus_alpha ")
        assert err.endswith(" is too small for a finite speedup bound\n")
        assert err.count("\n") == 1

    def test_speedup_on_cores_whose_product_with_it_passes_the_float_range(self, capsys):
        # k * S is about 1e310: the inversion divides twice instead of returning 0.
        code, out, err = cli(capsys, "alpha", "--speedup", "1e10", "--cores", "1" + "0" * 300)
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [
            "one_minus_alpha  1.000e-10", "alpha            1.000e+00", "max_speedup      1.000e+10",
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--speedup", "0", "--cores", "4"), "speedup must be finite and > 0, got 0.0"),
            (("--efficiency", "-0.5", "--cores", "4"),
             "efficiency must be finite and > 0, got -0.5"),
            (("--t1", "-1", "--k1", "1", "--t2", "1", "--k2", "2"),
             "t1 must be finite and > 0, got -1.0"),
        ],
        ids=["speedup", "efficiency", "timing"],
    )
    def test_out_of_domain_values_exit_2(self, capsys, argv, message):
        assert cli(capsys, "alpha", *argv) == (2, "", f"error: {message}\n")

    def test_timing_ratio_beyond_the_float_range_exits_2(self, capsys):
        # The message once gave the serial fraction the overflowed ratio implies: nan.
        argv = ("alpha", "--t1", "1e308", "--k1", "1", "--t2", "5e-324", "--k2", "2")
        assert cli(capsys, *argv) == (
            2, "", "error: timing ratio 1e+308 / 5e-324 at counts 1 and 2 "
            "overflows the float range\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("--t1", "1e308", "--k1", "2", "--t2", "1", "--k2", "1"),
            ("--e1", "2.2e-309", "--k1", "7", "--e2", "2.2e-309", "--k2", "1000001"),
            ("--e1", "5e-324", "--k1", "17", "--e2", "0.3", "--k2", "9"),
        ],
        ids=["timings", "slope-nan", "slope-inf"],
    )
    def test_two_point_result_beyond_the_float_range_exits_2(self, capsys, argv):
        # Each message once printed the overflowed result: inf or nan.
        code, out, err = cli(capsys, "alpha", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("overflows the float range\n")
        assert not re.search(r"\b(inf|nan)\b", err)

    def test_model_violations_exit_2(self, capsys):
        code, _, err = cli(capsys, "alpha", "--efficiency", "1.2", "--cores", "4")
        assert code == 2 and "exceeds 1" in err
        code, _, err = cli(capsys, "alpha", "--efficiency", "0.1", "--cores", "4")
        assert code == 2
        code, _, err = cli(capsys, "alpha", "--speedup", "9", "--cores", "4")
        assert code == 2


class TestSimulate:
    def test_table_output(self, capsys):
        code, out, _ = cli(capsys, "simulate", "--workload", REALISTIC)
        assert code == 0
        assert "1.429e+00" in out  # speedup 10/7
        assert "4.500e-01" in out or "5.500e-01" in out  # alpha or its complement
        assert "chunk2.3" in out
        assert "dispatch2" in out and "collect2" in out

    def test_csv_timeline_parses(self, capsys):
        code, out, _ = cli(capsys, "--format", "csv", "simulate", "--workload", CLASSIC)
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["processor", "start", "end", "label"]
        labels = [r[3] for r in rows[1:]]
        assert labels == ["seq1", "chunk2.1", "chunk2.2", "chunk2.3", "seq3"]
        assert "# speedup = 2.0" in out
        assert "# one_minus_alpha_eff = 0.25" in out

    @staticmethod
    def processor_rows(fmt: str, out: str) -> list[tuple[str, float, float]]:
        """The (processor, busy, idle) rows of a simulate output, as printed."""
        if fmt == "csv":
            found = re.findall(r"^# processor (\S+): busy=(\S+) idle=(\S+)$", out, re.M)
        else:
            block = re.split(r"\nprocessor +busy +idle\n", out)[1].split("\n\n", 1)[0]
            found = [line.split() for line in block.splitlines()]
        return [(label, float(busy), float(idle)) for label, busy, idle in found]

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_processors_that_never_ran_share_one_row(self, capsys, tmp_path, fmt):
        # Three chunks on k processors: 0, 1 and 2 ran; two or more left idle are one
        # row, a single one keeps its index. Behind a 1e20 sequential phase, 1e-5
        # chunks all run on processor 0, so 1 and 2 share the row of those past 2.
        three = [{"type": "parallel", "chunks": [1, 2, 3]}]
        late = [{"type": "sequential", "duration": 1e20},
                {"type": "parallel", "chunks": [1e-5] * 3}]
        for n, (k, phases, labels) in enumerate((
            (8, three, ["0", "1", "2", "3-7"]), (5, three, ["0", "1", "2", "3-4"]),
            (4, three, ["0", "1", "2", "3"]), (8, late, ["0", "1-7"]),
        )):
            path = tmp_path / f"case{n}.json"
            path.write_text(json.dumps({"processors": k, "phases": phases}), encoding="utf-8")
            code, out, err = cli(capsys, "--format", fmt, "simulate", "--workload", str(path))
            assert (code, err) == (0, "")
            with open(path, encoding="utf-8") as fh:
                result = simulate(load_workload(fh))
            busy, idle = result.per_processor_busy, result.per_processor_idle
            assert self.processor_rows(fmt, out) == [
                *((label, busy[p], idle[p]) for p, label in enumerate(labels[:-1])),
                (labels[-1], 0.0, result.parallel_time),
            ]

    def test_processors_that_ran_keep_their_rows_when_equal(self, capsys):
        # Processors 1 and 2 of the classic workload each ran a chunk, with equal times.
        code, out, _ = cli(capsys, "simulate", "--workload", CLASSIC)
        assert code == 0
        rows = self.processor_rows("table", out)
        assert [label for label, _, _ in rows] == ["0", "1", "2"]
        assert rows[1][1:] == rows[2][1:]

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_a_run_at_the_processor_cap_prints_a_few_lines(self, capsys, tmp_path, fmt):
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(
            {"processors": 10**6, "phases": [{"type": "parallel", "chunks": [1, 2, 3]}]}
        ), encoding="utf-8")
        code, out, err = cli(capsys, "--format", fmt, "simulate", "--workload", str(path))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) < 30
        assert self.processor_rows(fmt, out)[3:] == [("3-999999", 0.0, 3.0)]

    def test_single_processor_reports_no_estimate(self, capsys, tmp_path):
        doc = {"processors": 1, "phases": [{"type": "parallel", "chunks": [1.0, 2.0]}]}
        path = tmp_path / "serial.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = cli(capsys, "simulate", "--workload", str(path))
        assert code == 0
        assert "n/a" in out
        code, out, _ = cli(capsys, "--format", "csv", "simulate", "--workload", str(path))
        assert code == 0
        assert "# alpha_eff = n/a" in out

    def test_missing_and_malformed_files_exit_2(self, capsys, tmp_path):
        code, _, err = cli(capsys, "simulate", "--workload", str(tmp_path / "no.json"))
        assert code == 2 and "error:" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = cli(capsys, "simulate", "--workload", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("simulate",), ("sweep", "--overhead", "0", "--sequential", "0")],
        ids=lambda argv: argv[0],
    )
    def test_nesting_too_deep_to_read_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = cli(capsys, argv[0], "--workload", str(path), *argv[1:])
        assert (code, out, err) == (
            2, "", "error: workload file nests its arrays or objects too deeply\n"
        )

    def test_phase_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text('{"processors": 2, "phases": [1]}', encoding="utf-8")
        code, out, err = cli(capsys, "simulate", "--workload", str(path))
        assert (code, out, err) == (2, "", "error: phase 1 must be an object, got 1\n")

    def test_total_time_beyond_the_float_range_exits_2(self, capsys, tmp_path):
        doc = {"processors": 2, "phases": [{"type": "sequential", "duration": 1e308}] * 2}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = cli(capsys, "simulate", "--workload", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: workload overflows the time range")

    def test_speedup_that_underflows_exits_2(self, capsys, tmp_path):
        doc = {"processors": 2, "phases": [{"type": "parallel", "dispatch": 1e300,
                                            "chunks": [5e-324]}]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = cli(capsys, "simulate", "--workload", str(path))
        assert (code, out, err) == (2, "", (
            "error: workload speedup underflows to 0: serial time 5e-324, parallel time 1e+300\n"
        ))

    def test_integer_beyond_the_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            '{"processors": 2, "phases": [{"type": "sequential", "duration": 1'
            + "0" * 400 + "}]}",
            encoding="utf-8",
        )
        code, out, err = cli(capsys, "simulate", "--workload", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: phase 1: sequential duration must be finite and > 0, got a 1329-bit integer\n"
        )

    def test_processors_beyond_an_index_exit_2(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            '{"processors": 1' + "0" * 400
            + ', "phases": [{"type": "sequential", "duration": 1}]}',
            encoding="utf-8",
        )
        code, out, err = cli(capsys, "simulate", "--workload", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: processors must be <= ")

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_the_largest_processor_count_runs(self, capsys, tmp_path, fmt):
        path = tmp_path / "maxsize.json"
        path.write_text(json.dumps(
            {"processors": sys.maxsize, "phases": [{"type": "parallel", "chunks": [1, 2, 3]}]}
        ), encoding="utf-8")
        code, out, err = cli(capsys, "--format", fmt, "simulate", "--workload", str(path))
        assert (code, err) == (0, "")
        assert self.processor_rows(fmt, out)[3:] == [("3-9223372036854775806", 0.0, 3.0)]
        assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE)

    def test_integer_too_long_to_read_exits_2(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(
            '{"processors": 2, "phases": [{"type": "sequential", "duration": 1'
            + "0" * 5000 + "}]}",
            encoding="utf-8",
        )
        code, out, err = cli(capsys, "simulate", "--workload", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: a number in the workload file is too long to read")
        assert "set_int_max_str_digits" not in err


class TestTimeline:
    def test_csv_round_trips_through_the_parser(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "timeline", "--input", HPL, "--select", "best-rmax"
        )
        assert code == 0
        records = parse_records(io.StringIO(out))
        assert len(records) == 1
        assert records[0].name == "Sunway TaihuLight"
        header = next(ln for ln in out.splitlines() if ln.startswith("year,"))
        assert header.endswith("efficiency,one_minus_alpha_eff")

    def test_file_columns_follow_the_record_fields(self):
        # A timeline row is the record itself, then its derived pair, under this header.
        assert tuple(h.removesuffix("_gflops") for h in _HEADER) == MachineRecord._fields

    def test_csv_quotes_a_name_with_a_bare_carriage_return(self, capsys, tmp_path):
        # The name was written unquoted, and the output did not parse back.
        original = [MachineRecord(2017, 1, "c\rr", Architecture.MPP, 4, 1.0, 2.0, Benchmark.HPL)]
        path = tmp_path / "cr.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_records(original, fh)
        code, out, err = cli(
            capsys, "--format", "csv", "timeline", "--input", str(path), "--select", "best-rmax"
        )
        assert (code, err) == (0, "")
        assert parse_records(io.StringIO(out)) == original

    def test_best_alpha_on_single_year(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "timeline", "--input", HPCG, "--select", "best-alpha"
        )
        assert code == 0
        (champion,) = parse_records(io.StringIO(out))
        assert champion.name == "K computer"

    def test_top_restricts_the_pool_by_rank(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "timeline",
            "--input", HPCG, "--select", "best-rmax",
        )
        assert parse_records(io.StringIO(out))[0].name == "Oakforest-PACS"
        code, out, _ = cli(
            capsys, "--format", "csv", "timeline",
            "--input", HPCG, "--select", "best-rmax", "--top", "2",
        )
        assert parse_records(io.StringIO(out))[0].name == "Tianhe-2"

    def test_multi_year_input_gets_a_trend_fit(self, capsys, tmp_path):
        text = (
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            "1993,1,Old Machine,MPP,1024,59.7,131.0,HPL\n"
            "2017,1,New Machine,MPP,10649600,92750000,125000000,HPL\n"
        )
        path = tmp_path / "two_years.csv"
        path.write_text(text, encoding="utf-8")
        code, out, _ = cli(capsys, "timeline", "--input", str(path), "--select", "best-alpha")
        assert code == 0
        assert "fit of log10(one_minus_alpha_eff) on year" in out
        assert "slope -" in out
        code, out, _ = cli(
            capsys, "--format", "csv", "timeline", "--input", str(path), "--select", "best-alpha"
        )
        assert "# fit of log10(one_minus_alpha_eff) on year: slope -" in out

    def test_fit_line_is_the_table_line_with_exact_numbers_in_csv(self, capsys, tmp_path):
        path = tmp_path / "three_years.csv"
        path.write_text(
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            "1993,1,Old Machine,MPP,1024,59.7,131.0,HPL\n"
            "2005,1,Mid Machine,MPP,131072,280600,367000,HPL\n"
            "2017,1,New Machine,MPP,10649600,92750000,125000000,HPL\n",
            encoding="utf-8",
        )
        argv = ("timeline", "--input", str(path), "--select", "best-alpha")
        code, table, _ = cli(capsys, *argv)
        assert code == 0
        code, out, _ = cli(capsys, "--format", "csv", *argv)
        assert code == 0
        (comment,) = [line[2:] for line in out.splitlines()[1:] if line.startswith("# ")]
        prefix = "fit of log10(one_minus_alpha_eff) on year: "
        table_line = table.splitlines()[0]
        assert table.startswith(table_line + "\nyear  rank  ")
        assert table_line.startswith(prefix) and comment.startswith(prefix)
        shown = dict(item.split(" ") for item in table_line[len(prefix):].split(", "))
        exact = dict(item.split(" ") for item in comment[len(prefix):].split(", "))
        assert list(shown) == list(exact) == list(RegressionFit._fields)
        champions = select_champions(read_records(str(path)), "best-alpha")
        fit = fit_semilog([(r.year, derive(r).one_minus_alpha_eff) for r in champions])
        assert RegressionFit(*map(float, list(exact.values())[:3]), int(exact["n"])) == fit
        assert shown == {key: value if key == "n" else f"{float(value):.3e}"
                         for key, value in exact.items()}

    def test_single_year_has_no_fit_line(self, capsys):
        code, out, _ = cli(capsys, "timeline", "--input", EARLY, "--select", "best-rmax")
        assert code == 0
        assert "fit" not in out

    def test_unit_efficiency_champion_gets_no_fit_line(self, capsys, tmp_path):
        # A zero serial fraction has no logarithm, so the trend fit is skipped.
        path = tmp_path / "two_years.csv"
        path.write_text(
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            "2016,1,A,MPP,100,100,100,HPL\n"
            "2017,1,B,MPP,100,50,100,HPL\n",
            encoding="utf-8",
        )
        code, out, err = cli(capsys, "timeline", "--input", str(path), "--select", "best-rmax")
        assert (code, err) == (0, "")
        assert [line.split()[:3] for line in out.splitlines()[1:]] == [
            ["2016", "1", "A"], ["2017", "1", "B"],
        ]
        assert "fit" not in out

    @pytest.mark.parametrize(
        "year, shown",
        [("1" + "0" * 200, "1" + "0" * 200), ("1" + "0" * 400, "a 1329-bit integer")],
        ids=["201", "401"],
    )
    def test_year_beyond_9999_exits_2(self, capsys, tmp_path, year, shown):
        # 401 digits are past the float range, so the message gives the bit length.
        path = tmp_path / "wide_years.csv"
        path.write_text(
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            f"2017,1,A,MPP,100,50,100,HPL\n{year},1,B,MPP,100,60,100,HPL\n",
            encoding="utf-8",
        )
        code, out, err = cli(capsys, "timeline", "--input", str(path), "--select", "best-rmax")
        assert (code, out) == (2, "")
        assert err == f"error: row at line 3: year must be <= 9999, got {shown}\n"

    def test_bad_selector_is_usage_error(self, capsys):
        code, _, err = cli(capsys, "timeline", "--input", HPL, "--select", "fastest")
        assert code == 1

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,header\n", encoding="utf-8")
        code, _, err = cli(capsys, "timeline", "--input", str(path), "--select", "best-rmax")
        assert code == 2 and "header" in err


class TestMeanEfficiency:
    def test_synthetic_cohort(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "mean-efficiency",
            "--input", fixture_path("top25_2016_hpl.csv"), "--top", "25",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["year", "mean_efficiency", "sd_efficiency"]
        year, mean, sd = rows[1]
        assert year == "2016"
        assert float(mean) == pytest.approx(0.757, abs=1e-12)
        assert float(sd) == pytest.approx(0.117, abs=1e-12)

    def test_top_is_required(self, capsys):
        code, _, err = cli(capsys, "mean-efficiency", "--input", HPL)
        assert code == 1

    def test_core_count_beyond_the_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            f"2017,1,A,MPP,{BEYOND_FLOAT},50,100,HPL\n",
            encoding="utf-8",
        )
        code, out, err = cli(capsys, "mean-efficiency", "--input", str(path), "--top", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: row at line 2: cores must be <= 1.7976931348623157e+308, "
            "got a 1329-bit integer\n"
        )

    def test_table_mode(self, capsys):
        code, out, _ = cli(capsys, "mean-efficiency", "--input", EARLY, "--top", "10")
        assert code == 0
        assert "1992" in out


class TestProject:
    @pytest.mark.parametrize(
        ("base", "start", "stop", "points"),
        [(("4", "1"), "5e-324", "1", "3"), (("1", "1e10"), "1", "1.7976931348623157e308", "5")],
        ids=["ratio-overflows", "last-power-overflows"],
    )
    def test_grid_endpoints_beyond_the_float_range_apart(self, capsys, base, start, stop, points):
        code, out, err = cli(
            capsys, "--format", "csv", "project", "--one-minus-alpha", "0.1",
            "--cores", base[0], "--rpeak", base[1],
            "--rpeak-from", start, "--rpeak-to", stop, "--points", points,
        )
        assert (code, err) == (0, "")
        rpeaks = [float(row[0]) for row in csv_rows(out)[1:]]
        assert len(rpeaks) == int(points)
        assert (rpeaks[0], rpeaks[-1]) == (float(start), float(stop))
        assert all(0.0 < a < b < math.inf for a, b in zip(rpeaks, rpeaks[1:]))

    def test_from_file_and_explicit_agree(self, capsys):
        record = next(
            r for r in read_records(HPL) if r.name == "Sunway TaihuLight"
        )
        from amdahl.dataset import derive

        oma = derive(record).one_minus_alpha_eff
        base = [
            "--rpeak-from", "0.125e9", "--rpeak-to", "1e9", "--points", "8",
        ]
        code, out_file, _ = cli(
            capsys, "--format", "csv", "project",
            "--input", HPL, "--name", "Sunway TaihuLight", *base,
        )
        assert code == 0
        code, out_explicit, _ = cli(
            capsys, "--format", "csv", "project",
            "--one-minus-alpha", repr(oma),
            "--cores", str(record.cores), "--rpeak", repr(record.rpeak), *base,
        )
        assert code == 0
        assert csv_rows(out_file) == csv_rows(out_explicit)

    def test_unit_suffixes_match_plain_numbers(self, capsys):
        argv = ["--format", "csv", "project", "--one-minus-alpha", "3.273e-8",
                "--cores", "10649600", "--rpeak", "0.125E",
                "--rpeak-to", "1E", "--points", "4"]
        code, suffixed, _ = cli(capsys, *argv, "--rpeak-from", "0.125E")
        assert code == 0
        code, plain, _ = cli(
            capsys, "--format", "csv", "project", "--one-minus-alpha", "3.273e-8",
            "--cores", "10649600", "--rpeak", "125000000",
            "--rpeak-from", "125000000", "--rpeak-to", "1000000000", "--points", "4",
        )
        assert code == 0
        assert csv_rows(suffixed) == csv_rows(plain)

    def test_grid_shape(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "project", "--one-minus-alpha", "0.01",
            "--cores", "1000", "--rpeak", "1000",
            "--rpeak-from", "1000", "--rpeak-to", "8000", "--points", "4",
        )
        rows = csv_rows(out)
        assert rows[0] == ["rpeak_gflops", "cores", "efficiency", "rmax_gflops"]
        assert len(rows) == 5
        assert float(rows[1][0]) == 1000.0
        assert float(rows[-1][0]) == 8000.0

    def test_mixed_modes_are_usage_errors(self, capsys):
        code, _, err = cli(
            capsys, "project", "--input", HPL, "--name", "Titan",
            "--cores", "5", "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2",
        )
        assert code == 1
        code, _, err = cli(
            capsys, "project", "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2"
        )
        assert code == 1
        code, _, err = cli(
            capsys, "project", "--input", HPL,
            "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2",
        )
        assert code == 1

    @pytest.mark.parametrize("base", [
        ("--input", HPL, "--name", "Titan", "--cores", "5"),
        ("--one-minus-alpha", "0.1", "--cores", "4", "--rpeak", "1", "--name", "Titan"),
    ])
    def test_a_flag_of_the_other_mode_keeps_the_mode_message(self, capsys, base):
        # Every flag a project mode needs also selects it, so mixing is two modes.
        code, out, err = cli(capsys, "project", *base, "--rpeak-from", "1", "--rpeak-to", "2",
                             "--points", "2")
        assert (code, out) == (1, "")
        assert err == ("error: project takes either --input/--name or "
                       "--one-minus-alpha/--cores/--rpeak\n")

    def test_title_line_escapes_a_line_break_in_the_name(self, capsys, tmp_path):
        # The title printed the raw name, so a line break split it in two.
        path = tmp_path / "names.csv"
        path.write_text(
            'year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n'
            '2017,1,"two\nlines",MPP,100,50,100,HPL\n',
            encoding="utf-8",
        )
        code, out, err = cli(
            capsys, "project", "--input", str(path), "--name", "two\nlines",
            "--rpeak-from", "1", "--rpeak-to", "100", "--points", "2",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == [
            "base: name=two\\nlines cores=100 rpeak_gflops=100.0  one_minus_alpha=1.010e-02",
            "rpeak_gflops  cores  efficiency  rmax_gflops",
        ]

    @pytest.mark.parametrize("mode", ["input", "explicit"])
    def test_title_is_the_csv_comment_with_a_rounded_fraction(self, capsys, mode):
        record = next(r for r in read_records(HPL) if r.name == "Sunway TaihuLight")
        one_minus_alpha = derive(record).one_minus_alpha_eff
        base = (["--input", HPL, "--name", record.name] if mode == "input" else
                ["--one-minus-alpha", repr(one_minus_alpha), "--cores", str(record.cores),
                 "--rpeak", repr(record.rpeak)])
        argv = ("project", *base, "--rpeak-from", "1e8", "--rpeak-to", "1e9", "--points", "2")
        code, table, _ = cli(capsys, *argv)
        assert code == 0
        code, out, _ = cli(capsys, "--format", "csv", *argv)
        assert code == 0
        (comment,) = [line[2:] for line in out.splitlines()[1:] if line.startswith("# ")]
        note, value = comment.rsplit("  one_minus_alpha=", 1)
        assert float(value) == one_minus_alpha
        assert note == ("base: name=Sunway TaihuLight " if mode == "input" else "base: ") + (
            f"cores={record.cores} rpeak_gflops={record.rpeak!r}"
        )
        assert table.splitlines()[0] == f"{note}  one_minus_alpha={float(value):.3e}"

    def test_unknown_and_ambiguous_names_exit_2(self, capsys, tmp_path):
        code, _, err = cli(
            capsys, "project", "--input", HPL, "--name", "No Such Machine",
            "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2",
        )
        assert code == 2 and "No Such Machine" in err
        text = (
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            "2017,1,Dup,MPP,100,50,100,HPL\n"
            "2017,2,Dup,MPP,100,40,100,HPCG\n"
        )
        path = tmp_path / "dup.csv"
        path.write_text(text, encoding="utf-8")
        code, _, err = cli(
            capsys, "project", "--input", str(path), "--name", "Dup",
            "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2",
        )
        assert code == 2 and "2 records" in err

    def test_core_count_beyond_the_float_range_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "project", "--rpeak", "1e-320", "--cores", "10",
            "--one-minus-alpha", "1e-6", "--rpeak-from", "1", "--rpeak-to", "1e300",
            "--points", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: core count for rpeak 1.0 overflows the float range")

    def test_finite_core_count_whose_product_overflows_is_projected(self, capsys):
        argv = ["--format", "csv", "project", "--one-minus-alpha", "1e-6", "--cores", "10",
                "--rpeak", "1e10", "--rpeak-from", "1e307", "--rpeak-to", "1e308", "--points", "2"]
        code, out, err = cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert [int(row[1]) for row in csv_rows(out)[1:]] == [
            round(10 * 1e307 / 1e10), round(10 * (1e308 / 1e10)),
        ]
        argv[argv.index("1e10")] = "1e-300"
        code, out, err = cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: core count for rpeak 1e+307 overflows the float range")

    def test_core_counts_above_2_53_print_as_floats_in_a_table(self, capsys):
        argv = ["project", "--one-minus-alpha", "0.1", "--cores", "1", "--rpeak", "1e10",
                "--rpeak-from", "1", "--rpeak-to", "1.7976931348623157e308", "--points", "5"]
        code, out, err = cli(capsys, *argv)
        assert (code, err) == (0, "")
        cells = [line.split()[1] for line in out.splitlines()[2:]]
        assert cells == ["1", "1.158e+67", "1.341e+144", "1.553e+221", "1.798e+298"]
        assert max(len(line) for line in out.splitlines()) < 80
        # csv keeps every count an exact integer.
        code, out, _ = cli(capsys, "--format", "csv", *argv)
        counts = [int(row[1]) for row in csv_rows(out)[1:]]
        assert counts[-1] == int(1.7976931348623157e308 / 1e10) and code == 0
        # At or below 2**53 a table cell is the integer itself.
        code, out, _ = cli(
            capsys, "project", "--one-minus-alpha", "0.1", "--cores", "1", "--rpeak", "1",
            "--rpeak-from", "4503599627370496", "--rpeak-to", "9007199254740992", "--points", "2",
        )
        assert [line.split()[1] for line in out.splitlines()[2:]] == [
            "4503599627370496", "9007199254740992",
        ]

    def test_non_positive_grid_start_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "project", "--one-minus-alpha", "0.01", "--cores", "10",
            "--rpeak", "10", "--rpeak-from", "0", "--rpeak-to", "2", "--points", "3",
        )
        assert (code, out, err) == (2, "", "error: grid start must be finite and > 0, got 0.0\n")

    def test_grid_beyond_the_cap_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "project", "--one-minus-alpha", "0.01", "--cores", "10",
            "--rpeak", "10", "--rpeak-from", "1", "--rpeak-to", "2", "--points", str(sys.maxsize),
        )
        assert (code, out) == (2, "")
        assert err == f"error: a grid has at most 1000000 points, got {sys.maxsize}\n"

    def test_bad_points_value(self, capsys):
        code, _, err = cli(
            capsys, "project", "--one-minus-alpha", "0.01", "--cores", "10",
            "--rpeak", "10", "--rpeak-from", "1", "--rpeak-to", "2", "--points", "1",
        )
        assert code == 1


class TestWhatif:
    def test_reference_scenario(self, capsys):
        code, out, _ = cli(
            capsys, "whatif", "--efficiency", "0.679", "--cores", "2400000",
            "--new-cores", "19860000", "--rpeak", "229P", "--alpha-scale", "2",
        )
        assert code == 0
        assert "1.133e-01" in out
        assert "2.595e+07" in out
        assert "25.95 Pflop/s" in out

    def test_suffix_equals_plain_gflops(self, capsys):
        tail = ["--efficiency", "0.679", "--cores", "2400000", "--new-cores", "19860000"]
        code, a, _ = cli(capsys, "--format", "csv", "whatif", *tail, "--rpeak", "229P")
        code2, b, _ = cli(capsys, "--format", "csv", "whatif", *tail, "--rpeak", "229e6")
        assert code == code2 == 0
        assert csv_rows(a) == csv_rows(b)

    def test_overflow_exits_2(self, capsys):
        code, _, err = cli(
            capsys, "whatif", "--efficiency", "0.5", "--cores", "2",
            "--new-cores", "4", "--rpeak", "100", "--alpha-scale", "3",
        )
        assert code == 2 and "exceeds 1" in err

    def test_negative_scale_is_usage_error(self, capsys):
        code, _, _ = cli(
            capsys, "whatif", "--efficiency", "0.5", "--cores", "2",
            "--new-cores", "4", "--rpeak", "100", "--alpha-scale", "-1",
        )
        assert code == 1


class TestRequiredAlpha:
    def test_reference_value(self, capsys):
        code, out, _ = cli(
            capsys, "required-alpha", "--efficiency", "0.742", "--cores", "85196800"
        )
        assert code == 0
        assert "4.081e-09" in out

    def test_infeasible_exits_2(self, capsys):
        code, _, err = cli(capsys, "required-alpha", "--efficiency", "0.1", "--cores", "4")
        assert code == 2


class TestBounds:
    def test_two_cycle_budget(self, capsys):
        code, out, _ = cli(
            capsys, "bounds", "--clock-hz", "25e9", "--runtime-s", "771.3",
            "--hw-cycles", "1", "--os-cycles", "1",
        )
        assert code == 0
        assert "1.928e+13" in out
        assert "1.037e-13" in out
        assert "9.641e+12" in out  # max speedup = total/2

    def test_throughput_requires_rate(self, capsys):
        code, out, _ = cli(
            capsys, "bounds", "--clock-hz", "25e9", "--runtime-s", "771.3",
            "--os-cycles", "100000",
        )
        assert code == 0
        assert "n/a" in out
        code, out, _ = cli(
            capsys, "bounds", "--clock-hz", "25e9", "--runtime-s", "771.3",
            "--os-cycles", "100000", "--per-proc-flops", "10",
        )
        assert code == 0
        assert "flop/s" in out

    def test_breakdown_shares_in_csv(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "bounds", "--clock-hz", "1e9", "--runtime-s", "1",
            "--hw-cycles", "1", "--os-cycles", "1", "--sw-cycles", "2",
        )
        values = scalar_map(out)
        assert float(values["share_hardware"]) == 0.25
        assert float(values["share_os"]) == 0.25
        assert float(values["share_software"]) == 0.5
        assert float(values["share_propagation"]) == 0.0
        assert values["max_throughput_flops"] == ""

    def test_zero_budget_exits_2(self, capsys):
        code, _, err = cli(capsys, "bounds", "--clock-hz", "1e9", "--runtime-s", "1")
        assert code == 2

    def test_budget_above_the_run_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "bounds", "--clock-hz", "1", "--runtime-s", "1", "--hw-cycles", "5"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: min_one_minus_alpha")

    def test_underflowing_cycle_count_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "bounds", "--clock-hz", "1e-320", "--runtime-s", "1e-320", "--hw-cycles", "1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: total_cycles")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--clock-hz", "0.5", "--runtime-s", "1e30", "--os-cycles", "1e-300",
             "--per-proc-flops", "1P"),
            ("--clock-hz", "3", "--runtime-s", "0.5", "--hw-cycles", "1e-320",
             "--per-proc-flops", "1E"),
            ("--clock-hz", "1", "--runtime-s", "1e-300", "--hw-cycles", "1e308",
             "--os-cycles", "1.7e308"),
        ],
        ids=["fraction-underflows", "speedup-overflows", "sum-overflows"],
    )
    def test_bounds_beyond_the_float_range_exit_2(self, capsys, argv):
        code, out, err = cli(capsys, "bounds", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSaturation:
    def test_reference_value(self, capsys):
        code, out, _ = cli(
            capsys, "saturation", "--per-proc-flops", "11.737089201877934",
            "--one-minus-alpha", "3.273e-8",
        )
        assert code == 0
        assert "3.586e+08" in out
        assert "358.6 Pflop/s" in out

    def test_suffix_parsing(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "saturation",
            "--per-proc-flops", "1T", "--one-minus-alpha", "0.5",
        )
        values = scalar_map(out)
        assert float(values["per_processor_rpeak_gflops"]) == 1000.0
        assert float(values["saturation_rmax_gflops"]) == 2000.0

    def test_zero_alpha_exits_2(self, capsys):
        code, _, _ = cli(
            capsys, "saturation", "--per-proc-flops", "10", "--one-minus-alpha", "0"
        )
        assert code == 2

    def test_bad_suffix_is_usage_error(self, capsys):
        code, _, err = cli(
            capsys, "saturation", "--per-proc-flops", "10X", "--one-minus-alpha", "0.5"
        )
        assert code == 1 and "suffix" in err

    def test_ceiling_beyond_the_float_range_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "saturation", "--per-proc-flops", "1e308", "--one-minus-alpha", "1e-320"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: saturation throughput") and "overflows" in err


class TestSweep:
    def test_grid_rows_and_order(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "sweep", "--workload", REALISTIC,
            "--overhead", "0,0.25,0.5", "--sequential", "0,0.5,1",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["overhead_ratio", "sequential_ratio", "alpha_eff", "one_minus_alpha_eff"]
        assert len(rows) == 10
        assert [r[0] for r in rows[1:4]] == ["0.0", "0.0", "0.0"]
        assert "# processors=3" in out

    def test_working_point_value(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "sweep", "--workload", REALISTIC,
            "--overhead", "0.5", "--sequential", "1",
        )
        rows = csv_rows(out)
        assert float(rows[1][3]) == pytest.approx(0.55, rel=1e-12)

    def test_processor_override(self, capsys):
        code, out, _ = cli(
            capsys, "--format", "csv", "sweep", "--workload", REALISTIC,
            "--processors", "6", "--overhead", "0", "--sequential", "0",
        )
        assert code == 0
        assert "# processors=6" in out

    def test_bad_ratio_list_is_usage_error(self, capsys):
        code, _, _ = cli(
            capsys, "sweep", "--workload", REALISTIC,
            "--overhead", "a,b", "--sequential", "0",
        )
        assert code == 1

    def test_negative_zero_after_a_space_is_read_and_echoed_as_given(self, capsys):
        argv = ("--format", "csv", "sweep", "--workload", REALISTIC,
                "--overhead", "-0e0", "--sequential", "0")
        code, out, err = cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "# amdahl " + shlex.join(argv)
        assert csv_rows(out)[1][0] == "-0.0"

    def test_negative_ratio_exits_2(self, capsys):
        code, _, _ = cli(
            capsys, "sweep", "--workload", REALISTIC,
            "--overhead", "-0.5", "--sequential", "0",
        )
        assert code == 2

    def test_grid_point_beyond_the_float_range_exits_2(self, capsys):
        code, out, err = cli(
            capsys, "sweep", "--workload", REALISTIC,
            "--overhead", "0,1e308", "--sequential", "0,1e308",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: sweep point overhead=0.0 sequential=1e+308 overflows the time range\n"
        )

    def test_processors_beyond_an_index_exit_2(self, capsys):
        code, out, err = cli(
            capsys, "sweep", "--workload", REALISTIC, "--processors", "100000000000000000000",
            "--overhead", "0", "--sequential", "0",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: processors must be <= ")


class TestCsvComments:
    """csv output starts with "#" lines even where a comment's text holds a line break."""

    def preamble(self, out: str) -> list[str]:
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return lines[:header + 1]

    def test_argv_with_a_line_break(self, capsys):
        for argv in (
            ["alpha", "--efficiency", "0.5", "--cores", "4\n"],
            ["sweep", "--workload", CLASSIC, "--overhead", "0\n", "--sequential", "1"],
        ):
            code, out, err = cli(capsys, "--format", "csv", *argv)
            assert (code, err) == (0, "")
            echoed = "amdahl --format csv " + shlex.join(argv)
            assert self.preamble(out)[:2] == ["# " + line for line in echoed.splitlines()]
            assert re.fullmatch(r"[a-z_]+(,[a-z_]+)*", self.preamble(out)[-1])

    def test_record_name_with_a_line_break(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            '2016,1,"Sun\nway",MPP,10649600,93014593.9,125435904,HPL\n',
            encoding="utf-8",
        )
        code, out, err = cli(
            capsys, "--format", "csv", "project", "--input", str(path), "--name", "Sun\nway",
            "--rpeak-from", "1e8", "--rpeak-to", "1e9", "--points", "2",
        )
        assert (code, err) == (0, "")
        preamble = self.preamble(out)
        assert preamble[-1] == "rpeak_gflops,cores,efficiency,rmax_gflops"
        assert "# base: name=Sun" in preamble
        (record,) = read_records(str(path))
        assert (
            f"# way cores=10649600 rpeak_gflops=125435904.0  "
            f"one_minus_alpha={derive(record).one_minus_alpha_eff!r}"
        ) in preamble
        assert all(line.startswith("# ") for line in preamble[:-1])

    def test_comment_holding_a_quote_after_a_comma_reads_back(self, capsys, tmp_path):
        # The echoed path holds ',"', which opened a quoted csv field that ran on into
        # the header before a "#" line was a comment to its line end.
        path = tmp_path / 'a,"b.csv'
        shutil.copyfile(HPL, path)
        code, out, err = cli(
            capsys, "--format", "csv", "timeline", "--input", str(path), "--select", "best-rmax"
        )
        assert (code, err) == (0, "")
        assert parse_records(io.StringIO(out)) == select_champions(
            read_records(str(path)), "best-rmax"
        )


class TestNotes:
    """A table prints its notes above its header; csv prints the same text in "#" lines."""

    NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")
    THREE_YEARS = (
        "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
        "1993,1,Old Machine,MPP,1024,59.7,131.0,HPL\n"
        "2005,1,Mid Machine,MPP,131072,280600,367000,HPL\n"
        "2017,1,New Machine,MPP,10649600,92750000,125000000,HPL\n"
    )

    @pytest.mark.parametrize(
        "argv, first",
        [
            (("project", "--input", HPL, "--name", "Sunway TaihuLight",
              "--rpeak-from", "0.125E", "--rpeak-to", "1E", "--points", "4"),
             "base: name=Sunway TaihuLight cores=10649600 rpeak_gflops=125000000.0  "),
            (("project", "--one-minus-alpha", "3.2653236e-08", "--cores", "10649600",
              "--rpeak", "125P", "--rpeak-from", "0.125E", "--rpeak-to", "1E", "--points", "4"),
             "base: cores=10649600 rpeak_gflops=125000000.0  "),
            (("timeline", "--input", "three_years.csv", "--select", "best-alpha"),
             "fit of log10(one_minus_alpha_eff) on year: "),
            (("sweep", "--workload", CLASSIC, "--overhead", "0,0.05", "--sequential", "0,0.1"),
             "processors=3"),
            (("sweep", "--workload", CLASSIC, "--processors", "6", "--overhead", "0,0.05",
              "--sequential", "0,0.1"),
             "processors=6"),
        ],
        ids=["project-record", "project-explicit", "timeline", "sweep-template", "sweep-override"],
    )
    def test_table_notes_are_the_csv_comments_rounded(self, capsys, monkeypatch, tmp_path,
                                                       argv, first):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "three_years.csv").write_text(self.THREE_YEARS, encoding="utf-8")
        code, table, err = cli(capsys, *argv)
        assert (code, err) == (0, "")
        code, out, err = cli(capsys, "--format", "csv", *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        exact = [line[2:] for line in lines[1:header]]
        table_lines = table.splitlines()
        shown = table_lines[:next(i for i, line in enumerate(table_lines)
                                  if line.split() == lines[header].split(","))]
        assert len(shown) == len(exact) == 1
        assert shown[0].startswith(first) and exact[0].startswith(first)
        # The same text, each number as given or rounded to the default 4 digits.
        rounded, precise = self.NUMBER.split(shown[0]), self.NUMBER.split(exact[0])
        assert rounded[::2] == precise[::2]
        for number, value in zip(rounded[1::2], precise[1::2]):
            assert number in (value, f"{float(value):.3e}")


FLOAT_FLAGS = [
    ("alpha", "--efficiency"), ("alpha", "--speedup"), ("alpha", "--e1"), ("alpha", "--e2"),
    ("alpha", "--t1"), ("alpha", "--t2"), ("project", "--one-minus-alpha"),
    ("whatif", "--efficiency"), ("whatif", "--alpha-scale"), ("required-alpha", "--efficiency"),
    ("bounds", "--clock-hz"), ("bounds", "--runtime-s"), ("bounds", "--hw-cycles"),
    ("bounds", "--os-cycles"), ("bounds", "--sw-cycles"), ("bounds", "--size-m"),
    ("saturation", "--one-minus-alpha"),
]


@pytest.mark.parametrize("text", ["x", "1,5", "-2P"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS, ids=[" ".join(f) for f in FLOAT_FLAGS])
def test_every_float_flag_says_expected_a_number(capsys, command, flag, text):
    code, out, err = cli(capsys, command, flag, text)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {flag}: expected a number, got {text!r}\n")


class TestHarness:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = cli(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = cli(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_0(self, capsys):
        assert cli(capsys, "--help")[0] == 0
        assert cli(capsys, "alpha", "--help")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("timeline", "--select", "best-rmax"),
            ("mean-efficiency", "--top", "1"),
            ("project", "--name", "A", "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2"),
        ],
        ids=["timeline", "mean-efficiency", "project"],
    )
    def test_field_past_the_csv_size_limit_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "long_name.csv"
        path.write_text(
            "year,rank,name,arch,cores,rmax_gflops,rpeak_gflops,benchmark\n"
            f"2017,1,{'A' * 131073},MPP,100,50,100,HPL\n",
            encoding="utf-8",
        )
        code, out, err = cli(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: row at line 2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("alpha", "--efficiency", "0.5", "--cores", BEYOND_FLOAT),
            ("alpha", "--e1", "0.9", "--k1", "2", "--e2", "0.8", "--k2", BEYOND_FLOAT),
            ("whatif", "--efficiency", "0.5", "--cores", BEYOND_FLOAT,
             "--new-cores", "4", "--rpeak", "1"),
            ("whatif", "--efficiency", "0.5", "--cores", "4",
             "--new-cores", BEYOND_FLOAT, "--rpeak", "1"),
            ("required-alpha", "--efficiency", "0.5", "--cores", BEYOND_FLOAT),
            ("project", "--one-minus-alpha", "0.1", "--cores", BEYOND_FLOAT, "--rpeak", "1",
             "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2"),
        ],
        ids=["alpha-cores", "alpha-k2", "whatif-cores", "whatif-new-cores", "required-alpha",
             "project"],
    )
    def test_core_counts_beyond_the_float_range_exit_2(self, capsys, argv):
        code, out, err = cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: cores must be <= 1.7976931348623157e+308, got a 1329-bit integer\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("alpha", "--efficiency", "0.5", "--cores", "x"),
             "argument --cores: expected an integer, got 'x'"),
            (("alpha", "--efficiency", "0.5", "--cores", "0"),
             "argument --cores: expected a positive integer, got 0"),
            (("alpha", "--efficiency", "0.5", "--cores", "-4"),
             "argument --cores: expected a positive integer, got -4"),
            (("alpha", "--efficiency", "0.5", "--cores", "-4e0"),
             "argument --cores: expected an integer, got '-4e0'"),
            (("--precision", "x", "alpha", "--efficiency", "0.5", "--cores", "4"),
             "argument --precision: expected an integer, got 'x'"),
            (("whatif", "--efficiency", "0.5", "--cores", "2", "--new-cores", "4",
              "--rpeak", "100", "--alpha-scale", "x"),
             "argument --alpha-scale: expected a number, got 'x'"),
            (("whatif", "--efficiency", "0.5", "--cores", "2", "--new-cores", "4",
              "--rpeak", "100", "--alpha-scale", "-1e3"),
             "argument --alpha-scale: expected a nonnegative number, got -1000.0"),
            (("sweep", "--workload", REALISTIC, "--overhead", ",", "--sequential", "0"),
             "argument --overhead: expected at least one ratio"),
            (("saturation", "--per-proc-flops", "abcP", "--one-minus-alpha", "1e-5"),
             "argument --per-proc-flops: cannot parse performance value 'abcP'; "
             "use Gflop/s or a suffix M/G/T/P/E"),
            (("project", "--one-minus-alpha", "0.1", "--cores", "4",
              "--rpeak-from", "1", "--rpeak-to", "2", "--points", "2"),
             "explicit mode needs all of --one-minus-alpha --cores --rpeak"),
            (("project", "--one-minus-alpha", "0.1", "--cores", "4", "--rpeak", "1",
              "--rpeak-from", "1", "--rpeak-to", "2", "--points", "0"),
             "argument --points: a projection grid needs at least 2 points"),
        ],
        ids=["cores-not-int", "cores-zero", "cores-negative", "cores-negative-exponent",
             "precision-not-int", "alpha-scale-not-number", "alpha-scale-negative",
             "empty-ratio-list", "bad-performance", "explicit-without-rpeak", "points-zero"],
    )
    def test_argument_errors_exit_1(self, capsys, argv, message):
        code, out, err = cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("whatif", "--efficiency", "0.5", "--cores", "2", "--new-cores", "4",
              "--rpeak", "100", "--alpha-scale", "nan"),
             "alpha_scale_factor must be finite and >= 0, got nan"),
            (("bounds", "--clock-hz", "1e9", "--runtime-s", "10", "--hw-cycles", "nan"),
             "hardware_cycles must be finite and >= 0, got nan"),
            (("sweep", "--workload", REALISTIC, "--overhead", "nan", "--sequential", "0"),
             "overhead ratio 1 must be finite and >= 0, got nan"),
        ],
        ids=["alpha-scale", "hw-cycles", "overhead"],
    )
    def test_nan_passes_the_flag_check_and_exits_2(self, capsys, argv, message):
        # nan is not below 0, so only the library's guard can refuse it.
        assert cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_bad_precision_is_usage_error(self, capsys):
        assert cli(capsys, "--precision", "0", "alpha", "--efficiency", "0.9",
                   "--cores", "4")[0] == 1
        assert cli(capsys, "--precision", "18", "alpha", "--efficiency", "0.9",
                   "--cores", "4")[0] == 1

    def test_precision_controls_table_digits(self, capsys):
        _, four, _ = cli(capsys, "alpha", "--efficiency", "0.69", "--cores", "16")
        assert "2.995e-02" in four
        _, ten, _ = cli(
            capsys, "--precision", "10", "alpha", "--efficiency", "0.69", "--cores", "16"
        )
        assert "2.995169082e-02" in ten

    def test_format_flag_position_does_not_matter(self, capsys):
        _, before, _ = cli(capsys, "--format", "csv", "alpha", "--speedup", "2", "--cores", "3")
        _, after, _ = cli(capsys, "alpha", "--format", "csv", "--speedup", "2", "--cores", "3")
        assert csv_rows(before) == csv_rows(after)

    def test_csv_comment_names_the_command(self, capsys):
        _, out, _ = cli(capsys, "--format", "csv", "alpha", "--speedup", "2", "--cores", "3")
        assert out.startswith("# amdahl --format csv alpha --speedup 2 --cores 3\n")

    def test_output_is_deterministic(self, capsys):
        argv = ("--format", "csv", "timeline", "--input", HPL, "--select", "best-alpha")
        first = cli(capsys, *argv)
        second = cli(capsys, *argv)
        assert first == second

    def test_main_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "argv", ["amdahl", "alpha", "--speedup", "2", "--cores", "3"]
        )
        with pytest.raises(SystemExit) as excinfo:
            main()
        assert excinfo.value.code == 0
        assert "2.500e-01" in capsys.readouterr().out

    def test_runs_as_a_module(self):
        # The package is stdlib-only, so its own parent directory is enough.
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(amdahl.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "amdahl.cli", "alpha", "--efficiency", "0.5", "--cores", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()
