"""Smoke test of the benchmark itself: every workload at a tiny size, both modes.

Run with ``python3 perfbench/test_smoke.py`` (or ``python3 -m pytest
perfbench/test_smoke.py``). It checks the output contract, not performance:
every metric named in BENCHMARK.json is reported with its unit, no operation
fails its check, and without the package source the benchmark refuses to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric_and_no_failures(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    self.assertTrue(any(line.startswith("fail_ratio") and " 0 ratio" in line
                                        for line in lines), proc.stdout)
                    self.assertIn(" python ", lines[0])
                    self.assertIn(" nproc ", lines[0])

    def test_refuses_to_run_without_the_package(self):
        bare = ROOT / ".perfbench_out" / f"smoke-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run_bench(bare, "records-pipeline", 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
