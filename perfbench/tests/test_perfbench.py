#!/usr/bin/env python3
"""Tests of the benchmark itself (perfbench/run.py and the harness).

    python3 perfbench/tests/test_perfbench.py

Run from anywhere inside a checkout; the first test builds the harness
through run.py. Each run is one or two seconds, so the whole file takes
about a minute after the build.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, trace, *extra, seconds=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, proc, expected):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = {m["name"]: m["unit"] for m in expected}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for name in want:
            self.assertRegex(proc.stdout, rf"(?m)^metric {name} ")
        return res

    def test_end_to_end_metrics_and_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0)
                res = self.check_metrics(proc, BENCHMARK["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("threads: nproc=", proc.stdout)

    def test_per_layer_metrics_and_audit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 1, seconds=2)
                self.check_metrics(proc, BENCHMARK["per_layer"])
                self.assertRegex(proc.stdout, r"check audit: .* 0 anomalies")
                self.assertRegex(proc.stdout, r"check metrics reconcile: .*OK")

    def test_seeded_lost_update_is_caught(self):
        proc = run("ycsb_skew_cpu", 0, "--inject-lost-update")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("FAIL conservation", proc.stdout)
        self.assertFalse(result(proc)["correct"])

    def test_unknown_workload_is_refused(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_fails_without_program_sources(self):
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
