"""Smoke test of the benchmark: every workload at minimal size.

Runs each workload untraced and traced with ``--smoke`` and asserts that
every metric ``BENCHMARK.json`` names is printed with its unit, that the
output checks passed, and that the benchmark refuses to run (non-zero
exit, no result line) in a directory without the program's sources.

Run from the repository root::

    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_benchmark(workload: str, trace: int, cwd: str = ROOT):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload: str) -> None:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                done = run_benchmark(workload, trace)
                self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = result["metrics"]
                for metric in SPEC[key]:
                    self.assertIn(metric["name"], printed)
                    self.assertEqual(printed[metric["name"]]["unit"],
                                     metric["unit"])
                    self.assertIsInstance(printed[metric["name"]]["value"],
                                          (int, float))
                self.assertEqual(len(printed), len(SPEC[key]))

    def test_persist_64m(self) -> None:
        self.check_workload("persist-64m")

    def test_train_f1(self) -> None:
        self.check_workload("train-f1")

    def test_service_fleet(self) -> None:
        self.check_workload("service-fleet")

    def test_tiered_restore(self) -> None:
        self.check_workload("tiered-restore")

    def test_workloads_match_spec(self) -> None:
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        try:
            from workloads import WORKLOADS
        finally:
            del sys.path[:2]
        self.assertEqual(sorted(WORKLOADS),
                         sorted(w["name"] for w in SPEC["workloads"]))

    def test_refuses_without_sources(self) -> None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("out"))
            done = run_benchmark("persist-64m", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
