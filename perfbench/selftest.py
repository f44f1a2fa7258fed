"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

* A tiny run of every workload, untraced and traced, prints a correct
  result holding every metric named in ``BENCHMARK.json`` with its unit.
* A tampered result file is counted as a failed scenario and makes the
  result incorrect.
* In a directory that holds only ``BENCHMARK.json`` and ``perfbench/``,
  the launcher exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import generate  # noqa: E402
import workload  # noqa: E402

SCRATCH = os.path.join(BENCH, "work", "selftest")


def launch(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            for wl in spec["workloads"]:
                with self.subTest(workload=wl["name"], trace=trace):
                    proc = launch(ROOT, "--workload", wl["name"], "--seed", "5",
                                  "--seconds", "1", "--trace", trace, "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected)


class TamperedResult(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        items = generate.generate("small-verified", 5, SCRATCH, tiny=True)
        self.preset = items[0]

    def run_preset(self):
        execute, check = workload.WORKLOADS["small-verified"]
        return workload.attempt(self.preset, execute, check, SCRATCH)

    def test_untouched_result_passes(self):
        record = self.run_preset()
        self.assertTrue(record["ok"], record)
        self.assertTrue(workload.outcome([record])["correct"])

    def test_tampered_cost_counts_as_failed(self):
        write_json = workload.cli.write_json

        def tampered(path, payload):
            if path.endswith("cost.json"):
                payload = dict(payload, total=payload["total"] * 1.001)
            write_json(path, payload)

        with mock.patch.object(workload.cli, "write_json", tampered):
            record = self.run_preset()
        self.assertFalse(record["ok"])
        self.assertIn("|J - V|/V", record["problems"][0])
        self.assertEqual(workload.outcome([record]),
                         {"correct": False, "attempted": 1, "failed": 1})


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = launch(bare, "--workload", "small-verified", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
