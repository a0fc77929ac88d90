#!/usr/bin/env python3
"""Regression tests for the run_all.py counter gate.

These run as a plain ctest (label `bench`) and need neither Google Benchmark
nor any real bench binary: fake "benchmark binaries" are tiny shell scripts
that print canned --benchmark_format=json output.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

RUN_ALL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run_all.py")


def row(name, real_time=100.0, iterations=1000, **counters):
    return dict(name=name, run_name=name, run_type="iteration",
                iterations=iterations, real_time=real_time,
                cpu_time=real_time, time_unit="ns", **counters)


class RunAllGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="sa_bench_gate_")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)
        self.bin_dir = os.path.join(self.tmp, "bin")
        os.mkdir(self.bin_dir)
        self.baseline = os.path.join(self.tmp, "baseline.json")

    def fake_binary(self, name, rows=(), exit_code=0):
        """A shell script that stands in for a Google Benchmark binary."""
        report = json.dumps({"context": {"host_name": "test"},
                             "benchmarks": list(rows)})
        path = os.path.join(self.bin_dir, name)
        with open(path, "w") as fh:
            fh.write(f"#!/bin/sh\ncat <<'EOF'\n{report}\nEOF\nexit {exit_code}\n")
        os.chmod(path, 0o755)

    def run_all(self, *args):
        proc = subprocess.run([sys.executable, RUN_ALL, "--bin-dir",
                               self.bin_dir, *args],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout + proc.stderr

    def record(self, rows):
        """Write the baseline from one fake binary `bench_a` with `rows`."""
        self.fake_binary("bench_a", rows)
        code, out = self.run_all("--update-baseline", self.baseline)
        self.assertEqual(code, 0, out)

    def gate(self, rows):
        self.fake_binary("bench_a", rows)
        return self.run_all("--diff", self.baseline)

    def test_matching_run_passes(self):
        self.record([row("bm_alpha", events=5938.0, rt_us=7.25)])
        code, out = self.gate([row("bm_alpha", events=5938.0, rt_us=7.25)])
        self.assertEqual(code, 0, out)

    def test_times_and_iterations_are_never_compared(self):
        self.record([row("bm_alpha", events=1.0)])
        code, out = self.gate([row("bm_alpha", real_time=9e9, iterations=3,
                                   items_per_second=1.0, events=1.0)])
        self.assertEqual(code, 0, out)

    def test_changed_counter_fails_and_is_named(self):
        self.record([row("bm_alpha", events=5938.0, windows=151.0)])
        code, out = self.gate([row("bm_alpha", events=5939.0, windows=151.0)])
        self.assertEqual(code, 2, out)
        self.assertIn("changed bench_a:bm_alpha events: 5938.0 -> 5939.0", out)
        self.assertNotIn("windows", out)

    def test_missing_row_fails(self):
        self.record([row("bm_alpha", events=1.0), row("bm_beta", events=2.0)])
        code, out = self.gate([row("bm_alpha", events=1.0)])
        self.assertEqual(code, 2, out)
        self.assertIn("missing row bench_a:bm_beta", out)

    def test_new_row_fails(self):
        self.record([row("bm_alpha", events=1.0)])
        code, out = self.gate([row("bm_alpha", events=1.0), row("bm_new")])
        self.assertEqual(code, 2, out)
        self.assertIn("new row bench_a:bm_new", out)

    def test_new_counter_fails(self):
        self.record([row("bm_alpha", events=1.0)])
        code, out = self.gate([row("bm_alpha", events=1.0, windows=0.0)])
        self.assertEqual(code, 2, out)
        self.assertIn("new counter bench_a:bm_alpha windows = 0.0", out)

    def test_missing_counter_fails(self):
        self.record([row("bm_alpha", events=1.0, windows=0.0)])
        code, out = self.gate([row("bm_alpha", events=1.0)])
        self.assertEqual(code, 2, out)
        self.assertIn("missing counter bench_a:bm_alpha windows (was 0.0)", out)

    def test_crashing_binary_writes_nothing(self):
        self.record([row("bm_alpha", events=1.0)])
        with open(self.baseline, "rb") as fh:
            before = fh.read()
        self.fake_binary("bench_b", [row("bm_beta", events=2.0)], exit_code=3)
        report = os.path.join(self.tmp, "report.json")
        code, out = self.run_all("--out", report, "--diff", self.baseline,
                                 "--update-baseline", self.baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("bench_b", out)
        self.assertFalse(os.path.exists(report))
        with open(self.baseline, "rb") as fh:
            self.assertEqual(fh.read(), before)

    def test_row_reporting_an_error_fails_the_run(self):
        self.fake_binary("bench_a", [row("bm_alpha", error_occurred=True,
                                         error_message="hit rate below 0.9")])
        code, out = self.run_all("--update-baseline", self.baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("hit rate below 0.9", out)
        self.assertFalse(os.path.exists(self.baseline))

    def test_update_baseline_is_byte_identical_and_counters_only(self):
        self.fake_binary("bench_b", [row("bm_z", real_time=1.0, n=2.0),
                                     row("bm_a", real_time=2.0, n=1.0)])
        self.record([row("bm_alpha", real_time=3.0, events=1.0)])
        with open(self.baseline, "rb") as fh:
            first = fh.read()
        self.fake_binary("bench_b", [row("bm_a", real_time=7.0, n=1.0),
                                     row("bm_z", real_time=8.0, n=2.0)])
        self.record([row("bm_alpha", real_time=9.0, iterations=1,
                         events=1.0)])
        with open(self.baseline, "rb") as fh:
            self.assertEqual(fh.read(), first)
        doc = json.loads(first)
        self.assertEqual(list(doc), ["benchmarks"])
        self.assertEqual(doc["benchmarks"], [
            {"binary": "bench_a", "name": "bm_alpha", "counters": {"events": 1.0}},
            {"binary": "bench_b", "name": "bm_a", "counters": {"n": 1.0}},
            {"binary": "bench_b", "name": "bm_z", "counters": {"n": 2.0}},
        ])


if __name__ == "__main__":
    unittest.main()
