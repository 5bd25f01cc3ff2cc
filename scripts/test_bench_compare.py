#!/usr/bin/env python3
"""Tests for bench_compare.py's baseline gate (BASELINE RUN... --key --metric).

Pins the four behaviours CI relies on: the best of several runs is gated
per row, a row missing on either side fails, a baseline row whose metric
is <= 0 is skipped, and a drop exactly at the threshold still passes.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"
sys.path.insert(0, str(SCRIPT.parent))
from bench_compare import run_baseline_gate  # noqa: E402


class BaselineGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.count = 0

    def write(self, rows):
        """A bench envelope holding (cell, rate) rows."""
        self.count += 1
        path = Path(self.tmp.name) / f"run{self.count}.json"
        path.write_text(json.dumps({
            "bench": "fixture", "schema_version": 1,
            "results": [{"cell": c, "threads": 1, "rate": r}
                        for c, r in rows]}))
        return str(path)

    def gate(self, baseline, runs, threshold=0.10):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_baseline_gate(self.write(baseline),
                                     [self.write(r) for r in runs],
                                     ["cell", "threads"], "rate", threshold)
        return code, out.getvalue(), err.getvalue()

    def test_best_of_runs_is_gated_per_row(self):
        base = [("a", 100.0), ("b", 100.0)]
        slow = [("a", 50.0), ("b", 99.0)]
        fast = [("a", 95.0), ("b", 40.0)]
        self.assertEqual(self.gate(base, [slow])[0], 1)
        self.assertEqual(self.gate(base, [fast])[0], 1)
        code, out, _ = self.gate(base, [slow, fast])
        self.assertEqual(code, 0)
        self.assertIn("cell=a threads=1", out)
        self.assertIn("(+5.0%)", out)  # a: best run 95
        self.assertIn("(+1.0%)", out)  # b: best run 99

    def test_row_missing_from_the_run_fails(self):
        code, _, err = self.gate([("a", 100.0), ("b", 100.0)],
                                 [[("a", 100.0)]])
        self.assertEqual(code, 1)
        self.assertIn("baseline-only [('b', 1)]", err)

    def test_row_missing_from_the_baseline_fails(self):
        code, _, err = self.gate([("a", 100.0)],
                                 [[("a", 100.0), ("c", 1.0)]])
        self.assertEqual(code, 1)
        self.assertIn("candidate-only [('c', 1)]", err)

    def test_unmeasured_baseline_rows_are_skipped(self):
        code, out, _ = self.gate([("a", 100.0), ("z", 0.0), ("n", -1.0)],
                                 [[("a", 100.0), ("z", 0.0), ("n", -5.0)]])
        self.assertEqual(code, 0)
        self.assertIn("cell=a", out)
        self.assertNotIn("cell=z", out)
        self.assertNotIn("cell=n", out)

    def test_threshold_boundary(self):
        self.assertEqual(self.gate([("a", 100.0)], [[("a", 90.0)]])[0], 0)
        self.assertEqual(self.gate([("a", 100.0)], [[("a", 89.99)]])[0], 1)
        self.assertEqual(
            self.gate([("a", 100.0)], [[("a", 50.0)]], threshold=0.5)[0], 0)
        self.assertEqual(
            self.gate([("a", 100.0)], [[("a", 49.9)]], threshold=0.5)[0], 1)

    def test_record_lacking_the_metric_is_a_usage_error(self):
        path = Path(self.tmp.name) / "bad.json"
        path.write_text(json.dumps({"results": [{"cell": "a",
                                                 "threads": 1}]}))
        with contextlib.redirect_stderr(io.StringIO()):
            code = run_baseline_gate(str(path), [str(path)],
                                     ["cell", "threads"], "rate", 0.1)
        self.assertEqual(code, 2)


class CommandLineTest(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run([sys.executable, str(SCRIPT), *args],
                              capture_output=True, text=True)

    def test_gate_mode_takes_several_runs(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, rate in enumerate((100.0, 50.0, 95.0)):
                path = Path(tmp) / f"{i}.json"
                path.write_text(json.dumps(
                    {"results": [{"cell": "a", "rate": rate}]}))
                paths.append(str(path))
            proc = self.run_cli(*paths, "--key", "cell", "--metric", "rate",
                                "--threshold", "0.10")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            proc = self.run_cli(paths[0], paths[1], "--key", "cell",
                                "--metric", "rate")
            self.assertEqual(proc.returncode, 1)

    def test_key_and_metric_go_together(self):
        proc = self.run_cli("a.json", "b.json", "--key", "cell")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("--key and --metric go together", proc.stderr)

    def test_plain_diff_takes_one_candidate(self):
        proc = self.run_cli("a.json", "b.json", "c.json")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("need --key/--metric", proc.stderr)


if __name__ == "__main__":
    unittest.main()
