#!/usr/bin/env python3
"""tools/perf_gate.py's own test: a pin passes against an identical copy,
and the gate fails, naming the key, on a counter off by one, on a key
dropped from either side, on an empty run file, on an incorrect run and
on a run over its CPU bound.

    python3 tests/perf_gate_test.py
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / "tools" / "perf_gate.py"
PIN = ROOT / "tests" / "golden" / "perfbench" / "paper-suite.json"
BASELINE = ROOT / "perfbench" / "baseline.json"


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = Path(tmp.name)
        self.pin = json.loads(PIN.read_text())
        self.run_figures = json.loads(PIN.read_text())
        self.result = {"correct": True, "attempted": 50, "failed": 0,
                       "metrics": {"pipeline_cpu_s": {"value": 1.0, "unit": "s"}}}

    def gate(self, run_text=None):
        """Runs the gate; returns (exit status, stdout + stderr)."""
        pin = self.tmp / "paper-suite.json"
        run = self.tmp / "run.json"
        result = self.tmp / "result.out"
        pin.write_text(json.dumps(self.pin) + "\n")
        run.write_text(json.dumps(self.run_figures) + "\n" if run_text is None else run_text)
        result.write_text("progress line\n" + json.dumps(self.result) + "\n")
        proc = subprocess.run([sys.executable, str(GATE), str(pin), str(run), str(result),
                               str(BASELINE)], capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def assert_fails_naming(self, name, run_text=None):
        status, out = self.gate(run_text)
        self.assertNotEqual(status, 0, out)
        self.assertIn(name, out)

    def test_identical_copy_passes(self):
        status, out = self.gate()
        self.assertEqual(status, 0, out)

    def test_timing_figures_may_move(self):
        self.run_figures["lp.simplex_s"]["value"] *= 3
        status, out = self.gate()
        self.assertEqual(status, 0, out)

    def test_counter_off_by_one_fails(self):
        self.run_figures["lp.ilp_nodes"]["value"] += 1
        self.assert_fails_naming("lp.ilp_nodes")

    def test_key_dropped_from_run_fails(self):
        del self.run_figures["fusion.partitions.wisefuse"]
        self.assert_fails_naming("fusion.partitions.wisefuse")

    def test_key_dropped_from_pin_fails(self):
        del self.pin["poly.fme_rows"]
        self.assert_fails_naming("poly.fme_rows")

    def test_empty_run_fails(self):
        self.assert_fails_naming("run.json", run_text="")

    def test_incorrect_run_fails(self):
        self.result["correct"] = False
        self.assert_fails_naming("correct")

    def test_run_over_cpu_bound_fails(self):
        median = json.loads(BASELINE.read_text())[
            "workloads"]["paper-suite"]["end_to_end"]["pipeline_cpu_s"]["median"]
        self.result["metrics"]["pipeline_cpu_s"]["value"] = 2.01 * median
        self.assert_fails_naming("pipeline_cpu_s")


if __name__ == "__main__":
    unittest.main()
