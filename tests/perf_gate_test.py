#!/usr/bin/env python3
"""tools/perf_gate.py's own test: a pin passes against an identical copy,
and the gate fails, naming the key, on a counter off by one, on a key
dropped from either side, on an empty run file, on an incorrect run and
on a run over its CPU bound. Timing figures (unit "s") are ignored on
both sides; --record writes a pin without them, and no committed pin
holds one.

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
PINS = ROOT / "tests" / "golden" / "perfbench"
PIN = PINS / "paper-suite.json"
BASELINE = ROOT / "perfbench" / "baseline.json"


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = Path(tmp.name)
        self.pin = json.loads(PIN.read_text())
        # A run's --counters-out file carries timing figures too.
        self.run_figures = dict(json.loads(PIN.read_text()),
                                **{"lp.simplex_s": {"value": 6.6, "unit": "s"}})
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

    def test_timing_figures_ignored_on_both_sides(self):
        self.pin["lp.simplex_s"] = {"value": 1.0, "unit": "s"}
        del self.run_figures["lp.simplex_s"]
        status, out = self.gate()
        self.assertEqual(status, 0, out)
        self.run_figures["sched.schedule_s"] = {"value": 2.0, "unit": "s"}
        status, out = self.gate()
        self.assertEqual(status, 0, out)

    def test_record_writes_the_exact_figures_only(self):
        counters = self.tmp / "run.json"
        counters.write_text(json.dumps(self.run_figures) + "\n")
        pin = self.tmp / "paper-suite.json"
        proc = subprocess.run([sys.executable, str(GATE), "--record", str(pin),
                               str(counters)], capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        recorded = json.loads(pin.read_text())
        self.assertEqual(recorded, self.pin)
        self.assertEqual(list(recorded), sorted(recorded))

    def test_committed_pins_hold_no_timing_figures(self):
        for path in sorted(PINS.glob("*.json")):
            pin = json.loads(path.read_text())
            self.assertTrue(pin, path)
            self.assertEqual([k for k, v in pin.items() if v["unit"] == "s"], [], path)

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
