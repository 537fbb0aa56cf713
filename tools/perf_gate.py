#!/usr/bin/env python3
"""perf_gate: check one perfbench run against its committed pin.

    tools/perf_gate.py PIN COUNTERS RESULT BASELINE
    tools/perf_gate.py --record PIN COUNTERS

PIN is tests/golden/perfbench/<workload>.json: the figures of a
pipeline_bench --jobs 1 run's --counters-out file whose unit is not "s";
the workload is its file name. COUNTERS is the run's own --counters-out
file, RESULT its stdout (the last line is the result object) and BASELINE
is perfbench/baseline.json.

Figures whose unit is "s" are wall-clock readings; the gate ignores them
on both sides. Every other figure must equal the pin's exactly; a key
missing on either side fails. The run must be correct, and its
pipeline_cpu_s at most 2x the workload's median in BASELINE. Each failure
is named on stdout; the exit status is 1 on any failure.

--record writes COUNTERS' figures whose unit is not "s" to PIN, so a
re-recorded pin changes only where a counter moved.
"""
import json
import sys
from pathlib import Path

CPU_FACTOR = 2.0


def load(path):
    try:
        data = json.loads(Path(path).read_text().strip().splitlines()[-1])
    except (OSError, IndexError, ValueError) as e:
        sys.exit(f"perf_gate: cannot read {path}: {e}")
    if not isinstance(data, dict) or not data:
        sys.exit(f"perf_gate: {path} holds no figures")
    return data


def exact_figures(data):
    """The figures a pin holds and the gate compares: unit other than "s"."""
    return {k: v for k, v in data.items() if v["unit"] != "s"}


def record(pin_path, counters_path):
    figures = exact_figures(load(counters_path))
    Path(pin_path).write_text(json.dumps(dict(sorted(figures.items()))) + "\n")
    print(f"perf_gate: recorded {len(figures)} figures to {pin_path}")
    return 0


def main(pin_path, counters_path, result_path, baseline_path):
    pin, run = exact_figures(load(pin_path)), exact_figures(load(counters_path))
    result = load(result_path)
    workload = Path(pin_path).stem
    failures = []
    for key in sorted(pin.keys() | run.keys()):
        if key not in run or key not in pin:
            failures.append(f"{key}: missing from {'run' if key in pin else 'pin'}")
        elif run[key] != pin[key]:
            failures.append(f"{key}: pin {pin[key]['value']}, run {run[key]['value']}")
    if result.get("correct") is not True:
        failures.append(f"correct: {result.get('correct')} ({result.get('failed')} failed)")
    cpu = result.get("metrics", {}).get("pipeline_cpu_s", {}).get("value")
    median = json.loads(Path(baseline_path).read_text())[
        "workloads"][workload]["end_to_end"]["pipeline_cpu_s"]["median"]
    if cpu is None or cpu > CPU_FACTOR * median:
        failures.append(f"pipeline_cpu_s: {cpu} s over {CPU_FACTOR}x baseline median {median:.2f} s")
    for f in failures:
        print(f"perf_gate {workload}: {f}")
    print(f"perf_gate {workload}: {len(pin)} figures, {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--record":
        sys.exit(record(*sys.argv[2:]))
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
