#!/usr/bin/env python3
"""Smoke test for the layered simulator benchmark.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at the benchmark's tiny scale,
once per --trace mode, plus once more on a second seed, and checks that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct and with no failed cell;
  * every end-to-end (--trace 0) or per-layer (--trace 1) metric named in
    BENCHMARK.json is printed, with its unit, as a finite number;
  * the traced run's fidelity gate covered every cell it ran;
  * a different seed is accepted and yields different scenario seeds;
  * bad arguments exit non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 7)


def run(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_run(spec, workload, seed, trace, failures):
    """Runs one tiny cell set; returns its record, appending any failures."""
    label = f"{workload} seed {seed} trace {trace}"
    code, lines, stderr = run(["--workload", workload, "--seed", str(seed),
                               "--seconds", "0.1", "--trace", str(trace),
                               "--scale", "tiny"])
    if code != 0 or not lines:
        failures.append(f"{label}: exit {code}\n{stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
        return None
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}\n{stderr[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        failures.append(f"{label}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            failures.append(f"{label}: {m['name']} unit {got.get('unit')} "
                            f"!= {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {m['name']} value {value!r}")
        # Each name is also printed on its own human-readable line.
        if not any(line.split()[:1] == [m["name"]] and
                   line.split()[-1] == m["unit"] for line in lines[:-1]):
            failures.append(f"{label}: no '{m['name']} ... {m['unit']}' line")
    records = [json.loads(line)["record"] for line in lines[:-1]
               if line.startswith('{"record"')]
    if len(records) != 1:
        failures.append(f"{label}: expected one record line")
        return None
    record = records[0]
    if trace and record.get("fidelity_cells") != result["attempted"]:
        failures.append(f"{label}: fidelity gate covered "
                        f"{record.get('fidelity_cells')} of "
                        f"{result['attempted']} cells")
    return record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        records = {}
        for trace in (0, 1):
            records[trace] = check_run(spec, workload, SEEDS[0], trace,
                                       failures)
        held_out = check_run(spec, workload, SEEDS[1], 0, failures)
        if records[0] and held_out and \
                records[0]["scenario_seeds"] == held_out["scenario_seeds"]:
            failures.append(f"{workload}: seeds {SEEDS} gave the same "
                            "scenario seeds")
        print(f"{workload}: checked", flush=True)
    for bad in (["--workload", "no_such_workload", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                ["--workload", "ctrl_heavy", "--seed", "1", "--seconds", "1",
                 "--trace", "2"]):
        code, lines, _ = run(bad)
        if code == 0 or any(line.startswith('{"correct"') for line in lines):
            failures.append(f"bad arguments {bad} were accepted")
    for failure in failures:
        print("FAIL:", failure)
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
