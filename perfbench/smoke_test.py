#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, same code.

    python3 perfbench/smoke_test.py

For each workload in BENCHMARK.json it runs run.py --smoke untraced and
traced, and asserts that the run is correct with no failed operation,
that the untraced run emits exactly the end_to_end metrics and the
traced run exactly the per_layer metrics, each with its declared unit
and a finite value. Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.2",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload}/trace={trace}: exit " \
        f"{proc.returncode}\n{proc.stdout}{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload, trace, declared):
    params, result = run(workload, trace)
    where = f"{workload}/trace={trace}"
    assert result["correct"] is True, f"{where}: {params['errors']}"
    assert result["failed"] == 0, f"{where}: {result['failed']} failed"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"
    metrics = result["metrics"]
    assert set(metrics) == set(declared), \
        f"{where}: metric names differ: {set(metrics) ^ set(declared)}"
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit"
        assert math.isfinite(metrics[name]["value"]), f"{where}: {name}"
    for key in ("nproc", "thp", "probe_isa", "metrics", "shards",
                "threads_running", "gen_lateness_p99_us",
                "gen_lateness_max_us"):
        assert key in params["params"], f"{where}: params lack {key}"
    print(f"ok  {where}: {len(metrics)} metrics, "
          f"{result['attempted']} operations")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            check(workload, 0, end_to_end)
            check(workload, 1, per_layer)
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
