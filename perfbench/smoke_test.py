#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Builds the benchmark, checks that the
verifier rejects perturbed answers (solap_perfbench --self-test), then makes
a short untraced and a short traced run of every workload in BENCHMARK.json
and checks that each prints every end-to-end or per-layer metric with its
unit, both as a "<workload>/<metric> <value> <unit>" line and in the JSON
result, with every answer verified. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the benchmark's own build helper)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"failed={result['failed']}")
    if result["attempted"] < 1:
        fail(f"{workload}: nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload} trace={trace}: metrics differ: "
             f"{sorted(set(metrics) ^ set(expected))}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith(workload + "/"):
            printed[parts[0][len(workload) + 1:]] = parts[2]
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail(f"{workload}/{name}: unit {metrics[name]['unit']} != {unit}")
        if printed.get(name) != unit:
            fail(f"{workload}/{name} not printed with unit {unit}")
    if trace == 0:
        for name in ["failed_ops_ratio"] + (
                ["ingest_p50_ms", "ingest_p95_ms"] if workload == "live"
                else []):
            if name not in printed:
                fail(f"{workload}/{name} not printed")
    print(f"ok   {workload} trace={trace}: {len(expected)} metrics, "
          f"{result['attempted']} operations, none failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = run.build(os.path.join(ROOT, target, "perfbench"))

    proc = subprocess.run([binary, "--self-test"], stdout=subprocess.PIPE,
                          text=True, timeout=120)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("the verifier self-test failed")

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        check_run(w["name"], 0, end_to_end)
        check_run(w["name"], 1, per_layer)
    print("smoke test passed")


if __name__ == "__main__":
    main()
