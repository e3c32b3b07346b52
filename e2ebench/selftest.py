#!/usr/bin/env python3
"""Self-test of the zoo step benchmark.

    python3 e2ebench/selftest.py

Builds the benchmark and checks, in order:
  1. the statistics helpers on fixed inputs (zoo_step_bench --check-helpers);
  2. every workload in BENCHMARK.json, run for a tiny length untraced and
     traced: the run is correct, every end-to-end (untraced) or per-layer
     (traced) metric is printed with its unit, each model has at least ten
     step samples beyond p95, and the step_error_rate and
     step_p95_us_geomean lines are printed;
  3. a deliberately broken correctness gate (--break-gate perturbs the
     imperative reference losses): the benchmark must exit non-zero and
     report "correct": false.
Exits non-zero when any check fails.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

TIMEOUT_S = 170
SEED = "3"


def last_json(stdout):
    return json.loads(stdout.rstrip("\n").split("\n")[-1])


def check_run(workload, trace, expected, failures):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload",
         workload, "--seed", SEED, "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    try:
        result = last_json(proc.stdout)
    except (json.JSONDecodeError, IndexError):
        failures.append(f"{where}: no JSON result (exit {proc.returncode})")
        return
    if proc.returncode != 0 or result["correct"] is not True or result["failed"]:
        failures.append(f"{where}: exit {proc.returncode}, correct "
                        f"{result['correct']}, failed {result['failed']}")
    metrics = result["metrics"]
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            failures.append(f"{where}: {metric['name']} [{metric['unit']}] "
                            f"printed as {got}")
    unexpected = set(metrics) - {m["name"] for m in expected}
    if unexpected:
        failures.append(f"{where}: unexpected metrics {sorted(unexpected)}")
    for line in (r"^step_error_rate \S+ ratio", r"^step_p95_us_geomean \S+ us"):
        if not re.search(line, proc.stdout, re.M):
            failures.append(f"{where}: no line matching {line}")
    # Per-model table: "<model> <samples> <beyond p95> ...".
    table = re.search(r"^model +samples +>p95.*?\n(.*?)^step_",
                      proc.stdout, re.M | re.S)
    rows = table.group(1).strip().split("\n") if table else []
    if not rows:
        failures.append(f"{where}: per-model table missing")
    for row in rows:
        fields = row.split()
        if int(fields[2]) < 10:
            failures.append(f"{where}: {fields[0]} has only {fields[2]} "
                            "samples beyond p95")
    print(f"{where}: {len(metrics)} metrics, {len(rows)} models", flush=True)


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = os.path.join(bench.build(), "zoo_step_bench")
    failures = []

    if subprocess.run([binary, "--check-helpers"], timeout=TIMEOUT_S).returncode:
        failures.append("statistics helpers")

    for workload in spec["workloads"]:
        check_run(workload["name"], 0, spec["end_to_end"], failures)
        check_run(workload["name"], 1, spec["per_layer"], failures)

    broken = subprocess.run(
        [binary, "--workload", spec["workloads"][0]["name"], "--seed", SEED,
         "--seconds", "1", "--trace", "0", "--break-gate"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=TIMEOUT_S)
    try:
        broken_correct = last_json(broken.stdout)["correct"]
    except (json.JSONDecodeError, IndexError):
        broken_correct = None
    if broken.returncode == 0 or broken_correct is not False:
        failures.append(f"broken gate: exit {broken.returncode}, correct "
                        f"{broken_correct}")
    else:
        print(f"broken gate: exit {broken.returncode}, correct false")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
