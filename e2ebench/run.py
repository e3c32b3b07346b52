#!/usr/bin/env python3
"""Builds and runs the zoo training-step benchmark.

    python3 e2ebench/run.py --workload zoo_fine --seed 1 --seconds 20 --trace 0

Run from the root of a JANUS checkout. The first call configures and builds
e2ebench/ (which compiles ../src) in Release mode under
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the Chrome trace is
written next to the build and checked with the repo's trace_validate; a
trace it rejects makes the result incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run takes the gate, setup and warm-up (tens of seconds) plus --seconds.
RUN_MARGIN_S = 100
RUN_SECONDS_FACTOR = 3
BUILD_TIMEOUT_S = 800


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(target, "e2ebench")


def build():
    """Configures and builds (incrementally); returns the build directory."""
    bdir = build_dir()
    subprocess.run(
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return bdir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bdir = build()
    except (subprocess.SubprocessError, OSError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 2

    command = [os.path.join(bdir, "zoo_step_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = os.path.join(bdir, f"trace-{args.workload}.json")
    if args.trace:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        command += ["--trace-out", trace_path]
    timeout = RUN_MARGIN_S + RUN_SECONDS_FACTOR * args.seconds
    try:
        bench = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=timeout)
    except subprocess.TimeoutExpired:
        print("e2ebench: benchmark timed out", file=sys.stderr)
        return 2
    lines = bench.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(bench.stdout)
        print(f"e2ebench: no result (exit {bench.returncode})", file=sys.stderr)
        return bench.returncode or 2

    status = bench.returncode
    if args.trace:
        check = subprocess.run(
            [os.path.join(bdir, "trace_validate"), trace_path, "bench.session",
             "bench.step", "bench.feed", "bench.engine"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=RUN_MARGIN_S)
        lines[-1:-1] = check.stdout.rstrip("\n").split("\n")
        if check.returncode != 0:
            result["correct"] = False
            status = status or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
