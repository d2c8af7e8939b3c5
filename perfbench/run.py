#!/usr/bin/env python3
"""Builds and runs the Keypad host-cost benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload compile_prod --seed 1 \
        --seconds 1 --trace 0

The first run configures and builds the program and keypad_perf from source
(CMake, Release) into the directory named by CARGO_TARGET_DIR, or
.bench_build; later runs only check that the build is current. Build output
goes to stderr.

keypad_perf runs in one process. Its info line (behaviour digest and
virtual latencies) is passed through, and the last line printed is one JSON
object: {"correct", "attempted", "failed", "metrics"}, whose metrics must be
exactly the end-to-end (--trace 0) or per-layer (--trace 1) set of
BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_prod", "fleet_10k")
# One run, once the build is done.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j4", "--target", "keypad_perf"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "keypad_perf")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a count")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric set differs: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit or not isinstance(
                value, (int, float)):
            fail(f"metric {name} is malformed: {metrics[name]}")


def main():
    # A terminated run stops its keypad_perf process too: SystemExit unwinds
    # through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = expected_metrics(args.trace == 1)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    info, result = run_benchmark(command)
    check_result(result, expected)
    print(info)
    print(json.dumps(result))


def run_benchmark(command):
    """Runs keypad_perf; returns its info line and parsed result."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"keypad_perf exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].split()[1:2]:
        fail("keypad_perf printed no result")
    try:
        return lines[-2], json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1]!r}")


if __name__ == "__main__":
    main()
