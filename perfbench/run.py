#!/usr/bin/env python3
"""Builds the gqlite end-to-end benchmark binary from source and runs one
workload.

    python3 perfbench/run.py --workload analytics|oltp|short_text \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree. The binary is built with CMake
from perfbench/CMakeLists.txt (engine sources from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; the durable
database and the span dumps go to .bench_build/perfbench-work. Build logs
go to standard error. The last line of standard output is the result
JSON; it is printed only when the run succeeded and reported exactly the
metrics BENCHMARK.json lists for the mode (end_to_end untraced,
per_layer traced). Any failure exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics", "oltp", "short_text")
# A run must end within 180 s; stop the binary before that.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = [["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    # Configure until it has generated a build system; after that
    # `cmake --build` re-runs it when a CMake input changes.
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "gqlite_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no benchmark binary")
    return binary


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    expected = expected_metrics(args.trace)
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(out_root, "perfbench"))
    work_dir = os.path.join(out_root, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    # The engine takes option overrides and crash injection from GQLITE_*
    # variables; the workloads measure fixed configurations.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GQLITE_")}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = set(result["metrics"])
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(expected - got)}, "
             f"extra {sorted(got - expected)}")
    for line in lines[:-1]:
        print(line)
    print(f"# benchmark wall time {time.monotonic() - started:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
