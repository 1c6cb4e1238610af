#!/usr/bin/env python3
"""Run one perfbench workload for one seed and print its result line.

    python3 perfbench/run.py --workload embedded --seed 1 --seconds 32 --trace 0

Run from the root of a checkout. The script builds the benchmark from source
(CMake, into $CARGO_TARGET_DIR or .bench_build), runs it, and prints the
binary's context line followed by the result line
{"correct", "attempted", "failed", "metrics"} as the last line of stdout.
--trace 1 runs the traced binary instead: per-layer metrics, and a Chrome
trace-event file under <build dir>/traces/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("embedded", "serve-reads", "serve-writes")
# Whole-run limit: a run must end well within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build; returns False (after logging) on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
         "perfbench_traced", "perfbench_decorator_test"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=900)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def clean_env():
    """The program's DC_* knobs must stay at their shipped defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DC_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    if not build(build_dir):
        return 1

    with open(os.path.join(HERE, "ladder.json")) as f:
        ladder = json.load(f)
    env = clean_env()

    if args.trace:
        test = subprocess.run([os.path.join(build_dir, "perfbench_decorator_test")],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=120)
        if test.returncode != 0:
            sys.stderr.write(test.stdout)
            log("decorator test failed")
            return 1

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [
        os.path.join(build_dir, "perfbench_traced" if args.trace else "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--ladder", ",".join(str(r) for r in ladder["rates"]),
        "--light", str(ladder["light"]),
        "--heavy", str(ladder["heavy"]),
        "--work-dir", work_dir,
    ]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        if lines:
            print("\n".join(lines))
        log(f"benchmark binary exited with code {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print("\n".join(lines))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
