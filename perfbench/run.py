#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train_ooc|serve_small|khop_cluster|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The benchmark is compiled from
perfbench/CMakeLists.txt into the directory named by CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. `--workload all` runs
the three workloads one after another, each in its own process, and prints
their metrics prefixed with the workload name.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["train_ooc", "serve_small", "khop_cluster"]
# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return ""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def build(root):
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(root, "src", "aligraph.h")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_dir)
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DALIGRAPH_GIT_SHA=" + git_sha(root)]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure on every run, so a build tree reused across commits records
    # the current git sha; a new sha recompiles only build_info.cc.
    steps = [configure, ["cmake", "--build", build_dir, "-j", jobs,
                         "--target", "perfbench"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_one(binary, root, workload, seed, seconds, trace):
    """Runs one workload; echoes its output and returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out",
           os.path.join(root, "perfbench", "out")]
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + " did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("%s exited with code %d" % (workload, done.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(workload + " did not end with a JSON result line")
    return result, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if args.workload != "all":
        _, line = run_one(binary, root, args.workload, args.seed,
                          args.seconds, args.trace)
        print(line)
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        result, _ = run_one(binary, root, w, args.seed, args.seconds,
                            args.trace)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][w + "." + name] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
