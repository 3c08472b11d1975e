#!/usr/bin/env python3
"""Builds and runs the MAGNETO repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark builds the repository's own CMake project (Release) together
with the benchmark binary under .bench_build/ (or $CARGO_TARGET_DIR when it is
set), runs one workload, and prints the binary's provenance line and, as the
last line of standard output, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output goes to standard error. A copy of both output lines is kept in
<build dir>/results/. Without the repository's sources next to perfbench/ the
build fails and the script exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("device_stream", "gateway_int8_vocab", "learn_while_streaming")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(target)
    return path if path.is_absolute() else ROOT / path


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    top_cmake = ROOT / "CMakeLists.txt"
    if top_cmake.is_file():
        digest.update(top_cmake.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or pathlib.Path(top.stdout.strip()) != ROOT:
            return "none"
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(out):
    cmake_dir = out / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", jobs, "--target",
         "magneto_perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return None
    return cmake_dir / "magneto_perfbench"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    return isinstance(result["attempted"], int) and result["attempted"] >= 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src" / "magneto.h").is_file():
        print("perfbench: no MAGNETO sources next to perfbench/", file=sys.stderr)
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None or not binary.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=str(out), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 4
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        print("perfbench: workload failed", file=sys.stderr)
        return 5

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    (results / name).write_text("\n".join(lines[-2:]) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
