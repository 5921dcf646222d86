#!/usr/bin/env python3
"""Builds and runs one workload of the fewstate benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot_kernels --seed 1 --seconds 10 --trace 0

The benchmark is compiled from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build). The readable report of the run
goes to standard output, then a provenance line, then as the last line one
JSON object with exactly the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when every
correctness check passed and every metric was measured.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("hot_kernels", "priced_nvm", "durable_serving", "few_state")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture, env=None):
    """Runs `cmd` in its own process group; kills the whole group on
    timeout, so no compiler or benchmark process outlives this script."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True, text=True, env=env,
        stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "stream_engine.h")):
        fail(f"no fewstate sources under {ROOT}/src")
    out_dir = build_dir()
    # Compiler temporaries stay inside the build directory too.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, False,
                      env)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", out_dir, "-j", jobs],
                  BUILD_TIMEOUT_S, False, env)
    if code != 0:
        fail("build failed")
    return os.path.join(out_dir, "perfbench")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None. The
    search never leaves the checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"missing {spec_path}")
    with open(spec_path) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"benchmark exited {code} without a result")

    correct = code == 0 and raw["failed"] == 0
    metrics = {}
    for entry in declared:
        name = entry["name"]
        got = raw["metrics"].get(name)
        value = None if got is None else got["value"]
        if value is None or not math.isfinite(value) or \
                got["unit"] != entry["unit"]:
            print(f"perfbench: metric {name} missing or malformed: {got}",
                  file=sys.stderr)
            correct = False
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}

    info = raw.get("info", {})
    compiler = lines[0].split('compiler="')[1].split('"')[0] \
        if 'compiler="' in lines[0] else None
    build_type = lines[0].split("build_type=")[1].split()[0] \
        if "build_type=" in lines[0] else None
    provenance = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": compiler,
        "build_type": build_type,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": info.get("repetitions"),
        "throughput_rel_iqr": info.get("throughput_rel_iqr"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
