#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator library and the perfbench binary from source into
.bench_build/ (default tier-1 options: RelWithDebInfo, NOC_INVARIANTS=ON,
NOC_OBS=OFF), runs one workload with every NOC_* environment variable
removed, and passes the binary's output through. The last line of
standard output is the result object: {"correct", "attempted",
"failed", "metrics"}. The line before it records the effective knobs,
build options, nproc and source id; a copy of both, plus the span file
of a traced run, is kept under .bench_build/results/.

Optional: --scale small (shrunk workloads, for selftest.py).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("open8", "mesh32_shard2", "faults8_closed")
# A run measures for --seconds plus set-up and checks; anything near
# this limit is a hang, and the whole invocation must end within 180 s.
RUN_LIMIT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def pinned_env():
    """The caller's environment without any knob the library reads."""
    return {k: v for k, v in os.environ.items() if not k.startswith("NOC_")}


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=pinned_env(), timeout=850)
            if done.returncode != 0:
                return False
    return os.path.exists(BINARY)


def source_id():
    """Git sha when the tree is a checkout, else a digest of src/."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        top, _, sha = git.stdout.partition("\n")
        if git.returncode == 0 and os.path.samefile(top, ROOT):
            return "git:" + sha.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return 2
    if not build():
        log("build failed")
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--source-id", source_id()]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS, stem + ".spans.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=pinned_env(), timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        log(f"perfbench exited with {done.returncode}")
        return 1
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump({**record, "result": result}, f, indent=1)
    print(lines[-2])
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
