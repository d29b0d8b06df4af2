#!/usr/bin/env python3
"""Build and run the cordon end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (Release, production flags) into .bench_build/perfbench; later
calls reuse that build.  The benchmark's output is passed through; its last
line is the result object {"correct", "attempted", "failed", "metrics"}.

With --trace 1 the benchmark also writes its spans as a Chrome trace to
.bench_build/work/, which must pass scripts/check_trace.py before the
result is printed.  Any build failure, wrong result or invalid trace
exits nonzero without a result line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def fail(msg: str, code: int = 1) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build() -> None:
    for needed in ("CMakeLists.txt", "src/service/service.hpp",
                   "scripts/check_trace.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"cordon sources not found: {needed} is missing", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", jobs], "build")


def git_sha() -> str:
    # Only the checkout's own repository: git must not walk up out of it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.trace:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "check_trace.py"),
             trace_path, "--expect", "service.", "--expect", "families.",
             "--expect", "engine.", "--expect", "parallel."],
            cwd=ROOT, capture_output=True, text=True)
        lines.insert(-1, check.stdout.strip() + check.stderr.strip())
        if check.returncode != 0:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("trace failed scripts/check_trace.py")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
