#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload batch_offline --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (a Release build of the library plus the
perfbench program) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs it. Build output goes to stderr;
stdout carries the program's own lines, the last of which is the JSON
result. With --trace 1 the spans are written to
<build dir>/traces/<workload>-seed<seed>.jsonl.

Exits non-zero, without a result line, when the build fails (for example
when the library sources are missing next to perfbench/).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, targets=("perfbench",)):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["batch_offline", "qec_stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        result = json.loads(lines[-1]) if lines else {}
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print("perfbench: malformed result line", file=sys.stderr)
            return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
