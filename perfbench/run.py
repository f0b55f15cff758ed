#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload sweep-physicians --seed 1 \\
        --seconds 10 --trace 0 [--smoke]

Run it from the root of a checkout. It compiles perfbench/ together with
the library sources in src/ into a Release build under .bench_build/
(or $CARGO_TARGET_DIR when set), then runs one workload. The last line
of standard output is the run's JSON result; build output goes to
standard error. Exits non-zero, without a result line, when the sources
are missing or the build fails, and with the benchmark's own code when a
correctness check fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("sweep-physicians", "solve-grqc", "serve-mixed")
RUN_TIMEOUT_S = 175


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def build(root, build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = build_dir / "perfbench"
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; runs in seconds")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "api" / "session.h").exists():
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target / "perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(target / "work"), "--commit", git_commit(root)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
