#!/usr/bin/env python3
"""Builds the capture-to-alert benchmark from this checkout and runs it.

    python3 pipebench/run.py --workload edge --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --workload all        # edge, catalog, archive

The program's libraries are compiled from ../src together with the benchmark
(pipebench/CMakeLists.txt) into $CARGO_TARGET_DIR/pipebench, or
.bench_build/pipebench when that variable is unset; a relative directory is
taken from the checkout root.  Build output goes to stderr.  Stdout carries
the benchmark's report; for a single workload its last line is the JSON
result.  The exit status is non-zero when the build or any check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["edge", "catalog", "archive"]
DEFAULT_SEED = 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pipebench")


def build(out):
    """Configures once, then builds incrementally; returns the binary path."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch in the checkout
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "pipebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return os.path.join(out, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("pipebench: build failed", file=sys.stderr)
        return 1

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [
            binary,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--model", os.path.join(ROOT, "dynaminer.model"),
            "--spans-dir", os.path.join(out, "spans"),
        ]
        sys.stdout.flush()
        code = subprocess.run(command, cwd=ROOT).returncode
        if code != 0:
            print(f"pipebench: {workload} failed (exit {code})", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
