#!/usr/bin/env python3
"""Build the end-to-end QISMET benchmark from source, then run it.

Run from the repository root:

    python3 e2ebench/run.py --workload analytic-table1 --seed 1 \
        --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when that is set, else to
.bench_build, and is incremental after the first run. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"--workload all" runs every workload in turn, one result line each.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analytic-table1", "sampling-table1", "serve-durable"]


def build(build_dir):
    """Configure once, then build the benchmark target incrementally."""
    configured = any(
        os.path.exists(os.path.join(build_dir, f))
        for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2

    binary = os.path.join(build_dir, "e2ebench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        rc = subprocess.run([
            binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", os.path.join(build_dir, "work")]).returncode
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
