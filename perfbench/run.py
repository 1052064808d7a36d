#!/usr/bin/env python3
"""Builds and runs the PRTS fabric benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds this
directory's CMake package (the PRTS library from src/ plus the
fabric_bench program) under $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs one workload in one process. fabric_bench's standard
output passes through; its last line is the result JSON. The exit status
is non-zero when the build fails, the correctness gate fails or a budget
is broken.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("local_hits", "forward_hits", "cold_sweep")
# fabric_bench bounds itself; this is the backstop for a wedged run.
RUN_TIMEOUT_SECONDS = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the package; returns the fabric_bench path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "fabric_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: seconds of work in total")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", os.path.join(build_dir(),
                                       "spans-%s.tsv" % args.workload)]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_SECONDS))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
