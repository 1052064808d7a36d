#!/usr/bin/env python3
"""Self-test of the fabric benchmark: a tiny run of every workload.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It builds the benchmark like run.py
does, then runs each workload with --tiny, untraced and traced. It
checks that every run exits 0 and ends with the result JSON, and that
the correctness gate checked at least one reply and failed none. It
also checks that every end-to-end metric (untraced) or per-layer
metric (traced) named in BENCHMARK.json is printed with its unit, and
that the traced run lists each one with a sample count. Exit status 0
means every check passed.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(binary, spec, workload, trace):
    """Returns a list of problems found in one tiny run."""
    command = [binary, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_SECONDS)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d: %s" % (where, proc.returncode,
                                     proc.stderr.strip()[-400:])]
    lines = proc.stdout.strip().splitlines()
    problems = []
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("%s: gate failed: %s" % (where, lines[-1][:200]))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("%s: attempted %r" % (where, result.get("attempted")))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
            where, sorted(set(metrics) ^ {m["name"] for m in wanted})))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s: %s unit %r, want %r" % (
                where, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s: %s value %r" % (where, m["name"],
                                                 got.get("value")))

    diag = [l for l in lines if l.startswith("# diag ")]
    if not diag:
        problems.append("%s: no diagnostics line" % where)
    else:
        values = json.loads(diag[-1][len("# diag "):])
        if values.get("gate.replies_checked", 0) < 1:
            problems.append("%s: the correctness gate checked nothing" % where)

    if trace:
        table = {}
        for line in lines:
            fields = line[2:].split("\t")
            if line.startswith("# ") and len(fields) == 4:
                table[fields[0]] = fields
        for m in wanted:
            row = table.get(m["name"])
            if row is None or row[2] != m["unit"] or not row[3].isdigit():
                problems.append("%s: %s missing from the sample-count table"
                                % (where, m["name"]))
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = run.build()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(binary, spec, workload, trace)
            print("%-13s --trace %d  %s" % (workload, trace,
                                            "ok" if not found else "FAIL"))
            problems += found
    for problem in problems:
        print("  " + problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
