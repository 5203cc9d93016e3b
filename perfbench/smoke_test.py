#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny scale, untraced and traced,
and asserts that each run passes its correctness checks, prints every
end-to-end (untraced) or per-layer (traced) metric by name with its unit
and sample count, reports fail_frac with both counts, and ends with the
one-line JSON result.  Exits 0 when every assertion holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = {
    "ler_sparse": ["windows_per_sec"],
    "ler_grid": ["windows_per_sec"],
    "serve_tenants": ["req_per_sec", "latency_ms_p99"],
}


def check_run(spec, workload, trace):
    command = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    problems = []
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    human = lines[:-1]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("checks failed: %s" % lines[-1])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted %r" % result["attempted"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append("metric names differ from BENCHMARK.json")
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        value = got.get("value")
        if got.get("unit") != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or (not trace and value <= 0):
            problems.append("metric %s = %r" % (name, got))
        printed = [line for line in human
                   if line.split() and line.split()[0] == name]
        if (not printed or unit not in printed[0].split()
                or " n=" not in printed[0]):
            problems.append("metric %s not printed with unit and sample count"
                            % name)
    if not any(line.split()[0] == "fail_frac" and "attempted=" in line
               for line in human if line.split()):
        problems.append("fail_frac not printed with its counts")
    checks = [line for line in human if line.strip().startswith("check ")]
    if not checks or any(" FAIL " in line + " " for line in checks):
        problems.append("correctness checks missing or failing")
    if not trace:
        for name in WORKLOAD_NAMES[workload]:
            if not any(name in line for line in human):
                problems.append("%s not printed" % name)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print("%-14s trace=%d %s" % (workload, trace,
                                         "ok" if not problems else "FAIL"))
            for problem in problems:
                print("    " + problem)
            failures += len(problems)
    print("smoke_test.py: %s" % ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
