#!/usr/bin/env python3
"""Smoke test of the serving benchmark itself, at tiny sizes.

    python3 servebench/smoke_test.py

Run from the repository root. Checks that
  * every workload runs untraced and traced (those BENCHMARK.json names, and
    churn_hotspot, which the benchmark keeps runnable on demand), and its
    JSON result holds exactly the end-to-end (untraced) or per-layer (traced)
    metrics BENCHMARK.json names, with the units it names;
  * every such metric is also printed as a "name value unit" line;
  * the correctness gate trips, with a nonzero exit and no result, when the
    benchmark is given a deliberately wrong reference.
Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("point_mix", "mc_disk", "churn_hotspot")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    missing = {w["name"] for w in bench["workloads"]} - set(WORKLOADS)
    if missing:
        fail("workloads not smoke-tested: %s" % sorted(missing))
    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(name, trace)
            if code != 0 or not lines:
                fail("%s trace %d exited %d" % (name, trace, code))
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s trace %d: result keys %s" % (name, trace, sorted(result)))
            if result["correct"] is not True or result["attempted"] < 1:
                fail("%s trace %d: correct/attempted %s" % (name, trace, result))
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("%s trace %d: metrics differ: missing %s, extra %s, units %s" % (
                    name, trace, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in want if k in got and got[k] != want[k])))
            printed = {l.split()[0] for l in lines[:-1] if len(l.split()) == 3}
            if not set(want) <= printed:
                fail("%s trace %d: no line for %s" % (name, trace, sorted(set(want) - printed)))
            print("ok   %s trace %d: %d metrics" % (name, trace, len(got)))
    for name in WORKLOADS:
        code, lines = run(name, 0, "--wrong-reference")
        if code == 0 or (lines and lines[-1].startswith("{")):
            fail("%s: the gate accepted a wrong reference (exit %d)" % (name, code))
        print("ok   %s: wrong reference rejected (exit %d)" % (name, code))
    print("PASS")


if __name__ == "__main__":
    main()
