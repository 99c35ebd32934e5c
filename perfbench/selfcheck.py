#!/usr/bin/env python3
"""Tiny-size self-check of the repository benchmark.

Run from the repository root (takes about a minute, most of it one cold
shared-graph build):

    python3 perfbench/selfcheck.py

It checks that
  * every workload emits exactly the metrics BENCHMARK.json names, each
    with its unit: the end-to-end ones with --trace 0 (all nonzero), the
    per-layer ones with --trace 1;
  * every cell's simulated stats are bit-identical between repeats and
    between the untraced cell and its traced replica (no failed
    operation in any run);
  * a stat corrupted through the benchmark's --corrupt-stat seam is
    counted as a failed operation, both by the conservation identities
    (untraced) and by the traced-vs-untraced comparison.
Exit status 0 iff every check holds.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--records", "50000", "--seconds", "0.2", "--setup-reps", "1"]


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd + TINY + list(extra), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = "%s --trace %d" % (workload, trace)
            res = bench(workload, trace)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s: %d of %d operations failed" % (
                    tag, res["failed"], res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics/units differ from "
                                "BENCHMARK.json: %s" % (
                                    tag, sorted(set(got.items()) ^
                                                set(want[trace].items()))))
            for name, m in res["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s = %r" % (tag, name, v))
                elif trace == 0 and v == 0:
                    problems.append("%s: %s is 0" % (tag, name))
            print("ok " if not problems else ".. ", tag, flush=True)

    # The seam: an identity stat broken in every untraced cell, and a
    # stat no identity covers broken only in the traced replica.
    for trace, stat in ((0, "ctr.l0_hit"), (1, "time.elapsed_ns")):
        res = bench("canneal-fig13", trace, "--corrupt-stat", stat)
        tag = "canneal-fig13 --trace %d --corrupt-stat %s" % (trace, stat)
        if res["correct"] or res["failed"] < 1:
            problems.append("%s: corruption not counted (%d of %d failed)"
                            % (tag, res["failed"], res["attempted"]))
        print("ok " if res["failed"] >= 1 else "BAD", tag, flush=True)

    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
