#!/usr/bin/env python3
"""Repository benchmark: build the simulator, replay one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload canneal-fig13 --seed 42 \
        --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
(see perfbench/README.md).  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Everything the run
writes -- the Release build, the graph caches, the per-run result files
with provenance -- stays under .bench_build/ in the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")
GRAPH_CACHE = os.path.join(WORK_DIR, "graph_cache")
COLD_CACHE = os.path.join(WORK_DIR, "graph_cold")
RESULTS_DIR = os.path.join(WORK_DIR, "results")

# A run must finish inside 180 s; children get what is left of it.
RUN_DEADLINE_S = 170.0

# Set-up samples per run.  A cold shared-graph build takes ~11 s, so
# graph workloads take fewer; trace generation alone is cheap.
SETUP_REPS = 9
COLD_GRAPH_REPS = 3



def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload BENCHMARK.json names")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--records", type=int, default=0,
                   help="override the workload's trace length "
                        "(self-check only; changes the sim figures)")
    p.add_argument("--setup-reps", type=int, default=0,
                   help="set-up samples per run (median reported); "
                        "default %d for graph workloads, else %d"
                        % (COLD_GRAPH_REPS, SETUP_REPS))
    p.add_argument("--corrupt-stat", default="",
                   help="self-check seam: perturb this simulated stat in "
                        "every untraced cell (--trace 0) or traced replica "
                        "(--trace 1), so the run must report failures")
    return p.parse_args()


def pinned_env():
    """The environment every benchmark process runs under.

    Every RMCC_* variable of the calling shell is dropped and the knobs
    that change what runs are pinned, so the measured program is the
    same whatever the shell set.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("RMCC_")}
    env.update({
        "RMCC_OBS": "off",
        "RMCC_TRACE_SPILL": "off",
        "RMCC_TRACE_DIR": os.path.join(WORK_DIR, "traces"),
        "RMCC_CRYPTO_IMPL": "auto",
        "RMCC_CRYPTO_BATCH": "auto",
        "RMCC_RECOVERY": "off",
        "RMCC_TENANTS": "1",
        "RMCC_JOBS": "1",
        "RMCC_GRAPH_CACHE": "1",
        "RMCC_GRAPH_CACHE_DIR": GRAPH_CACHE,
        "RMCC_LOG_LEVEL": "warn",
        "TMPDIR": os.path.join(WORK_DIR, "tmp"),
    })
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def run_child(cmd, env, deadline, cpu=None):
    """Run a child to completion; return its stdout's last line.

    cpu pins the child to one CPU; set-up samples rotate over the CPUs
    for the reason CpuRotation in perfbench.cpp gives.
    """
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=remaining(deadline), preexec_fn=pin)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("no output: " + " ".join(cmd))
    return lines[-1]


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found under " + ROOT)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def setup_sample(args, env, cache_dir, deadline, cpu):
    child_env = dict(env, RMCC_GRAPH_CACHE_DIR=cache_dir)
    cmd = [BINARY, "--mode", "setup", "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.records:
        cmd += ["--records", str(args.records)]
    return json.loads(run_child(cmd, child_env, deadline, cpu))


def measure_setup(args, env, deadline):
    """Set-up time of fresh processes, each from an empty graph cache.

    The last cold sample's graph file then seeds the warm cache that the
    measuring process loads.  A traced run of a graph workload also
    times that load, in fresh processes.
    """
    cpus = sorted(os.sched_getaffinity(0))

    def sample(i, cache_dir):
        return setup_sample(args, env, cache_dir, deadline,
                            cpus[i % len(cpus)])

    def cold_sample(i):
        shutil.rmtree(COLD_CACHE, ignore_errors=True)
        os.makedirs(COLD_CACHE)
        return sample(i, COLD_CACHE)

    cold = [cold_sample(0)]
    graph = cold[0]["graph"]
    reps = args.setup_reps or (COLD_GRAPH_REPS if graph else SETUP_REPS)
    cold += [cold_sample(i) for i in range(1, reps)]
    os.makedirs(GRAPH_CACHE, exist_ok=True)
    for name in os.listdir(COLD_CACHE):
        os.replace(os.path.join(COLD_CACHE, name),
                   os.path.join(GRAPH_CACHE, name))
    shutil.rmtree(COLD_CACHE, ignore_errors=True)
    cached = []
    if graph and args.trace:
        cached = [sample(i, GRAPH_CACHE) for i in range(reps)]
    return cold, cached


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def source_digest():
    """SHA-256 over the benchmark and simulator sources (provenance)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    args = parse_args()
    # Raising on SIGTERM makes subprocess.run kill and reap the running
    # child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = pinned_env()
    try:
        build(env)
        # Only measurement counts against the run's time; the build may
        # take the whole first-run allowance.
        deadline = time.monotonic() + RUN_DEADLINE_S
        cold, cached = measure_setup(args, env, deadline)
        cmd = [BINARY, "--mode", "trace" if args.trace else "run",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
        if args.records:
            cmd += ["--records", str(args.records)]
        if args.corrupt_stat:
            cmd += ["--corrupt-stat", args.corrupt_stat]
        result = json.loads(run_child(cmd, env, deadline))
    except (BenchError, OSError, ValueError) as e:
        log("error: %s" % e)
        return 1

    records = cold[0]["records"]
    metrics = result["metrics"]
    if args.trace:
        graph = cold[0]["graph"]
        setup_metrics = {
            "workloads.graph_build_s":
                metric(median_of(cold, "graph_s") if graph else 0.0, "s"),
            "workloads.graph_load_s":
                metric(median_of(cached, "graph_s") if graph else 0.0, "s"),
            "workloads.trace_gen_ns_per_rec":
                metric(median_of(cold, "trace_gen_s") * 1e9 / records,
                       "ns/rec"),
        }
    else:
        setup_metrics = {"setup_s": metric(statistics.median(
            s["graph_s"] + s["trace_gen_s"] for s in cold), "s")}
    metrics = dict(setup_metrics, **metrics)

    provenance = dict(result["provenance"], commit=git_commit(),
                      source_sha256=source_digest(), seed=args.seed,
                      workload=args.workload, trace=args.trace,
                      seconds=args.seconds, records=records)
    for failure in result["failures"]:
        log("FAILED " + failure)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump({"provenance": provenance, "failures": result["failures"],
                   "setup_samples": {"cold": cold, "cached": cached},
                   "metrics": metrics}, f, indent=1)
    print("provenance: " + json.dumps(provenance))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
