#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its result line.

    python3 perfbench/run.py --workload fedtrans-table2 --seed 1 \
        --seconds 28 --trace 0

Run from the repository root. Builds the `perfbench` binary (library
included) from source into .bench_build/perfbench on first use, runs it
(it pins the library's thread pool to 2 threads) and prints, as the last
line of stdout, one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, from a run that
records a wall-clock trace and rolls it up with rollup.py. README.md defines
every metric and workload.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import rollup  # noqa: E402  (the roll-up lives beside this script)

WORKLOADS = ("fedtrans-table2", "fedavg-pop-tree", "fedbuff-async-f16")


def metric_units(section):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; returns its path. Serialized with a
    lock file so concurrent runs in one checkout share one build."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    trace_file = None
    if a.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, f"{a.workload}-{a.seed}-{os.getpid()}.json")
        cmd += ["--trace-out", trace_file]
    # No FEDTRANS_* setting (tracing, logging, run reports) may leak in.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FEDTRANS_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    log("perfbench: " + json.dumps({k: raw[k] for k in
                                 ("correct", "checks", "sessions",
                                  "timed_rounds")}))

    if a.trace:
        spans = rollup.load_spans(trace_file)
        os.remove(trace_file)
        raw["per_layer"].update(rollup.layer_metrics(
            spans, raw["per_layer"]["traced_rounds"], raw["threads"]))
        wanted = metric_units("per_layer")
        section = {**raw["end_to_end"], **raw["per_layer"]}
    else:
        wanted = metric_units("end_to_end")
        section = raw["end_to_end"]
    missing = sorted(set(wanted) - set(section))
    if missing:
        log(f"perfbench did not report {missing}")
        return 1
    # perfbench writes a non-finite figure as null; no result carries one.
    non_finite = sorted(k for k in wanted
                        if not isinstance(section[k], (int, float))
                        or not math.isfinite(section[k]))
    if non_finite:
        log(f"perfbench reported non-finite {non_finite}")
        return 1
    metrics = {name: {"value": section[name], "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
