#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload fedavg-pop-tree]
                                [--seconds 28] [--trace 1] [--out r.json]

For every workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartile as a share of
that median (statistics.quantiles(values, n=4)), next to the bound in
BENCHMARK.json — the figure a run-to-run comparison is judged against.
With --trace 1 it does the same for the per-layer metrics, which have no
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = a.workload or [w["name"] for w in bench["workloads"]]
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound")
              for m in bench["per_layer" if a.trace else "end_to_end"]}

    results = {}
    for name in names:
        runs = []
        for seed in a.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(a.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            runs.append(res)
            print(f"{name} seed {seed}: correct={res['correct']}",
                  file=sys.stderr, flush=True)
        results[name] = runs
        print(f"\n{name} ({len(runs)} seeds, "
              f"{sum(r['correct'] for r in runs)} correct)")
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in runs]
            iqr, med = spread(vals)
            bound = bounds[metric]
            if bound is None:
                print(f"  {metric:30s} median {med:12.6g}  iqr/median "
                      f"{iqr:7.4f}")
                continue
            flag = "" if iqr <= bound / 3 else (
                "  > bound/3" if iqr <= bound else "  > BOUND")
            print(f"  {metric:18s} median {med:12.6g}  iqr/median "
                  f"{iqr:7.4f}  bound {bound:.2f}{flag}")
    if a.out:
        with open(a.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
