"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --runs 10 [--workloads reduce,cli] [--trace]
                                 [--first-seed 1] [--out perfbench/results.json]

For every workload, runs ``run.py`` once per seed (seeds first-seed,
first-seed+1, ...), one process at a time, and reports for each metric the
median, the quartiles and the quartile spread as a share of the median,
next to the bound in ``BENCHMARK.json``.  ``--trace`` adds one traced run
per workload, on the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for wl in args.workloads.split(","):
        runs = [run_once(wl, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        entry = {
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {},
        }
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            entry["metrics"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print("%-12s %-14s median %10.4g  spread %.3f  bound %.2f%s"
                  % (wl, name, s["median"], s["spread"], bounds[name], flag))
        if args.trace:
            traced = run_once(wl, args.first_seed, args.seconds, 1)
            entry["traced_seed"] = args.first_seed
            entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary[wl] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
