"""Benchmark of the plamb workbench.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  W is one of ``reduce``, ``simulate``,
``approximate`` and ``cli`` (see ``perfbench/README.md`` for what each one
does and why it was chosen).  Each workload runs in its own
single-threaded process, a closed loop with one caller, started with
``PYTHONHASHSEED`` pinned.  Every op's answer is checked with the clock
stopped.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median over several
  set-ups), ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and
  ``peak_rss_mib``;
* ``--trace 1``: the per-layer metrics of a traced process, next to an
  untraced one on the same inputs for the tracing overhead.

The lines before it print the same figures for a reader, with units,
sample counts and ``failed_ops_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("reduce", "simulate", "approximate", "cli")
# set iteration order inside the flow engine follows the hash seed
HASH_SEED = "0"
# processes that only set up, besides the measured one; setup_s is the
# median over all of them
SETUP_REPEATS = 4
DEADLINE_S = 170.0
MIN_TAIL = 10


def worker_env():
    env = dict(os.environ)
    env.pop("PLAMB_PRELUDE", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(args, seconds, trace, deadline, setup_only=False):
    t0 = time.time()
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        timeout=max(deadline - time.time(), 1.0), check=True,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def latency_metrics(res):
    lat = res["latencies"]
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "ops_per_s": (len(lat) / res["timed_scaled_s"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
    }


def describe(label, res):
    """Lines for a reader: op counts, failures, samples and the gauge."""
    lat = res["latencies"]
    p90 = statistics.quantiles(lat, n=10)[8]
    g = res["gauge_s"]
    lines = [
        "%s: %d attempted, %d completed, %d failed, failed_ops_ratio %.6f"
        % (label, res["attempted"], len(lat), res["failed"], res["failed"] / max(res["attempted"], 1)),
        "%s: %d latency samples, %d beyond p90; unscaled ops_per_s %.6g"
        % (label, len(lat), sum(1 for x in lat if x > p90), len(lat) / res["timed_s"]),
        "%s: gauge %d times, median %.3f ms (range %.3f to %.3f)"
        % (label, len(g), statistics.median(g) * 1e3, min(g) * 1e3, max(g) * 1e3),
    ]
    lines.extend("%s: FAILED: %s" % (label, msg) for msg in res["failures"])
    if res["exhausted"]:
        lines.append("%s: WARNING: the input universe ran out before the time did" % label)
    if len(lat) < 10 * MIN_TAIL:
        lines.append("%s: WARNING: fewer than %d latency samples" % (label, 10 * MIN_TAIL))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "plamb", "__init__.py")):
        print("error: src/plamb not found under %s; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    deadline = time.time() + DEADLINE_S
    print("workload %s  seed %d  seconds %g  trace %d  PYTHONHASHSEED=%s"
          % (args.workload, args.seed, args.seconds, args.trace, HASH_SEED))

    if args.trace == 0:
        res = run_worker(args, args.seconds, 0, deadline)
        setups = [res] + [run_worker(args, args.seconds, 0, deadline, setup_only=True)
                          for _ in range(SETUP_REPEATS)]
        metrics = {"setup_s": (statistics.median(r["setup_s"] for r in setups), "s")}
        metrics.update(latency_metrics(res))
        metrics["peak_rss_mib"] = (res["peak_rss_mib"], "MiB")
        runs = [res]
        notes = describe("ops", res)
        notes.append("setup_s: median of %d set-ups, scaled %s, unscaled %s" % (
            len(setups),
            " ".join("%.3f" % r["setup_s"] for r in setups),
            " ".join("%.3f" % r["setup_raw_s"] for r in setups)))
    else:
        # equal halves: untraced, then traced, on the same seeded inputs
        half = args.seconds / 2.0
        plain = run_worker(args, half, 0, deadline)
        traced = run_worker(args, half, 1, deadline)
        plain_rate = latency_metrics(plain)["ops_per_s"][0]
        traced_rate = latency_metrics(traced)["ops_per_s"][0]
        metrics = {
            "trace.overhead_ratio": (traced_rate / plain_rate, "ratio"),
            "trace.ops_per_s": (traced_rate, "1/s"),
            "trace.untraced_ops_per_s": (plain_rate, "1/s"),
            "syntax.parse.prepare_s": (traced["prepare_s_per_op"], "s/op"),
        }
        metrics.update((k, tuple(v)) for k, v in traced["layers"].items())
        runs = [plain, traced]
        notes = describe("untraced", plain) + describe("traced", traced)
        notes.append("spans: .perfbench/spans-%s-seed%d.json" % (args.workload, args.seed))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
