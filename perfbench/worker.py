"""One workload process: set up, run the closed loop for the given time,
check every answer, and print a JSON summary as the last line.

Started by ``run.py`` with ``PYTHONHASHSEED`` pinned and ``src`` on the
path; ``--t0`` is the wall-clock time just before the process was started,
so ``setup_s`` covers interpreter start, imports, loading the universe,
preparing the first inputs and the warm-up.

The speed of a shared host drifts by tens of percent over tens of
seconds.  So the worker times a fixed gauge (``gauge``, pure Python with
the program's instruction mix and no call into it) after set-up and after
every quarter second of op time, and scales each time it reports by
``GAUGE_S`` over the gauge time around it.  Reported times are therefore
times at the speed at which the gauge takes ``GAUGE_S``; the unscaled
figures are reported too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Inputs are prepared (parsed) in chunks with the clock stopped; setup
# prepares the first chunk.
CHUNK = 64
MAX_FAILURES_SHOWN = 5
# gauge time at the nominal speed of the host the benchmark was tuned on
GAUGE_S = 0.007
GAUGE_EVERY_S = 0.25


def gauge():
    """Fixed work with the program's instruction mix: exact fractions,
    nested tuple keys, hashing, dictionary merging and sorting."""
    acc = {}
    for i in range(1, 250):
        w = Fraction(i % 7 + 1, i % 11 + 3)
        key = ("l", ("d", (("b", i % 5), w)), i % 13)
        acc[key] = acc.get(key, 0) + w
    return sorted(acc.items())


def gauge_time():
    """Median of three timed gauge runs."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        gauge()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def load_universe(name):
    with open(os.path.join(HERE, "data", name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import ops

    wl = ops.WORKLOADS[args.workload]
    uni = load_universe(args.workload)
    pool = uni.get("pool")
    items = ops.op_order(uni["items"], args.seed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    prepared = []
    prepare_s = 0.0

    def prepare_upto(n):
        nonlocal prepare_s
        t0 = perf_counter()
        while len(prepared) < min(n, len(items)):
            prepared.append(wl.prepare(items[len(prepared)], pool))
        prepare_s += perf_counter() - t0

    prepare_upto(CHUNK)
    for item in uni["warmup"]:
        wl.op(wl.prepare(item, uni.get("warmup_pool")))
    setup_raw = time.time() - args.t0
    marks = [(0, gauge_time())]  # (ops completed, gauge time)
    setup_s = setup_raw * GAUGE_S / marks[0][1]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    latencies = []
    failures = []
    attempted = 0
    timed = 0.0
    since_gauge = 0.0
    while timed < args.seconds and attempted < len(items):
        if since_gauge >= GAUGE_EVERY_S:
            marks.append((len(latencies), gauge_time()))
            since_gauge = 0.0
        if attempted == len(prepared):
            prepare_upto(attempted + CHUNK)
        x = prepared[attempted]
        prepared[attempted] = None
        attempted += 1
        if tracer is not None:
            tracer.op = attempted
            tracer.on = True
        t0 = perf_counter()
        try:
            answer = wl.op(x)
        except Exception as exc:  # an op that raises counts as failed
            dt = perf_counter() - t0
            timed += dt
            since_gauge += dt
            failures.append("raised %s: %s" % (type(exc).__name__, exc))
            continue
        finally:
            if tracer is not None:
                tracer.on = False
        dt = perf_counter() - t0
        timed += dt
        since_gauge += dt
        latencies.append(dt)
        if tracer is not None and args.workload == "cli":
            tracer.n["output_bytes"] += len(answer[1])
        try:
            bad = wl.check(x, answer)
        except Exception as exc:
            bad = "check raised %s: %s" % (type(exc).__name__, exc)
        if bad:
            failures.append(bad)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    marks.append((len(latencies), gauge_time()))
    scaled = []
    for (a, g0), (b, g1) in zip(marks, marks[1:]):
        f = GAUGE_S * 2 / (g0 + g1)
        scaled.extend(x * f for x in latencies[a:b])

    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "timed_s": timed,
        "timed_scaled_s": timed * sum(scaled) / sum(latencies) if latencies else timed,
        "latencies": scaled,
        "gauge_s": [g for _, g in marks],
        "exhausted": attempted == len(items) and timed < args.seconds,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "prepare_s_per_op": prepare_s / max(len(prepared), 1),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(len(latencies))
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
