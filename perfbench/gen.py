"""Seeded input generators and the frozen input universes of the benchmark.

Every generator here returns source text or plain JSON-able values; the
program under test only ever sees that text.  Run

    PYTHONPATH=src python3 perfbench/gen.py

to rebuild ``perfbench/data/<workload>.json``.  Building a universe runs the
program once over every item: to keep only inputs with the wanted property
(terminating programs, established premises, wide value supports), to pin
answers that have no independent known answer, and to record each item's
cost at this commit.  Items are stored in order of that cost, which only
decides how a run samples them (see ``ops.op_order``).  A universe is rebuilt only in a change
that redefines the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

GRID8 = [Fraction(i, 8) for i in range(1, 9)]
FREE_NAMES = ("u", "v", "w")
BINDERS = ("a", "b", "c")

# Programs whose evolution never converges: a pure cycle, a leak that
# halves every unfolding, and a fixpoint that never stops unfolding.
LOOPS = (
    r"(\a. a a) (\a. a a)",
    r"(\a. a a) (\a. {1/2: a a, 1/2: u})",
    r"(\z. \f. f (z z f)) (\z. \f. f (z z f)) (\a. {1/3: v, 2/3: a})",
)

OMEGA_SRC = r"(\a. a a) (\a. a a)"

# An op slower than this at the defining commit is kept out of the timed
# items and listed under "excluded" with its time, because one such op
# would decide a whole run's figures.
MAX_OP_S = 2.0

# ---------------------------------------------------------------------------
# Term text


def atom(text):
    """Operand text: a bare name, or the distribution in parentheses."""
    if text.isidentifier():
        return text
    return "(%s)" % text


def dist_text(entries):
    """Concrete syntax of a list of (weight, term text) entries."""
    if len(entries) == 1 and entries[0][0] == 1:
        return entries[0][1]
    return "{%s}" % ", ".join("%s: %s" % (w, t) for w, t in entries)


def gen_term(rng, depth, bound=()):
    kinds = ["var"]
    if depth > 0:
        kinds += ["abs", "abs", "app", "app"]
    kind = rng.choice(kinds)
    if kind == "var":
        return rng.choice(tuple(bound) + FREE_NAMES)
    if kind == "abs":
        b = rng.choice(BINDERS)
        return "\\%s. %s" % (b, gen_dist(rng, depth - 1, tuple(bound) + (b,)))
    fun = gen_dist(rng, depth - 1, bound)
    arg = gen_dist(rng, depth - 1, bound)
    return "%s %s" % (atom(fun), atom(arg))


def gen_entries(rng, depth, bound=()):
    n = rng.choice((1, 1, 1, 2, 2, 3))
    entries = [(rng.choice(GRID8), gen_term(rng, depth, bound)) for _ in range(n)]
    total = sum(w for w, _ in entries)
    if total > 1:
        entries = [(w / total, t) for w, t in entries]
    return entries


def gen_dist(rng, depth, bound=()):
    return dist_text(gen_entries(rng, depth, bound))


def gen_reduce_program(rng):
    """Criterion-9 style program of depth 3; one in six also carries a
    quarter of its mass on a non-terminating loop."""
    entries = gen_entries(rng, 3)
    if rng.randrange(6) == 0:
        scale = Fraction(3, 4)
        entries = [(w * scale, t) for w, t in entries]
        entries.append((Fraction(1, 4), rng.choice(LOOPS)))
    return dist_text(entries)


def gen_value(rng, depth):
    """A weak head normal form: an abstraction or an open spine."""
    if rng.randrange(2):
        b = rng.choice(BINDERS)
        return "\\%s. %s" % (b, gen_dist(rng, depth - 1, (b,)))
    head = rng.choice(FREE_NAMES)
    args = [atom(gen_dist(rng, depth - 1)) for _ in range(rng.randrange(3))]
    return " ".join([head] + args)


def gen_wide_program(rng, width):
    """``width`` value entries of equal weight on a 1/64 grid, each
    reached by one beta step, so rounding at grain 1/64 keeps them all."""
    w = Fraction(rng.randint(2, 64 // width), 64)
    entries = []
    for _ in range(width):
        v = gen_value(rng, 2)
        if rng.randrange(2):
            v = r"(\c. %s) u" % atom(v)
        entries.append((w, v))
    return dist_text(entries)


def gen_lift_instance(rng, points):
    """A lifting instance of ``points`` points split between the sides."""
    ns = rng.randint(points // 3, points - points // 3)
    nt = points - ns
    den = rng.choice((8, 16, 64))

    def weights(n):
        ws = [Fraction(rng.randint(1, den), den) for _ in range(n)]
        total = sum(ws)
        return [w / total for w in ws] if total > 1 else ws

    sw, tw = weights(ns), weights(nt)
    density = rng.choice((0.15, 0.35, 0.6, 0.9))
    relation = [
        ["s%d" % i, "t%d" % j]
        for i in range(ns)
        for j in range(nt)
        if rng.random() < density
    ]
    return {
        "source": {"points": ["s%d" % i for i in range(ns)], "weights": [str(w) for w in sw]},
        "target": {"points": ["t%d" % j for j in range(nt)], "weights": [str(w) for w in tw]},
        "relation": relation,
    }


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


# ---------------------------------------------------------------------------
# Universe builders (run the program; only used when rebuilding the data)


class Meter:
    """Times ops for their cost: the median of three timings, each scaled
    to the gauge speed the worker reports times at, with the gauge timed
    again after every quarter second.  An op slower than MAX_OP_S is timed
    once."""

    def __init__(self):
        import worker

        self.worker = worker
        self.gauge = worker.gauge_time()
        self.since = 0.0

    def timed(self, fn, reps=3):
        out = None
        costs = []
        for _ in range(reps):
            if self.since >= self.worker.GAUGE_EVERY_S:
                self.gauge = self.worker.gauge_time()
                self.since = 0.0
            t0 = time.perf_counter()
            res = fn()
            dt = time.perf_counter() - t0
            self.since += dt
            costs.append(dt * self.worker.GAUGE_S / self.gauge)
            out = res if out is None else out
            if costs[0] > MAX_OP_S:
                break
        return out, sorted(costs)[len(costs) // 2]


def _terminating(rng, depth, fuel, tries=50):
    from plamb.reduction import evolve
    from plamb.syntax import parse

    for _ in range(tries):
        src = gen_dist(rng, depth)
        d = parse(src, prelude={})
        if evolve(d, fuel).converged and d.mass() > 0:
            return src
    raise RuntimeError("no terminating program within %d tries" % tries)


def build_reduce(meter, n, first):
    import ops

    items = []
    for i in range(n):
        seed = first + i
        prog = ops.prepare_reduce({"seed": seed})
        _, cost = meter.timed(lambda: ops.op_reduce(prog))
        items.append({"seed": seed, "cost": cost})
    return items


def build_simulate(meter, n, first):
    """Pool of terminating programs plus one check per item, in five kinds
    taken in turn: p*m <= m, m <= p*m, application pairs from premises
    established at depth 4, omega <= m, and unconstrained pairs."""
    import ops

    rng = random.Random(first)
    pool = [_terminating(rng, 2, 24) for _ in range(n // 2)]
    items = []
    for i in range(n):
        r = random.Random(first + 1 + i)
        kind = ops.SIM_KINDS[i % len(ops.SIM_KINDS)]
        m = r.randrange(len(pool))
        if kind == "scaled_le":
            item = {"left": ["scale", "1/2", ["p", m]], "right": ["p", m]}
        elif kind == "le_scaled":
            item = {"left": ["p", m], "right": ["scale", "3/4", ["p", m]]}
        elif kind == "omega_le":
            item = {"left": ["omega"], "right": ["p", m]}
        elif kind == "free":
            item = {"left": ["p", m], "right": ["p", r.randrange(len(pool))]}
        else:
            item = _established_app(r, pool)
        item["kind"] = kind
        items.append(item)
    for item in items:
        check = ops.prepare_simulate(item, pool)
        verdict, cost = meter.timed(lambda: ops.op_simulate(check))
        item["cost"] = cost
        if item["kind"] == "free":
            item["pin"] = digest(repr(verdict))
    return {"pool": pool, "items": items}


def _established_app(r, pool):
    """Criterion 7: an application pair whose premises m1 <= m2 and
    n1 <= n2 hold exactly at depth 4."""
    import ops
    from plamb.simulation import SimParams, sim_check

    for _ in range(400):
        m0, n0, other = (["p", r.randrange(len(pool))] for _ in range(3))
        style = r.randrange(4)
        if style == 0:
            m1, m2, n1, n2 = ["scale", "1/2", m0], m0, n0, n0
        elif style == 1:
            m1, m2, n1, n2 = m0, m0, ["scale", "3/4", n0], n0
        elif style == 2:
            m1 = ["scale", "1/2", m0]
            m2 = ["union", m1, ["scale", "1/2", n0]]
            n1, n2 = n0, n0
        else:
            m1, m2, n1, n2 = m0, other, ["scale", "1/2", n0], n0
        params = SimParams(4, 24)
        pm = sim_check(ops.build(m1, pool), ops.build(m2, pool), params)
        pn = sim_check(ops.build(n1, pool), ops.build(n2, pool), params)
        if pm.holds and pm.exact and pn.holds and pn.exact:
            return {"left": ["app", m1, n1], "right": ["app", m2, n2]}
    raise RuntimeError("no established premises within 400 tries")


def build_approximate(meter, n, first):
    """Criterion-8 programs of depth 3, and every fifth item a program
    with 10 to 12 value entries at grain 1/64."""
    import ops

    items = []
    for i in range(n):
        r = random.Random(first + i)
        if i % ops.WIDE_EVERY == ops.WIDE_EVERY - 1:
            item = {"src": _wide(r, r.randint(10, 12)), "grain": "1/64"}
        else:
            item = {"src": _terminating(r, 3, 16), "grain": "1/8"}
        prog = ops.prepare_approximate(item)
        answer, cost = meter.timed(lambda: ops.op_approximate(prog))
        bad = ops.check_approximate(prog, answer)
        if bad:
            raise RuntimeError("approximate item %d fails its laws: %s" % (i, bad))
        item["cost"] = cost
        items.append(item)
    return items


def _wide(rng, width, tries=50):
    # alpha-equivalent values would merge, so keep drawing until none do
    from plamb.reduction import evolve
    from plamb.syntax import parse

    for _ in range(tries):
        src = gen_wide_program(rng, width)
        if len(evolve(parse(src, prelude={}), 16).values) == width:
            return src
    raise RuntimeError("no program of width %d within %d tries" % (width, tries))


def cli_commands(first, n_pairs, n_lift):
    """Every single-operand command over the corpus, seeded sim/bisim
    pairings, and lift instances of 8 to 40 points in JSON.  An integer
    operand indexes the corpus sources stored with the universe; a lift
    instance is kept as the seed and size it is generated from."""
    from plamb.corpus import CORPUS_SOURCES

    cmds = []
    for i in range(len(CORPUS_SOURCES)):
        cmds.append(["eval", i, "--fuel", "32"])
        cmds.append(["eval", i, "--fuel", "16", "--format", "json"])
        cmds.append(["trace", i, "--fuel", "12"])
        cmds.append(["lts", i, "--fuel", "16"])
        cmds.append(["normalize", i, "--fuel", "16"])
        cmds.append(["approx", i, "--depth", "2", "--fuel", "16", "--grain", "1/8"])
    rng = random.Random(first)
    for _ in range(n_pairs):
        a, b = rng.randrange(len(CORPUS_SOURCES)), rng.randrange(len(CORPUS_SOURCES))
        cmds.append([rng.choice(("sim", "bisim")), a, b, "--depth", "3", "--fuel", "16"])
    items = [{"argv": argv} for argv in cmds]
    for i in range(n_lift):
        items.append({"lift": first + 1 + i, "points": rng.randint(8, 40)})
    return list(CORPUS_SOURCES), items


def cli_warmup_commands(first, n):
    """Commands over generated programs and lift instances only, so that
    no warm-up input is also a timed one."""
    rng = random.Random(first)
    items = []
    for i in range(n):
        prog = gen_reduce_program(rng)
        items.append({"argv": [("eval", "lts", "approx")[i % 3], prog, "--fuel", "16"]})
        items.append({"lift": first + 1 + i, "points": rng.randint(8, 40)})
    return items


def lift_argv(item):
    inst = gen_lift_instance(random.Random(item["lift"]), item["points"])
    return ["lift", json.dumps(inst, separators=(",", ":")), "--format", "json"]


def build_cli(meter, pool, items):
    import ops

    kept = []
    for item in items:
        prepared = ops.prepare_cli(item, pool)
        (code, out), cost = meter.timed(lambda: ops.op_cli(prepared))
        if code == 2:
            continue  # a usage or data error is not an answer worth timing
        item.update(cost=cost, pin=digest("%d\n%s" % (code, out)))
        kept.append(item)
    return kept


def universe(items, warmup, **extra):
    """The universe file's content: the timed items in order of cost, the
    warm-up items, and the items left out for being too slow."""
    kept = sorted((it for it in items if it["cost"] <= MAX_OP_S), key=lambda it: it["cost"])
    excluded = [dict(it, cost=round(it["cost"], 2)) for it in items if it["cost"] > MAX_OP_S]
    for it in kept + warmup:
        del it["cost"]
    return dict(extra, items=kept, warmup=warmup, excluded=excluded)


def build_universe(name):
    # warm-up inputs come from generator seeds disjoint from the timed ones
    meter = Meter()
    if name == "reduce":
        return universe(build_reduce(meter, 6000, 1_000_000), build_reduce(meter, 16, 9_000_000))
    if name == "simulate":
        main_u = build_simulate(meter, 5000, 4_000_000)
        warm = build_simulate(meter, 10, 9_300_000)
        return universe(main_u["items"], warm["items"],
                        pool=main_u["pool"], warmup_pool=warm["pool"])
    if name == "approximate":
        return universe(build_approximate(meter, 1600, 2_000_000),
                        build_approximate(meter, 8, 9_100_000))
    pool, items = cli_commands(3_000_000, 3600, 2000)
    return universe(build_cli(meter, pool, items),
                    build_cli(meter, None, cli_warmup_commands(9_200_000, 6)), pool=pool)


def main():
    sys.path.insert(0, HERE)
    os.makedirs(DATA, exist_ok=True)
    for name in sys.argv[1:] or ["reduce", "simulate", "approximate", "cli"]:
        t0 = time.perf_counter()
        data = build_universe(name)
        with open(os.path.join(DATA, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print("%s: %d items, %d excluded, in %.1fs"
              % (name, len(data["items"]), len(data["excluded"]), time.perf_counter() - t0))


if __name__ == "__main__":
    main()
