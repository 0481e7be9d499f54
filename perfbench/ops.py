"""The four workloads: how an item becomes an op's input, the op itself,
and the check of its answer.

Ops call the program only through module attributes (``reduction.evolve``,
``simulation.sim_check``, ...) so that the traced run sees every call.
Each workload is a closed loop with one caller; the worker times ``op``
alone, and runs ``prepare`` and ``check`` with the clock stopped.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import random
from fractions import Fraction

from plamb import approximants, cli, reduction, simulation, syntax

import gen

SIM_KINDS = ("scaled_le", "le_scaled", "app", "omega_le", "free")
WIDE_EVERY = 5

REDUCE_FUEL = 32
REDUCE_STEPS = 4
SIM_FUEL = 24
APPROX_DEPTH = 2
APPROX_FUEL = 16
APPROX_MAX_K = 4


def parse(src):
    return syntax.parse(src, prelude={})


# ---------------------------------------------------------------------------
# reduce: evolve one program at fuel 32 and take four parallel steps


def prepare_reduce(item, pool=None):
    return parse(gen.gen_reduce_program(random.Random(item["seed"])))


def op_reduce(d):
    report = reduction.evolve(d, REDUCE_FUEL)
    trail = [d]
    for _ in range(REDUCE_STEPS):
        trail.append(reduction.step(trail[-1]))
    return report, trail


def check_reduce(d, answer):
    report, trail = answer
    for cur, nxt in zip(trail, trail[1:]):
        if nxt.mass() > cur.mass():
            return "a step increased mass"
        if not syntax.dist_leq(reduction.vals(cur), reduction.vals(nxt)):
            return "a step lost value mass"
    if report.converged != (report.residual == 0):
        return "converged flag disagrees with the residual"
    if report.values.mass() + report.residual > d.mass():
        return "evolve created mass"
    entries = d.entries()
    if len(entries) > 1:
        a, b = syntax.Dist(entries[::2]), syntax.Dist(entries[1::2])
    else:
        a = syntax.dist_scale(Fraction(1, 4), d)
        b = syntax.dist_scale(Fraction(3, 4), d)
    split = syntax.dist_union(
        reduction.evolve(a, REDUCE_FUEL).values, reduction.evolve(b, REDUCE_FUEL).values
    )
    if split != report.values:
        return "evolve is not linear over a union"
    if report.converged:
        seq = reduction.evolve_sequential(d, 4000, random.Random(len(entries)))
        if not seq.converged or seq.values != report.values:
            return "parallel and sequential schedules disagree"
    return None


# ---------------------------------------------------------------------------
# simulate: one sim_check on a generated pair


def build(spec, pool):
    """Distribution described by a spec over the universe's program pool."""
    tag = spec[0]
    if tag == "p":
        return parse(pool[spec[1]])
    if tag == "omega":
        return parse(gen.OMEGA_SRC)
    if tag == "scale":
        return syntax.dist_scale(Fraction(spec[1]), build(spec[2], pool))
    if tag == "union":
        return syntax.dist_union(build(spec[1], pool), build(spec[2], pool))
    if tag == "app":
        return syntax.unit(syntax.App(build(spec[1], pool), build(spec[2], pool)))
    raise ValueError("unknown spec %r" % (tag,))


def prepare_simulate(item, pool):
    depth = 2 if item["kind"] == "app" else 4
    return (
        item,
        build(item["left"], pool),
        build(item["right"], pool),
        simulation.SimParams(depth, SIM_FUEL),
    )


def op_simulate(check):
    _, left, right, params = check
    return simulation.sim_check(left, right, params)


def check_simulate(check, verdict):
    item = check[0]
    kind = item["kind"]
    if kind in ("scaled_le", "app", "omega_le"):
        return None if verdict.holds else "%s refuted: %r" % (kind, verdict)
    if kind == "le_scaled":
        if isinstance(verdict, simulation.Refuted) and verdict.witness.deficit > 0:
            return None
        return "m <= p*m not refuted: %r" % (verdict,)
    if gen.digest(repr(verdict)) != item["pin"]:
        return "verdict differs from the pinned one: %r" % (verdict,)
    return None


# ---------------------------------------------------------------------------
# approximate: generate approximants of one program and check each


def prepare_approximate(item, pool=None):
    return parse(item["src"]), Fraction(item["grain"])


def op_approximate(prog):
    m, grain = prog
    cands = approximants.approx_generate(m, APPROX_DEPTH, APPROX_FUEL, grain)
    accepted = []
    simulated = []
    for c in cands:
        accepted.append(
            any(approximants.approx_check(c, m, k, APPROX_FUEL) for k in range(APPROX_MAX_K + 1))
        )
        embedded = approximants.embed(c)
        params = simulation.SimParams(APPROX_DEPTH, APPROX_FUEL)
        simulated.append(simulation.sim_check(embedded, m, params).holds)
    values = reduction.evolve(m, APPROX_FUEL).values
    truncations = [truncate(values, depth) for depth in range(1, APPROX_DEPTH + 1)]
    strict = [
        not approximants.approx_check(t, m, APPROX_DEPTH, APPROX_FUEL)
        for t in truncations
        if len(t)
    ]
    return cands, values, accepted, simulated, strict


def check_approximate(prog, answer):
    _, grain = prog
    cands, values, accepted, simulated, strict = answer
    if not all(accepted):
        return "a generated candidate is not accepted at any k <= 4"
    if not all(simulated):
        return "a generated candidate is not simulated by the program"
    if not all(strict):
        return "an unrounded truncation was accepted"
    expect = {approximants.FIN_BOTTOM}
    for depth in range(APPROX_DEPTH + 1):
        expect.add(round_down(truncate(values, depth), grain.denominator))
    if set(cands) != expect:
        return "candidates differ from truncate-and-round of the values"
    return None


def truncate(d, depth):
    """Value trees cut at ``depth``; deeper structure becomes bottom."""
    return approximants.FinDist((_truncate_term(t, depth), w) for t, w in d.entries())


def _truncate_term(t, depth):
    view = reduction.whnf_view(t)
    if depth <= 0 or view is None:
        return approximants.OMEGA
    if isinstance(view, reduction.AbsView):
        return approximants.FinAbs(view.binder, truncate(view.body, depth - 1))
    return approximants.FinSpine(view.head, tuple(truncate(a, depth - 1) for a in view.args))


def round_down(c, g):
    """Every non-bottom weight moved to the grid point of 1/g strictly
    below it; entries that reach zero are dropped."""
    pairs = []
    for t, w in c.entries():
        if isinstance(t, approximants.Omega):
            pairs.append((t, w))
            continue
        r = Fraction(math.ceil(w * g) - 1, g)
        if r > 0:
            pairs.append((_round_term(t, g), r))
    return approximants.FinDist(pairs)


def _round_term(t, g):
    if isinstance(t, approximants.FinAbs):
        return approximants.FinAbs(t.binder, round_down(t.body, g))
    return approximants.FinSpine(t.head, tuple(round_down(a, g) for a in t.args))


# ---------------------------------------------------------------------------
# cli: one in-process ``plamb`` command with its output captured


def prepare_cli(item, pool=None):
    if "lift" in item:
        argv = gen.lift_argv(item)
    else:
        argv = [pool[a] if isinstance(a, int) else a for a in item["argv"]]
    return argv, item.get("pin")


def op_cli(prepared):
    argv = prepared[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_cli(prepared, answer):
    argv, pin = prepared
    code, out = answer
    if gen.digest("%d\n%s" % (code, out)) != pin:
        return "output differs from the pinned output: %s" % " ".join(argv[:1])
    if argv[0] == "lift":
        return check_lift(json.loads(argv[1]), json.loads(out))
    return None


def check_lift(inst, out):
    """Min-cut certificate: the cut outweighs its image by deficit + slack
    (slack is 0 here), and the subset oracle agrees where it ran."""
    flow = out["flow"]
    sw = dict(zip(inst["source"]["points"], map(Fraction, inst["source"]["weights"])))
    tw = dict(zip(inst["target"]["points"], map(Fraction, inst["target"]["weights"])))
    cut = set(flow["witness_cut"])
    image = {b for a, b in inst["relation"] if a in cut}
    gap = sum((sw[a] for a in cut), Fraction(0)) - sum((tw[b] for b in image), Fraction(0))
    if gap != Fraction(flow["deficit"]) or flow["holds"] == bool(cut):
        return "lift certificate does not match the deficit"
    sub = out.get("subsets")
    if sub is not None and (sub["holds"], sub["deficit"]) != (flow["holds"], flow["deficit"]):
        return "flow and subset deciders disagree"
    return None


# ---------------------------------------------------------------------------


Workload = collections.namedtuple("Workload", "prepare op check")

WORKLOADS = {
    "reduce": Workload(prepare_reduce, op_reduce, check_reduce),
    "simulate": Workload(prepare_simulate, op_simulate, check_simulate),
    "approximate": Workload(prepare_approximate, op_approximate, check_approximate),
    "cli": Workload(prepare_cli, op_cli, check_cli),
}


def op_order(items, seed):
    """The order in which a run takes the universe's items, which are
    stored in order of cost.  Op r takes the item at the r-th point of the
    base-2 van der Corput sequence, shifted by a seeded offset (the next
    unused item on a collision).  So every prefix of a run samples the
    whole cost range evenly: the heavy-tailed op costs (p90 is 10 to 15
    times p50) do not make a run's figures depend on its seed, and no item
    repeats within a run."""
    n = len(items)
    offset = random.Random(seed).random()
    used = [False] * n
    out = []
    for r in range(n):
        x, f = offset, 0.5
        while r:
            x += f * (r & 1)
            r >>= 1
            f /= 2
        p = int(x % 1.0 * n)
        while used[p]:
            p = (p + 1) % n
        used[p] = True
        out.append(items[p])
    return out
