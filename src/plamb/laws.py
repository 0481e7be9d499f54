"""The model's laws, each written once as a function of its sample.

A law returns its counterexamples; an empty list means it held on the
sample.  ``battery`` picks the samples ``plamb selftest`` runs; the test
suite calls the same functions on its own, larger samples.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .approximants import approx_check, approx_generate, embed, truncate
from .corpus import corpus
from .lifting import FinSupportDist, lift_check_flow, lift_check_subsets
from .reduction import evolve, step, vals
from .simulation import SimParams, sim_check
from .syntax import (
    LambError, Var, dist_leq, dist_scale, dist_union, fresh_name, parse, print_dist,
    subst, unit,
)


def roundtrip(programs):
    """Printing then parsing gives back an equal distribution."""
    return [d for d in programs if parse(print_dist(d), prelude={}) != d]


def reduction_laws(programs, steps):
    """Along ``steps`` parallel steps from each program, the total mass
    never grows and the value part never shrinks.  A counterexample is
    (program, step number, which law)."""
    bad = []
    for d in programs:
        cur = d
        for i in range(1, steps + 1):
            nxt = step(cur)
            if nxt.mass() > cur.mass():
                bad.append((d, i, "mass grew"))
            if not dist_leq(vals(cur), vals(nxt)):
                bad.append((d, i, "values shrank"))
            cur = nxt
    return bad


def linearity(pairs, fuel):
    """Evolving the union of a pair gives the union of the evolved parts."""
    return [
        (a, b) for a, b in pairs
        if evolve(dist_union(a, b), fuel).values
        != dist_union(evolve(a, fuel).values, evolve(b, fuel).values)
    ]


def evolve_agreement(programs, fuel):
    """``evolve`` reports what a whole-distribution ``step`` loop shows at
    ``fuel``: the values printed with their names, the residual, the steps
    used, convergence and the cycle verdict."""
    bad = []
    for d in programs:
        cur, seen, steps, cycled = d, {d}, 0, False
        while steps < fuel and vals(cur).mass() != cur.mass() and not cycled:
            cur = step(cur)
            steps += 1
            cycled = cur in seen
            seen.add(cur)
        v, r = vals(cur), evolve(d, fuel)
        left = cur.mass() - v.mass()
        shown = (print_dist(v, explicit=True), left, steps, left == 0, left == 0 or cycled)
        if shown != (print_dist(r.values, explicit=True), r.residual, r.steps_used,
                     r.converged, r.limit_exact):
            bad.append(d)
    return bad


def random_lift_instance(rng, max_support, denoms, densities):
    """A random lift instance (source, target, relation): 1 to
    ``max_support`` points a side, weights on a grid of 1/denom with the
    denominator drawn from ``denoms`` (a side whose weights sum above 1 is
    normalised), and each pair related with a probability drawn from
    ``densities``."""
    denom = rng.choice(denoms)
    grid = [Fraction(i, denom) for i in range(1, denom + 1)]
    ns, nt = rng.randint(1, max_support), rng.randint(1, max_support)
    sw = [rng.choice(grid) for _ in range(ns)]
    tw = [rng.choice(grid) for _ in range(nt)]
    if sum(sw) > 1:
        sw = [w / sum(sw) for w in sw]
    if sum(tw) > 1:
        tw = [w / sum(tw) for w in tw]
    d = FinSupportDist(["s%d" % i for i in range(ns)], sw)
    e = FinSupportDist(["t%d" % j for j in range(nt)], tw)
    density = rng.choice(densities)
    rel = {
        ("s%d" % i, "t%d" % j)
        for i in range(ns)
        for j in range(nt)
        if rng.random() < density
    }
    return d, e, rel


def lift_agreement(instances):
    """The max-flow decider and the splitting criterion agree on whether
    the lift holds, on its deficit and on its witness cut: the violation
    is supermodular, so both report its inclusion-least maximiser."""
    bad = []
    for d, e, rel in instances:
        a = lift_check_flow(d, e, rel)
        b = lift_check_subsets(d, e, rel)
        if (a.holds, a.deficit, a.witness_cut) != (b.holds, b.deficit, b.witness_cut):
            bad.append((d, e, rel))
    return bad


def reflexivity(programs, params):
    """Every program simulates itself."""
    return [m for m in programs if not sim_check(m, m, params).holds]


def divergence_least(programs, params):
    """Divergence is the least element: every program simulates omega."""
    om = parse("omega")
    return [m for m in programs if not sim_check(om, m, params).holds]


def rename_free(d, renaming):
    """``d`` with its free names renamed at once by ``renaming``, a dict
    that permutes the names it maps (so a swap is ``{"g": "h", "h": "g"}``).
    Each moved name goes through a machine name first, so that no two
    names merge on the way; substitution renames a binder that would
    capture."""
    if set(renaming.values()) != set(renaming):
        raise LambError("a renaming must permute the names it maps")
    avoid = set(d.free_names()) | set(renaming)
    moves = []
    for a, b in sorted(renaming.items()):
        if a != b and a in d.free_names():
            tmp = fresh_name(avoid)
            avoid.add(tmp)
            d = subst(d, a, unit(Var(tmp)))
            moves.append((tmp, b))
    for tmp, b in moves:
        d = subst(d, tmp, unit(Var(b)))
    return d


def _observed(verdict):
    """What a simulation verdict states: holds, exact, and the deficit."""
    if verdict.holds:
        return True, verdict.exact, None
    return False, False, verdict.witness.deficit


def rename_invariance(pairs, params):
    """A bijective renaming of free names leaves a simulation verdict's
    ``holds``, ``exact`` and deficit unchanged.  Each pair's free names are
    reversed in sorted order, which turns round the order of every two
    free heads.  A counterexample is (m, n, renaming)."""
    bad = []
    for m, n in pairs:
        names = sorted(m.free_names() | n.free_names())
        r = dict(zip(names, reversed(names)))
        before = _observed(sim_check(m, n, params))
        after = _observed(sim_check(rename_free(m, r), rename_free(n, r), params))
        if before != after:
            bad.append((m, n, r))
    return bad


def approximant_soundness(pairs, depth, fuel, grain):
    """For each (m, n) with m simulated by n, every approximant c that
    ``approx_generate(m, depth, fuel, grain)`` yields is a member of n at
    some index below 5 and is simulated by n at (depth, fuel).  Pass (m, m)
    for soundness and a simulated pair for transfer.  A counterexample is
    (c, n, which law)."""
    bad = []
    params = SimParams(depth, fuel)
    for m, n in pairs:
        for c in approx_generate(m, depth, fuel, grain):
            if not any(approx_check(c, n, k, fuel) for k in range(5)):
                bad.append((c, n, "not a member"))
            if not sim_check(embed(c), n, params).holds:
                bad.append((c, n, "not simulated"))
    return bad


def approximant_strictness(programs, depth, fuel):
    """For each program with value mass, its unrounded truncation at every
    depth 1..``depth`` is a member at no index below 5: membership asks
    for strictly less mass than the program has.  A counterexample is
    (truncation, program, index)."""
    bad = []
    for m in programs:
        values = evolve(m, fuel).values
        if values.is_empty():
            continue
        for d in range(1, depth + 1):
            t = truncate(values, d)
            bad += [(t, m, k) for k in range(5) if approx_check(t, m, k, fuel)]
    return bad


def _simulation_basics(programs):
    params = SimParams(2, 8)
    bad = reflexivity(programs, params) + divergence_least(programs, params)
    om, lam = parse("omega"), parse(r"\x. omega")
    if sim_check(lam, om, params).holds:
        bad.append((lam, om))
    yt, ident = parse(r"Y (\x. {1/2: I, 1/2: x})"), parse("I")
    bad += [(a, b) for a, b in ((ident, yt), (yt, ident))
            if not sim_check(a, b, SimParams(3, 9)).holds]
    return bad


def battery(seed):
    """The laws ``plamb selftest`` runs, as (name, check) pairs in order;
    each check returns its counterexamples.  The samples are the bundled
    corpus and draws from ``random.Random(seed)``."""
    rng = random.Random(seed)
    terms = corpus()
    half = Fraction(1, 2)
    halves = [
        (dist_scale(half, rng.choice(terms)), dist_scale(half, rng.choice(terms)))
        for _ in range(30)
    ]
    instances = [random_lift_instance(rng, 5, (8,), (0.4,)) for _ in range(100)]
    sim_pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(20)]
    # the corpus programs a loop keeps live, each mixed with another
    live = [m for m in terms if not evolve(m, 32).limit_exact]
    loops = [dist_union(dist_scale(half, rng.choice(live)), dist_scale(half, rng.choice(terms)))
             for _ in range(20)]
    return [
        ("parse/print round-trip", lambda: roundtrip(terms)),
        ("reduction laws", lambda: reduction_laws(terms, 8)),
        ("evolution linearity", lambda: linearity(halves, 16)),
        ("evolve vs step", lambda: evolve_agreement(terms + loops, 24)),
        ("lift flow vs subsets", lambda: lift_agreement(instances)),
        ("simulation basics", lambda: _simulation_basics(terms)),
        ("rename invariance", lambda: rename_invariance(sim_pairs, SimParams(2, 8))),
        ("approximant soundness", lambda: approximant_soundness(
            [(m, m) for m in terms[:20]], 2, 12, Fraction(1, 8))),
        ("approximant strictness", lambda: approximant_strictness(terms[:20], 2, 12)),
    ]
