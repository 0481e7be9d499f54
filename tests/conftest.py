"""Shared term generators for the property and acceptance suites."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import hypothesis.strategies as st

from plamb import syntax
from plamb.syntax import Abs, App, Dist, LambError, Var
from plamb.reduction import evolve

GRID8 = [Fraction(i, 8) for i in range(1, 9)]
FREE_NAMES = ("u", "v", "w")
BINDERS = ("a", "b", "c")


def gen_term(rng, depth, bound=()):
    kinds = ["var"]
    if depth > 0:
        kinds += ["abs", "abs", "app", "app"]
    kind = rng.choice(kinds)
    if kind == "var":
        pool = tuple(bound) + FREE_NAMES
        return Var(rng.choice(pool))
    if kind == "abs":
        b = rng.choice(BINDERS)
        return Abs(b, gen_dist(rng, depth - 1, tuple(bound) + (b,)))
    return App(gen_dist(rng, depth - 1, bound), gen_dist(rng, depth - 1, bound))


def gen_dist(rng, depth, bound=()):
    n = rng.choice((1, 1, 1, 2, 2, 3))
    pairs = [(gen_term(rng, depth, bound), rng.choice(GRID8)) for _ in range(n)]
    total = sum(w for _, w in pairs)
    if total > 1:
        pairs = [(t, w / total) for t, w in pairs]
    return Dist(pairs)


def gen_terminating(rng, depth=3, fuel=32, tries=50):
    for _ in range(tries):
        d = gen_dist(rng, depth)
        if evolve(d, fuel).converged:
            return d
    raise AssertionError("could not generate a terminating distribution")


# hypothesis strategies built over the seeded generator: deterministic
# per-example and cheap, at the cost of weaker shrinking


@st.composite
def dists(draw, depth=3):
    seed = draw(st.integers(0, 2**32 - 1))
    return gen_dist(random.Random(seed), depth)


@st.composite
def terminating_dists(draw, depth=3, fuel=32):
    seed = draw(st.integers(0, 2**32 - 1))
    return gen_terminating(random.Random(seed), depth, fuel)


def expand_prelude(src, prelude):
    """The oracle for prelude resolution: each prelude name in ``src``
    replaced by its parenthesized definition, as text, until nothing
    changes (at most 16 rounds).  The result parses with ``prelude={}``
    to what ``parse(src, prelude)`` builds."""
    for _ in range(16):
        changed = False
        for name, body in prelude.items():
            pat = r"(?<![A-Za-z0-9_'#])%s(?![A-Za-z0-9_'#])" % re.escape(name)
            new = re.sub(pat, lambda _m: "(%s)" % body, src)
            if new != src:
                src = new
                changed = True
        if not changed:
            return src
    raise LambError("prelude expansion did not terminate (recursive definition?)")


def reachable(d):
    """Every distribution and term reachable from ``d``."""
    out, todo, seen = [], [d], set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        if isinstance(x, Dist):
            todo += x.support()
        elif isinstance(x, Abs):
            todo.append(x.body)
        elif isinstance(x, App):
            todo += [x.fun, x.arg]
    return out


def stepped_in_table():
    """The nodes reachable from the prelude table that hold a reduction:
    an application with its head reduct or a distribution with its
    evolution.  Empty when no use tied the table to a reduction."""
    defs = syntax._definitions
    return [
        x
        for d, _ in (defs.parsed.values() if defs is not None else ())
        for x in reachable(d)
        if isinstance(x, App) and x._step is not None
        or isinstance(x, Dist) and x._evolved is not None
    ]
