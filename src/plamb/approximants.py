"""Finite approximants of program behavior.

An approximant is a finite tree over a bottom element, abstractions, and
open applications, with rational weights.  ``approx_check`` decides
fuel-bounded membership at an index k on the candidate's embedding into
the calculus (bottom becomes the divergent redex ``DIVERGE``), so both
sides are read through ``plamb.lts``: the value split of each, and for
abstractions the ``ret`` target under one symbol fresh for both.  The
candidate's value mass must match strictly below the evolved value mass of
the program (strictly, on every set of entries), with ``ret`` targets and
spine arguments checked recursively one index down.  The strict matching
is one exact max-flow of ``plamb.lifting``, with every supply raised by a
bump too small to undo any strict inequality and large enough to break
every tie.  The embedded bottom is a redex, affords no label and so needs
no support at all: the bottom-only candidates approximate every program at
every index.

``approx_generate`` produces approximants constructively: evolve, truncate
the value trees at a depth, and round every weight strictly down to a
granularity grid.  Strict rounding realizes the strict inequalities of the
membership rules, so generated candidates always pass the check.

The finite terms (``Omega``, ``FinAbs``, ``FinSpine``) and ``FinDist`` are
built on the node and distribution bases of ``plamb.syntax``: identity is
alpha-equivalence, keys come from the same key function as the calculus's
(an abstraction's key is the same in both worlds), and a finite term is
never equal to a term of the calculus.  ``parse_fin`` is the core parser
with finite terms and the ``_|_`` atom.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .syntax import (
    ONE,
    Abs,
    App,
    Dist,
    Distribution,
    LambError,
    Node,
    Var,
    _Parser,
    _canon_dist,
    _name_key,
    _tokenize,
    check_name,
    fresh_name,
    merge_entries,
    parse as _parse_lambda,
    print_dist,
    unit,
)
from .lifting import max_flow
from .lts import ret_target, split_values
from .reduction import AbsView, SpineView, evolve, whnf_view


class GranularityError(LambError):
    """Generation granularity must be a unit fraction 1/g."""


# ---------------------------------------------------------------------------
# Finite terms and distributions


class FinTerm(Node):
    """Base class of the finite term forms; equality is alpha-equivalence."""

    __slots__ = ()

    def __repr__(self):
        return print_fin_term(self)


class Omega(FinTerm):
    __slots__ = ()

    def __init__(self):
        self._canon = self._fn = None

    def _key(self, env, depth):
        return ("o",)

    def _free(self):
        return frozenset()


OMEGA = Omega()


class FinAbs(FinTerm):
    __slots__ = ("binder", "body")

    def __init__(self, binder, body):
        self.binder = check_name(binder)
        if not isinstance(body, FinDist):
            raise LambError("FinAbs body must be a FinDist")
        self.body = body
        self._canon = self._fn = None

    # keyed like an abstraction of the calculus
    _key = Abs._key
    _free = Abs._free


class FinSpine(FinTerm):
    __slots__ = ("head", "args")

    def __init__(self, head, args):
        self.head = check_name(head)
        self.args = tuple(args)
        if not all(isinstance(a, FinDist) for a in self.args):
            raise LambError("FinSpine arguments must be FinDists")
        self._canon = self._fn = None

    def _key(self, env, depth):
        head = _name_key(self.head, env)
        return ("s", head) + tuple(_canon_dist(a, env, depth) for a in self.args)

    def _free(self):
        names = {self.head}
        for a in self.args:
            names |= a.free_names()
        return frozenset(names)


class FinDist(Distribution):
    """Finite map from finite terms to rational weights, total mass <= 1,
    alpha-equivalent keys merged; built and keyed like ``Dist``."""

    # _embedded caches the Dist that embed returns
    __slots__ = ("_embedded",)

    def __init__(self, pairs=()):
        self._entries, self._index, self._canon, self._mass = merge_entries(
            pairs, FinTerm, "FinDist"
        )
        self._fn = self._embedded = None


FIN_EMPTY = FinDist()
FIN_BOTTOM = FinDist(((OMEGA, ONE),))


def print_fin_term(t):
    if isinstance(t, Omega):
        return "_|_"
    if isinstance(t, FinAbs):
        return "\\%s. %s" % (t.binder, print_fin_dist(t.body))
    if isinstance(t, FinSpine):
        return " ".join([t.head] + [_fin_atom(a) for a in t.args])
    raise LambError("not a finite term: %r" % (t,))


def _fin_atom(d):
    e = d.entries()
    if len(e) == 1 and e[0][1] == 1:
        t = e[0][0]
        if isinstance(t, Omega):
            return "_|_"
        if isinstance(t, FinSpine) and not t.args:
            return t.head
    return "(%s)" % print_fin_dist(d)


# one printer for the distributions of both worlds; a FinDist's terms
# print through print_fin_term
print_fin_dist = print_dist


# ---------------------------------------------------------------------------
# Embedding into the full calculus

# the image of bottom, shared by every embedding
DIVERGE = _parse_lambda(r"(\x. x x) (\x. x x)", prelude={}).entries()[0][0]


def embed(c):
    """Structural image of a finite distribution in the full calculus, with
    the bottom element mapped to the divergent self-application.  The
    distribution keeps its image, so asking again returns the same ``Dist``
    (and its cached ``ret`` targets and evolution)."""
    if c._embedded is None:
        c._embedded = Dist((_embed_term(t), w) for t, w in c.entries())
    return c._embedded


def _embed_term(t):
    if isinstance(t, Omega):
        return DIVERGE
    if isinstance(t, FinAbs):
        return Abs(t.binder, embed(t.body))
    if isinstance(t, FinSpine):
        term = Var(t.head)
        for a in t.args:
            term = App(unit(term), embed(a))
        return term
    raise LambError("not a finite term: %r" % (t,))


# ---------------------------------------------------------------------------
# Membership

def approx_check(c, m, k, fuel):
    """Fuel-bounded membership of candidate ``c`` at index ``k``.

    Both sides are read through ``plamb.lts``: the candidate's embedding as
    it stands (its bottom is a redex and affords no label), the program
    after ``evolve``.  Bottom-only candidates pass at any index.  Otherwise
    the evolved value mass of ``m`` must strictly dominate the candidate:
    every nonempty set of candidate value entries must weigh strictly less
    than the value entries compatible with it (strict Hall).  Abstractions
    are compatible when their ``ret`` targets, under a symbol fresh for
    both, are members at k-1; spines when head and arity agree and every
    argument is a member at k-1.

    Strict Hall is decided by one max-flow.  Every weight is a multiple of
    1/L, for L the lcm of all their denominators, so a set that fits
    strictly fits with room 1/L to spare.  Adding 1/(nL) to each of the n
    supplies raises a nonempty set's weight by at most 1/L and by more
    than 0, so it turns strict Hall into ordinary Hall: membership holds
    iff the bumped supplies flow in full, i.e. the flow equals their
    total plus 1/L.
    """
    if not isinstance(c, FinDist):
        raise LambError("candidate must be a FinDist")
    return _member(embed(c), m, k, fuel)


def _member(c, m, k, fuel):
    c_abs, c_spines = split_values(c)
    if not c_abs and not c_spines:
        return True
    if k <= 0:
        return False
    m_abs, m_spines = split_values(evolve(m, fuel).values)
    edges = set()
    for i, (ct, _, cv) in enumerate(c_abs):
        for j, (mt, _, mv) in enumerate(m_abs):
            sym = fresh_name(ct.free_names() | mt.free_names())
            if _member(ret_target(cv, sym), ret_target(mv, sym), k - 1, fuel):
                edges.add((i, j))
    for i, (_, _, cv) in enumerate(c_spines, len(c_abs)):
        for j, (_, _, mv) in enumerate(m_spines, len(m_abs)):
            if (cv.head, len(cv.args)) == (mv.head, len(mv.args)) and all(
                _member(ca, ma, k - 1, fuel) for ca, ma in zip(cv.args, mv.args)
            ):
                edges.add((i, j))
    weights = [w for _, w, _ in c_abs + c_spines]
    targets = [w for _, w, _ in m_abs + m_spines]
    lcm = math.lcm(
        *(w.denominator for w in weights), *(w.denominator for w in targets)
    )
    bump = Fraction(1, len(weights) * lcm)
    supplies = {i: w + bump for i, w in enumerate(weights)}
    demands = dict(enumerate(targets))
    return max_flow(supplies, demands, edges) == sum(weights) + Fraction(1, lcm)


# ---------------------------------------------------------------------------
# Generation

def approx_generate(m, k, fuel, granularity):
    """Truncate-and-round approximants of ``m``.

    Evolves with ``fuel``, truncates each value tree to depths 0..k
    (deeper or still-reducible structure becomes bottom), and rounds every
    weight strictly down to the largest multiple of ``granularity`` (a unit
    fraction 1/g) strictly below it, dropping entries that reach zero.
    Returns the set of distinct results plus the canonical bottom.
    """
    g = _grid_denominator(granularity)
    values = evolve(m, fuel).values
    out = {FIN_BOTTOM}
    for depth in range(k + 1):
        out.add(_round_down(_truncate_dist(values, depth), g))
    return out


def _grid_denominator(granularity):
    granularity = Fraction(granularity)
    if granularity <= 0 or granularity.numerator != 1:
        raise GranularityError(
            "granularity must be a unit fraction, got %s" % granularity
        )
    return granularity.denominator


def _truncate_dist(d, depth):
    return FinDist((_truncate_term(t, depth), w) for t, w in d.entries())


def _truncate_term(t, depth):
    if depth <= 0:
        return OMEGA
    view = whnf_view(t)
    if isinstance(view, AbsView):
        return FinAbs(view.binder, _truncate_dist(view.body, depth - 1))
    if isinstance(view, SpineView):
        return FinSpine(
            view.head, tuple(_truncate_dist(a, depth - 1) for a in view.args)
        )
    return OMEGA


def _round_down(c, g):
    # bottom entries need no supporting mass, so their weights stay put;
    # every other weight moves strictly below its grid cell
    pairs = []
    for t, w in c.entries():
        if isinstance(t, Omega):
            pairs.append((t, w))
            continue
        r = Fraction(-(-w.numerator * g // w.denominator) - 1, g)
        if r > 0:
            pairs.append((_round_term(t, g), r))
    return FinDist(pairs)


def _round_term(t, g):
    if isinstance(t, Omega):
        return t
    if isinstance(t, FinAbs):
        return FinAbs(t.binder, _round_down(t.body, g))
    if isinstance(t, FinSpine):
        return FinSpine(t.head, tuple(_round_down(a, g) for a in t.args))
    raise LambError("not a finite term: %r" % (t,))


# ---------------------------------------------------------------------------
# Concrete syntax for candidates (the full grammar plus the `_|_` atom)

def parse_fin(src):
    """Parse a finite-approximant distribution; ``_|_`` denotes bottom."""
    p = _FinParser(_tokenize(src))
    d = p.parse_nested(p.dist)
    if not p.at_kind("eof"):
        p.fail("trailing input after distribution")
    return d


class _FinParser(_Parser):
    """The core grammar with finite terms: a term is ``_|_``, an
    abstraction, or a head name applied to atoms; an atom is also ``_|_``
    or a bare head name."""

    dist_type = FinDist

    def term(self):
        if self._bottom_ahead():
            self._eat_bottom()
            return OMEGA
        if self.at("\\"):
            self.next()
            if not self.at_kind("name"):
                self.fail("expected a binder name")
            _, name, _, _ = self.next()
            self.expect(".")
            return FinAbs(name, self.dist())
        if not self.at_kind("name"):
            self.fail("expected a finite term")
        _, head, _, _ = self.next()
        args = []
        while self.at_kind("name") or self.at("("):
            args.append(self.atom())
        return FinSpine(head, tuple(args))

    def atom(self):
        if self._bottom_ahead():
            self._eat_bottom()
            return FIN_BOTTOM
        if self.at_kind("name"):
            _, name, _, _ = self.next()
            return FinDist(((FinSpine(name, ()), ONE),))
        return super().atom()

    def _bottom_ahead(self):
        return (
            self.tokens[self.i][1] == "_"
            and self.tokens[self.i + 1][1] == "|"
            and self.tokens[self.i + 2][1] == "_"
        )

    def _eat_bottom(self):
        self.next()
        self.next()
        self.next()
