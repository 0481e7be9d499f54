"""Finite approximants of program behavior.

An approximant is a finite tree over a bottom element, abstractions, and
open applications, with rational weights.  ``approx_check`` decides
fuel-bounded membership at an index k on the candidate's embedding into
the calculus (bottom becomes the divergent redex ``DIVERGE``) as a strict
run of ``plamb.simulation``'s check.  Abstractions are compared as one
block, as the simulation compares them; index <= 0 admits no value; and
``ret`` blocks and spine arguments are compared one index down, whereas
the simulation's spine arguments keep their depth.  ``approx_check``
states the rule in full.

``approx_generate`` produces approximants constructively: evolve, truncate
the value trees at a depth, and round every weight strictly down to a
granularity grid.  Strict rounding realizes the strict inequalities of the
membership rules, so generated candidates always pass the check.

The finite terms (``Omega``, ``FinAbs``, ``FinSpine``) and ``FinDist`` are
built on the node and distribution bases of ``plamb.syntax``: identity is
alpha-equivalence, keys and texts come from the same functions as the
calculus's (an abstraction's key and text are the same in both worlds),
``print_dist`` prints both, and a finite term is never equal to a term of
the calculus.  ``parse_fin`` reads a candidate as a program over the
calculus grammar plus the ``_|_`` atom, whose every entry is a value tree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .syntax import (
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
    _name_set,
    _print_atom,
    _tokenize,
    _union,
    check_name,
    parse as _parse_lambda,
    print_dist,
    unit,
)
from .reduction import AbsView, SpineView, evolve, whnf_view
from .simulation import _SimState, _sim


class GranularityError(LambError):
    """Generation granularity must be a unit fraction 1/g."""


# ---------------------------------------------------------------------------
# Finite terms and distributions


class FinTerm(Node):
    """Base class of the finite term forms; equality is alpha-equivalence."""

    __slots__ = ()


class Omega(FinTerm):
    __slots__ = ()

    def __init__(self):
        self._canon = self._fn = None

    def _key(self, env, depth):
        return ("o",)

    def _free(self):
        return frozenset()

    def _text(self):
        return "_|_"


OMEGA = Omega()


class FinAbs(FinTerm):
    __slots__ = ("binder", "body")

    def __init__(self, binder, body):
        self.binder = check_name(binder)
        if not isinstance(body, FinDist):
            raise LambError("FinAbs body must be a FinDist")
        self.body = body
        self._canon = self._fn = None

    # keyed and printed like an abstraction of the calculus
    _key = Abs._key
    _free = Abs._free
    _text = Abs._text


class FinSpine(FinTerm):
    __slots__ = ("head", "args")

    def __init__(self, head, args):
        self.head = check_name(head)
        self.args = tuple(args)
        if not all(isinstance(a, FinDist) for a in self.args):
            raise LambError("FinSpine arguments must be FinDists")
        self._canon = self._fn = None

    def _key(self, env, depth):
        head = _name_key(self.head, env, depth)
        return ("s", head) + tuple(_canon_dist(a, env, depth) for a in self.args)

    def _free(self):
        fn = _name_set(self.head)
        for a in self.args:
            fn = _union(fn, a.free_names())
        return fn

    def _text(self):
        return " ".join([self.head] + [_print_atom(a) for a in self.args])


class FinDist(Distribution):
    """Finite map from finite terms to rational weights, total mass <= 1,
    alpha-equivalent keys merged; built and keyed like ``Dist``."""

    # _embedded caches the Dist that embed returns
    __slots__ = ("_embedded",)

    def __init__(self, pairs=(), den=None):
        self._merge(pairs, den, FinTerm, "FinDist")
        self._embedded = None


FIN_EMPTY = FinDist()
FIN_BOTTOM = FinDist(((OMEGA, 1),), 1)


# the one printer, under the name the approximants' callers use
print_fin_dist = print_dist


# ---------------------------------------------------------------------------
# Embedding into the full calculus

# the image of bottom, shared by every embedding
DIVERGE = _parse_lambda(r"(\x. x x) (\x. x x)", prelude={}).entries()[0][0]


def embed(c):
    """Structural image of a finite distribution in the full calculus, with
    the bottom element mapped to the divergent self-application.  The
    distribution keeps its image, so asking again returns the same ``Dist``
    (and its cached ``ret`` block and evolution)."""
    if c._embedded is None:
        pairs = []
        for t, n in c._ints:
            if isinstance(t, Omega):
                t = DIVERGE
            elif isinstance(t, FinAbs):
                t = Abs(t.binder, embed(t.body))
            elif isinstance(t, FinSpine):
                term = Var(t.head)
                for a in t.args:
                    term = App(unit(term), embed(a))
                t = term
            else:
                raise LambError("not a finite term: %r" % (t,))
            pairs.append((t, n))
        c._embedded = Dist(pairs, c._den)
    return c._embedded


# ---------------------------------------------------------------------------
# Membership

def approx_check(c, m, k, fuel):
    """Fuel-bounded membership of candidate ``c`` at index ``k``.

    The embedded bottom affords no label and needs no support, so
    bottom-only candidates pass at any index; index <= 0 admits no value.
    A candidate whose value (non-bottom) mass is not strictly below the
    program's evolved value mass is rejected before it is embedded, as the
    check would reject it.  Otherwise a strict run of ``simulation._sim``
    compares the embedded candidate, as it stands, with the program: its
    abstractions form one block, whose mass must lie strictly below the
    program's block and whose ``ret`` block (``lts.ret_block``) must be a
    member of the program's at k-1; its spine points must match by strict
    Hall, along pairs of one call family whose arguments are members at
    k-1.  No residual slack is granted.
    """
    if not isinstance(c, FinDist):
        raise LambError("candidate must be a FinDist")
    mass = sum([n for t, n in c._ints if not isinstance(t, Omega)])
    if not mass:
        return True
    if k <= 0:
        return False
    values = evolve(m, fuel).values
    if mass * values._den >= values._total * c._den:
        return False
    return _sim(_SimState(fuel, False, strict=True), embed(c), m, k, 0, 1) is None


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
        out.add(_round_down(truncate(values, depth), g))
    return out


def _grid_denominator(granularity):
    granularity = Fraction(granularity)
    if granularity <= 0 or granularity.numerator != 1:
        raise GranularityError(
            "granularity must be a unit fraction, got %s" % granularity
        )
    return granularity.denominator


def truncate(d, depth):
    """The value trees of ``d`` cut at ``depth``, weights unrounded: deeper
    or still-reducible structure becomes bottom.  At depth 0 that is one
    bottom entry of ``d``'s mass."""
    if depth <= 0:
        return FinDist(((OMEGA, d._total),), d._den) if d._ints else FIN_EMPTY
    pairs = []
    for t, n in d._ints:
        view = whnf_view(t)
        if isinstance(view, AbsView):
            t = FinAbs(view.binder, truncate(view.body, depth - 1))
        elif isinstance(view, SpineView):
            t = FinSpine(view.head, [truncate(a, depth - 1) for a in view.args])
        else:
            t = OMEGA
        pairs.append((t, n))
    return FinDist(pairs, d._den)


def _round_down(c, g):
    # bottom entries need no supporting mass, so their weights stay put;
    # every other weight moves strictly below its grid cell
    den = math.lcm(c._den, g)
    fc, fg = den // c._den, den // g
    pairs = []
    for t, n in c._ints:
        if isinstance(t, Omega):
            pairs.append((t, n * fc))
            continue
        r = -(-n * g // c._den) - 1
        if r <= 0:
            continue
        if isinstance(t, FinAbs):
            t = FinAbs(t.binder, _round_down(t.body, g))
        else:
            t = FinSpine(t.head, [_round_down(a, g) for a in t.args])
        pairs.append((t, r * fg))
    return FinDist(pairs, den)


# ---------------------------------------------------------------------------
# Concrete syntax for candidates (the calculus grammar plus the `_|_` atom)

def parse_fin(src):
    """Parse a candidate: a program over the calculus grammar, without the
    prelude, in which the atom ``_|_`` stands for bottom and every entry
    is a value tree.  It is read as a ``Dist``, with ``_|_`` as
    ``DIVERGE``, and truncated at no depth; a source whose truncation does
    not embed back to what was read (it has a redex other than bottom) is
    refused.  A literal ``DIVERGE`` reads as bottom."""
    parser = _Parser(_tokenize(src), src, bottom=unit(DIVERGE))
    d = parser.whole()
    # keying a truncated spine under a binder, and comparing the two deep
    # keys, recurse deeper per level than the parser
    c = parser.parse_nested(lambda: truncate(d, math.inf))
    if parser.parse_nested(lambda: embed(c) != d):
        raise LambError("not a finite approximant: a redex other than _|_")
    return c
