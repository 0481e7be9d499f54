"""Labelled transitions on weak head normal forms.

Labels record what a context can observe: internal steps (tau), convergence
to an abstraction (conv), calling the term with a fresh symbolic argument
(ret s), and the term invoking an unknown head variable at a given argument
position (call y i/n).  Index 0 of a call, by convention, targets the
identity and measures the weight of convergence to a head application of
that variable and arity, which in turn separates spines of different
lengths.

The applicative test folds the beta step into the transition: ``ret s`` on
``\\x. B`` goes straight to ``B[s/x]`` instead of to the application, since
the silent step would fire immediately anyway.

This module alone knows which labels a whnf affords (``split_values``,
``call_pairs``), the ``ret`` symbol fresh for both sides (``fresh_symbol``)
and the targets (``strong_target``, ``ret_target``, ``ret_block``); the
simulation check and approximant membership take theirs from here.  A
distribution keeps its value split and its last ``ret`` block, so a
program compared with several candidates, or at several indices, is
split and unfolded once.
"""

from __future__ import annotations

import functools

from .syntax import Abs, Dist, LambError, Var, fresh_name, mixture, subst, unit
from .reduction import AbsView, SpineView, evolve, whnf_view

IDENTITY = Abs("x", unit(Var("x")))


class FreshNameCollisionError(LambError):
    """The supplied fresh symbol occurs free in the inspected term."""


class LabelNotApplicableError(LambError):
    """No entry of the distribution affords the requested label."""


class Label:
    """A transition label: labels are equal when they are of one kind and
    their fields are equal."""

    __slots__ = ()

    def _identity(self):
        return (type(self),) + tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        return isinstance(other, Label) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


class _Tau(Label):
    __slots__ = ()

    def __repr__(self):
        return "tau"


class _Converge(Label):
    __slots__ = ()

    def __repr__(self):
        return "conv"


class Ret(Label):
    __slots__ = ("sym",)

    def __init__(self, sym):
        self.sym = sym

    def __repr__(self):
        return "ret %s" % self.sym


class Call(Label):
    __slots__ = ("sym", "index", "arity")

    def __init__(self, sym, index, arity):
        if not 0 <= index <= arity:
            raise LambError("call index %d out of range 0..%d" % (index, arity))
        self.sym = sym
        self.index = index
        self.arity = arity

    def __repr__(self):
        return "call %s %d/%d" % (self.sym, self.index, self.arity)


TAU = _Tau()
CONVERGE = _Converge()


def split_values(d):
    """Split the whnf entries of the ``Dist`` ``d`` by the labels they
    afford, as two tuples of ``(term, numerator, view)`` triples in entry
    order, each weight a numerator over ``d``'s denominator: abstraction
    entries (conv and ret) and spine entries (the call family of their head
    and arity).  Entries that are not in weak head normal form afford no
    visible label and are dropped.  The split is computed once per ``Dist``:
    it keeps the pair in its ``_split`` slot, and asking again returns that
    same pair."""
    if not isinstance(d, Dist):
        raise LambError("not a Dist: %r" % (d,))
    split = d._split
    if split is None:
        abs_entries = []
        spine_entries = []
        for t, n in d._ints:
            view = whnf_view(t)
            if isinstance(view, AbsView):
                abs_entries.append((t, n, view))
            elif isinstance(view, SpineView):
                spine_entries.append((t, n, view))
        split = d._split = (tuple(abs_entries), tuple(spine_entries))
    return split


def call_pairs(left, right):
    """Spine entries of two ``split_values`` blocks that afford one call
    family (same head and arity), as ``(i, j, argument pairs)`` in entry
    order, indexed within each block."""
    return [
        (i, j, tuple(zip(u.args, v.args)))
        for i, (_, _, u) in enumerate(left)
        for j, (_, _, v) in enumerate(right)
        if u.head == v.head and len(u.args) == len(v.args)
    ]


def fresh_symbol(*blocks):
    """The first ``#i`` free in no term of the ``split_values`` blocks: a
    ``ret`` symbol fresh for every side."""
    return fresh_name(set().union(*[t.free_names() for b in blocks for t, _, _ in b]))


def ret_target(view, sym):
    """Strong ``ret sym`` target of one abstraction, at unit weight: its
    body with the binder replaced by ``sym``, built afresh on each call.
    Every abstraction substitutes the one shared ``unit(Var(sym))`` of its
    symbol (``_symbol``)."""
    return subst(view.body, view.binder, _symbol(sym))


@functools.lru_cache(maxsize=1024)
def _symbol(sym):
    """The point distribution of the variable ``sym``, one object shared by
    every ``ret`` target at ``sym`` (bounded, so hostile input cannot grow
    it without limit)."""
    return unit(Var(sym))


def ret_block(d, sym):
    """Strong ``ret sym`` target of the abstraction block of the ``Dist``
    ``d``: every abstraction body of ``split_values(d)`` applied to
    ``sym``, scaled by its entry weight.  The distribution keeps its last
    block in its ``_ret`` slot, so asking again for the same ``sym``
    returns the same ``Dist`` (and that ``Dist``'s cached evolution)."""
    cached = d._ret
    if cached is None or cached[0] != sym:
        abs_entries = split_values(d)[0]
        block = mixture([(n, ret_target(view, sym)) for _, n, view in abs_entries], d._den)
        cached = d._ret = (sym, block)
    return cached[1]


def _unit_target(view, label):
    if label == CONVERGE or label.index == 0:
        return unit(IDENTITY)
    return view.args[label.index - 1]


def strong_target(d, label):
    """Weighted strong target of a visible label on ``d``, before evolution:
    the union, in entry order, of the targets of the whnf entries affording
    the label, scaled by their weights (an alpha-class is displayed by its
    first-seen term).  Raises ``LabelNotApplicableError`` when no entry
    affords it."""
    abs_entries, spine_entries = split_values(d)
    if isinstance(label, Call):
        sig = (label.sym, label.arity)
        hit = [e for e in spine_entries if (e[2].head, len(e[2].args)) == sig]
    else:
        hit = abs_entries if isinstance(label, (Ret, _Converge)) else []
    if not hit:
        raise LabelNotApplicableError("no entry affords %r" % label)
    if isinstance(label, Ret):
        if any(label.sym in t.free_names() for t, _, _ in hit):
            raise FreshNameCollisionError("%r occurs free in the term" % label.sym)
        return ret_block(d, label.sym)
    return mixture([(n, _unit_target(view, label)) for _, n, view in hit], d._den)


def weak_max_transition(d, label, fuel):
    """The unique weak max transition of a distribution under a label.

    tau evolves the distribution.  A visible label takes the strong target
    of every whnf entry affording it, scaled by entry weight, and the
    combined target is then evolved; the result is deterministic.
    """
    if label == TAU:
        return evolve(d, fuel)
    return evolve(strong_target(d, label), fuel)


def available_labels(d, fresh):
    """Visible labels afforded by the whnf entries of ``d``, deterministic
    order: conv/ret first when abstractions are present, then call families
    per (head, arity)."""
    abs_entries, spine_entries = split_values(d)
    labels = [CONVERGE, Ret(fresh)] if abs_entries else []
    for head, arity in sorted({(v.head, len(v.args)) for _, _, v in spine_entries}):
        labels.extend(Call(head, i, arity) for i in range(arity + 1))
    return labels
