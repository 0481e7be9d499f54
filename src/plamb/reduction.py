"""Lazy reduction of weighted term distributions.

Reduction stops at weak head normal forms: abstractions and open spines
``x M1 ... Mn``.  ``whnf_view`` tells them apart: an abstraction is its own
view (``AbsView`` names ``Abs``), a spine is a ``SpineView`` of its head
and arguments.  A term is classified once: a variable or an application
keeps its view, or None for a redex, for as long as it lives.  One
parallel step rewrites every non-whnf component of a distribution by a
single head reduction; fuel counts parallel steps.
``evolve`` reports what iterating ``step`` reaches: the value mass found,
the residual mass still unreduced, and whether the residual is provably
inert (the trajectory reached a fixpoint or a cycle, so no further value
mass can ever appear).  Values never change once reached, so ``evolve``
splits them off once and steps only the residual; ``step`` is the
whole-distribution reference it is tested against.  A ``Dist`` keeps the
report of its last evolution, so evolving the same object again at the
same fuel costs nothing; the cache lives as long as the object and holds
the last fuel only.

Left-linearity builds its reduct unchecked (``Distribution._canonical``);
``step`` returns a distribution with nothing to reduce itself, and ``vals``
one that is all values.  Each term is reduced once: an application keeps
its head reduct, so ``head_step``, ``step`` and ``evolve`` on the same
object reuse it.  ``evolve`` also lends a reduct between objects: its
alike table maps a residual class key to the terms of the class reduced so
far, and a term not yet reduced takes the reduct of a listed term that
prints like it.  Each call makes a table of its own, so calls lend no
reducts to one another.  Within a call, ``evolve`` runs on ints: each
reduct is split once into value entries and successor ranks, so a loop
builds no ``Dist`` and reduces no term once it has gone round.  A kept
distribution keeps the stepped part of its trajectory, since a term's slot
holds its reduct; a caller that steps a long way and need not keep the
start, as ``plamb trace`` and ``plamb normalize`` do, drops it.

The parallel step and any sequential one-redex-at-a-time schedule reach the
same value distribution in the limit; ``step_entry``/``evolve_sequential``
provide the reference schedule used by the property suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .syntax import EMPTY, Abs, App, Dist, LambError, Var, ZERO, mixture, names_alike, subst, unit


# The weak head normal form ``\binder. body`` is the abstraction itself.
AbsView = Abs


class SpineView:
    """Weak head normal form ``head arg1 ... argn``; a bare variable has an
    empty argument vector."""

    __slots__ = ("head", "args")

    def __init__(self, head, args):
        self.head = head
        self.args = tuple(args)


def whnf_view(t):
    """Classify a term: the abstraction itself (an ``AbsView``), a
    SpineView, or None when it is reducible.

    A spine requires every operator position to be a weight-1 singleton
    down to the head variable; anything else (head redex, sub-unit or
    non-singleton operator) is not a weak head normal form.

    A term is classified once: a variable or an application keeps its
    answer in its ``_view`` slot, so asking again returns the same
    ``SpineView`` (or None) without walking the spine.
    """
    if isinstance(t, Abs):
        return t
    if not isinstance(t, (App, Var)):
        raise LambError("not a term: %r" % (t,))
    view = t._view
    if view is False:
        view = t._view = _spine_view(t)
    return view


def _spine_view(t):
    """The SpineView of the variable or application ``t``, or None when it
    is reducible, computed afresh."""
    # a bare variable is the spine of no arguments
    args, head = [], t
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fun.point()
    if isinstance(head, Var):
        args.reverse()
        return SpineView(head.name, args)
    return None


def head_step(t):
    """One head reduction of a non-whnf term, as a distribution.

    Beta for a unit-singleton abstraction operator, left-linearity when the
    operator distribution is not a unit singleton (this is where mass can
    leak), and the context rule pushing into the operator otherwise.

    The reduct is computed once per object: the application keeps it in
    its ``_step`` slot for as long as the application lives, and every
    later call, the context rule's inner one included, returns that same
    ``Dist``.  An alpha-equivalent copy that is another object has a slot
    of its own, which ``evolve`` fills with the reduct already made when
    its alike table lists a copy that prints the same.
    """
    if not isinstance(t, App):
        raise LambError("head_step on a weak head normal form")
    h = t._step
    if h is None:
        h = t._step = _head_reduct(t)
    return h


def _head_reduct(t):
    """The head reduct of the application ``t``, computed afresh."""
    f = t.fun
    m = f.point()
    if m is None:
        # distinct operators in key order make distinct applications in order
        arg, ints, keys = t.arg, [], []
        for m, n in f._ints:
            a = App(unit(m), arg)
            a._canon = k = ("a", a.fun._canon, arg._canon)
            ints.append((a, n))
            keys.append(k)
        return Dist._canonical(ints, keys, f._den, f._total)
    if isinstance(m, Abs):
        return subst(m.body, m.binder, t.arg)
    if isinstance(m, App):
        return unit(App(head_step(m), t.arg))
    raise LambError("head_step on a weak head normal form")


def step(d):
    """One parallel step: every non-whnf entry is replaced by its head
    reduction scaled by its weight; whnf entries pass through.  A ``d``
    with nothing to reduce is its own step and is returned itself."""
    if all(whnf_view(t) is not None for t, _ in d._ints):
        return d
    return mixture(
        [(n, t if whnf_view(t) is not None else head_step(t)) for t, n in d._ints], d._den
    )


def vals(d):
    """Sub-distribution of ``d`` supported on weak head normal forms, in
    ``d``'s order: ``d`` itself when all are values, ``EMPTY`` when none is."""
    ints = [(t, n) for t, n in d._ints if whnf_view(t) is not None]
    if len(ints) == len(d._ints):
        return d
    keys, nums = [t._canon for t, _ in ints], [n for _, n in ints]
    return Dist._canonical(ints, keys, d._den, sum(nums)) if ints else EMPTY


class EvolveReport:
    """Result of a fuel-bounded evolution.

    ``converged`` means residual mass is zero, in which case ``values`` is
    exactly the big-step value distribution.  ``limit_exact`` additionally
    covers trajectories that reached a fixpoint or cycle: the residual can
    then never convert to value mass, so ``values`` is still the exact
    limit even though mass is missing.
    """

    __slots__ = ("values", "residual", "steps_used", "converged", "limit_exact")

    def __init__(self, values, residual, steps_used, converged, limit_exact):
        self.values = values
        self.residual = residual
        self.steps_used = steps_used
        self.converged = converged
        self.limit_exact = limit_exact

    def __repr__(self):
        return "EvolveReport(%s)" % ", ".join(
            "%s=%s" % (name, getattr(self, name)) for name in self.__slots__
        )


def evolve(d, fuel):
    """Iterate the parallel step up to ``fuel`` times, stopping early when
    all mass is on values or the trajectory repeats.

    The result is that of iterating ``step``, but only the residual is
    stepped, on ints: ``d`` is split once into its values (key -> [display
    term, numerator, last step that added to it]) and its residual, the
    residual classes in canonical key order, each a rank with a display
    term and a numerator.  All numerators are over one denominator, which
    each step multiplies by the lcm of the denominators of the reducts it
    reads.  A class gets a rank the first time it is seen.

    The call's alike table, made new on every call, maps a residual class
    key to the terms of that class reduced so far.  A term with no reduct
    yet takes the reduct of the first listed term that names every binder
    alike (``names_alike``, so both print, and reduce, the same); else it
    reduces itself and joins its class's list, so every unalike variant is
    kept.  Each reduct is split once per call (``_split``) into value
    entries and successor ranks, so a step is int arithmetic and a loop
    builds no ``Dist`` once it has gone round.  The next residual shows a
    class by its first contributor in visit order, as ``step``'s mixture
    does, and a value class is named by ``step``'s display rule: a new
    class takes the first reduct into it; after that only the first reduct
    into it in a step renames it, and only when the stepped class sorts
    before it.

    The cycle check is keyed on the residual alone (ranks, numerators and
    denominator, reduced): the total mass never grows and the values never
    shrink, so a recurring residual brings back the same values, and the
    whole distribution repeats exactly when the residual does.  The
    residual mass never grows either, so once it falls no residual seen
    before can recur and the residuals seen are cleared to hold one run of
    equal mass.

    The report is stored on ``d`` and returned as it is when ``d`` itself
    is evolved again at the same fuel; a new fuel replaces it.  A ``d``
    that is all values is its own report and is not stored, since the
    report would hold ``d`` itself.
    """
    cached = d._evolved
    if cached is not None and cached[0] == fuel:
        return cached[1]
    values = {}
    # the residual: rank -> [display term, numerator], in key order, and
    # its numerators in that order
    res, keys, nums = {}, [], []
    for t, n in d._ints:
        if whnf_view(t) is not None:
            values[t._canon] = [t, n, -1]
        else:
            res[len(keys)] = [t, n]
            keys.append(t._canon)
            nums.append(n)
    if not res:
        return EvolveReport(d, ZERO, 0, True, True)
    table = {}
    den = d._den
    total = sum(nums)
    rank = dict(zip(keys, res))
    # id of a reduct -> its split, which holds the reduct
    splits = {}
    seen, key = set(), None
    steps = 0
    cycled = False
    while steps < fuel:
        stepped = []
        lcm = 1
        for r, (t, _) in res.items():
            h = t._step
            if h is None:
                k = keys[r]
                alike = table.get(k)
                if alike is None:
                    alike = table[k] = []
                for u in alike:
                    if names_alike(u, t):
                        h = t._step = u._step
                        break
                else:
                    h = head_step(t)
                    alike.append(t)
            split = splits.get(id(h))
            if split is None:
                split = splits[id(h)] = _split(h, values, rank, keys, steps)
            stepped.append(split)
            if lcm % h._den:
                lcm = math.lcm(lcm, h._den)
        if lcm > 1:
            den *= lcm
            for slot in values.values():
                slot[1] *= lcm
        nxt = {}
        for r, n, (h, found, succ) in zip(res, nums, stepped):
            s = n * (lcm // h._den)
            if found:
                at = keys[r]
                for slot, rt, c, k in found:
                    if slot[2] != steps:
                        slot[2] = steps
                        if slot[0] is not rt and at < k:
                            slot[0] = rt
                    slot[1] += c * s
            for j, rt, c in succ:
                e = nxt.get(j)
                if e is None:
                    nxt[j] = [rt, c * s]
                else:
                    e[1] += c * s
        steps += 1
        if not nxt:
            total = 0
            break
        if len(nxt) > 1:
            order = list(nxt)
            if any(not keys[a] < keys[b] for a, b in zip(order, order[1:])):
                nxt = {r: nxt[r] for r in sorted(order, key=keys.__getitem__)}
        was, was_nums, was_total = res, nums, total
        nums = [e[1] for e in nxt.values()]
        res, total = nxt, sum(nums)
        if total != was_total * lcm:
            seen.clear()
            key = None
            continue
        seen.add(key or _state(was, was_nums, den // lcm))
        key = _state(res, nums, den)
        if key in seen:
            cycled = True
            break
    converged = total == 0
    report = EvolveReport(
        Dist([(slot[0], slot[1]) for slot in values.values()], den),
        Fraction(total, den), steps, converged, converged or cycled,
    )
    d._evolved = (fuel, report)
    return report


def _state(res, nums, den):
    """The cycle key of the residual ``res`` with numerators ``nums`` over
    ``den``: its ranks, then its numerators and ``den`` reduced."""
    g = math.gcd(den, *nums)
    return (*res, *[n // g for n in nums], den // g)


def _split(h, values, rank, keys, stamp):
    """The head reduct ``h`` as (``h``, value entries (value slot, display
    term, numerator, key), successors (rank, display term, numerator)),
    opening a slot for a new value class in step ``stamp`` and a rank for
    a new residual class."""
    found, succ = [], []
    for rt, rn in h._ints:
        k = rt._canon
        if whnf_view(rt) is not None:
            slot = values.get(k)
            if slot is None:
                slot = values[k] = [rt, 0, stamp]
            found.append((slot, rt, rn, k))
        else:
            j = rank.get(k)
            if j is None:
                j = rank[k] = len(keys)
                keys.append(k)
            succ.append((j, rt, rn))
    return h, found, succ


def step_entry(d, index):
    """Reference sequential step: reduce only the ``index``-th non-whnf
    entry (canonical order) by one head reduction."""
    parts = []
    seen = -1
    for t, n in d._ints:
        if whnf_view(t) is None:
            seen += 1
            if seen == index:
                t = head_step(t)
        parts.append((n, t))
    if not 0 <= index <= seen:
        raise LambError("no non-whnf entry at index %d" % index)
    return mixture(parts, d._den)


def evolve_sequential(d, max_steps, rng=None):
    """Evolve by single-entry steps in an arbitrary (optionally random)
    order; used to cross-check confluence of the parallel step."""
    cur = d
    for steps in range(max_steps):
        pending = sum(1 for t, _ in cur._ints if whnf_view(t) is None)
        if pending == 0:
            return EvolveReport(vals(cur), ZERO, steps, True, True)
        index = rng.randrange(pending) if rng is not None else 0
        cur = step_entry(cur, index)
    v = vals(cur)
    residual = cur.mass() - v.mass()
    return EvolveReport(v, residual, max_steps, residual == 0, residual == 0)
