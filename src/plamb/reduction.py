"""Lazy reduction of weighted term distributions.

Reduction stops at weak head normal forms: abstractions and open spines
``x M1 ... Mn``.  ``whnf_view`` tells them apart: an abstraction is its own
view (``AbsView`` names ``Abs``), a spine is a ``SpineView`` of its head
and arguments.  One parallel step rewrites every non-whnf component of a
distribution by a single head reduction; fuel counts parallel steps.
``evolve`` reports what iterating ``step`` reaches: the value mass found,
the residual mass still unreduced, and whether the residual is provably
inert (the trajectory reached a fixpoint or a cycle, so no further value
mass can ever appear).  Values never change once reached, so ``evolve``
splits them off once and steps only the residual; ``step`` is the
whole-distribution reference it is tested against.  A ``Dist`` keeps the
report of its last evolution, so evolving the same object again at the
same fuel costs nothing; the cache lives as long as the object and holds
the last fuel only.

Each term is reduced once: an application keeps its head reduct, so
``head_step``, ``step`` and ``evolve`` on the same object reuse it, and
within one ``evolve`` a residual term that recurs, as a recursive
program's unfolding does, is stepped through its first copy; once the
residual moves only among such terms (a closed chain), the rest of the
fuel runs on one integer numerator per term, with the same report.
Because a term's slot holds its reduct, a distribution that is kept keeps
the part of its trajectory that has been stepped; a caller that steps a
long way and need not keep the start, as ``plamb trace`` and ``plamb
normalize`` do, drops it.

The parallel step and any sequential one-redex-at-a-time schedule reach the
same value distribution in the limit; ``step_entry``/``evolve_sequential``
provide the reference schedule used by the property suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .syntax import Abs, App, Dist, LambError, Var, ZERO, mixture, names_alike, subst, unit


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
    """
    if isinstance(t, Abs):
        return t
    # a bare variable is the spine of no arguments
    args, head = [], t
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fun.point()
    if isinstance(head, Var):
        args.reverse()
        return SpineView(head.name, args)
    if head is t:
        raise LambError("not a term: %r" % (t,))
    return None


def is_whnf(t):
    return whnf_view(t) is not None


def head_step(t):
    """One head reduction of a non-whnf term, as a distribution.

    Beta for a unit-singleton abstraction operator, left-linearity when the
    operator distribution is not a unit singleton (this is where mass can
    leak), and the context rule pushing into the operator otherwise.

    The reduct is computed once per object: the application keeps it in
    its ``_step`` slot for as long as the application lives, and every
    later call, the context rule's inner one included, returns that same
    ``Dist``.  An alpha-equivalent copy that is another object has a slot
    of its own.
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
        return Dist(((App(unit(m), t.arg), n) for m, n in f._ints), f._den)
    if isinstance(m, Abs):
        return subst(m.body, m.binder, t.arg)
    if isinstance(m, App):
        return unit(App(head_step(m), t.arg))
    raise LambError("head_step on a weak head normal form")


def step(d):
    """One parallel step: every non-whnf entry is replaced by its head
    reduction scaled by its weight; whnf entries pass through."""
    return mixture([(n, t if is_whnf(t) else head_step(t)) for t, n in d._ints], d._den)


def vals(d):
    """Sub-distribution of ``d`` supported on weak head normal forms."""
    return Dist([(t, n) for t, n in d._ints if is_whnf(t)], d._den)


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
        return "EvolveReport(values=%r, residual=%s, steps_used=%d, converged=%s)" % (
            self.values,
            self.residual,
            self.steps_used,
            self.converged,
        )


def evolve(d, fuel):
    """Iterate the parallel step up to ``fuel`` times, stopping early when
    all mass is on values or the trajectory repeats.

    The result is that of iterating ``step``, but only the residual is
    stepped: ``d`` is split once into its values (canon -> [display term,
    numerator, last step that added to it]) and its non-whnf residual; each
    step head-reduces the residual's entries in canonical order, whnf
    reducts add into the values (``_add_value``, ``step``'s display rule)
    and the others form the next residual.  The values' numerators are
    over one running common denominator, raised to the lcm when a step
    needs a finer one.  The cycle check is keyed on (residual, value mass):
    the values only grow, so the whole distribution repeats exactly when
    this key does.

    A recurring term is reduced once: a residual entry is stepped through
    the first residual term of this call with its key when the two name
    every binder alike (``names_alike``), so that both print, and reduce,
    the same; an alpha-variant named otherwise is stepped on its own.

    A loop then closes.  After a step in which no residual entry was new
    and each was stepped through its first term, ``_closed_chain`` follows
    those terms' reducts; when every non-value reduct it reaches is again
    a first term or named alike with one, ``_run_chain`` spends the rest of
    the fuel on one integer numerator per term, building no ``Dist``,
    hashing no key and reducing no term, with the same report.

    The report is stored on ``d`` and returned as it is when ``d`` itself
    is evolved again at the same fuel; a new fuel replaces it.  A ``d``
    that is all values is its own report and is not stored, since the
    report would hold ``d`` itself.
    """
    cached = d._evolved
    if cached is not None and cached[0] == fuel:
        return cached[1]
    values = {}
    pending = []
    for t, n in d._ints:
        if is_whnf(t):
            values[t.canon()] = [t, n, -1]
        else:
            pending.append((t, n))
    if not pending:
        return EvolveReport(d, ZERO, 0, True, True)
    den = d._den
    residual = d if not values else Dist(pending, den)
    value_num = d._total - sum(n for _, n in pending)
    g = math.gcd(value_num, den)
    seen = {(residual, value_num // g, den // g)}
    steps = 0
    cycled = False
    chain = None
    # residual key -> the first residual term of this call with that key
    firsts = {}
    while steps < fuel and not residual.is_empty():
        known = len(firsts)
        alike = True
        reducts = []
        for t, n in residual._ints:
            first = firsts.setdefault(t._canon, t)
            if first is not t:
                if names_alike(first, t):
                    t = first
                else:
                    alike = False
            reducts.append((t, n, head_step(t)))
        lcm = math.lcm(*[h._den for _, _, h in reducts])
        step_den = residual._den * lcm
        grown = math.lcm(den, step_den)
        if grown != den:
            f = grown // den
            for slot in values.values():
                slot[1] *= f
            value_num *= f
            den = grown
        pending = []
        for t, n, h in reducts:
            s = n * (lcm // h._den) * (den // step_den)
            for rt, rn in h._ints:
                rn *= s
                if not is_whnf(rt):
                    pending.append((rt, rn))
                    continue
                k = rt._canon
                slot = values.get(k)
                if slot is None:
                    values[k] = [rt, rn, steps]
                else:
                    _add_value(slot, rt, rn, t._canon, k, steps)
                value_num += rn
        residual = Dist(pending, den)
        steps += 1
        g = math.gcd(value_num, den)
        key = (residual, value_num // g, den // g)
        if key in seen:
            cycled = True
            break
        seen.add(key)
        if alike and len(firsts) == known and steps < fuel and not residual.is_empty():
            chain = _closed_chain(firsts, reducts)
            if chain is not None:
                break
    left = residual.mass()
    if chain is not None:
        den, left, steps, cycled = _run_chain(chain, residual, values, den, seen, steps, fuel)
    converged = left == 0
    report = EvolveReport(
        Dist([(slot[0], slot[1]) for slot in values.values()], den),
        left, steps, converged, converged or cycled,
    )
    d._evolved = (fuel, report)
    return report


def _add_value(slot, rt, rn, key, k, stamp):
    """Add the value ``rt`` (key ``k``, numerator ``rn``), a reduct of the
    residual entry keyed ``key``, into its class's slot in step ``stamp``:
    ``step``'s display rule renames a class only with the first reduct
    into it in a step, when that reduct's entry sorts before the class."""
    if slot[2] != stamp:
        slot[2] = stamp
        if key < k:
            slot[0] = rt
    slot[1] += rn


def _closed_chain(firsts, reducts):
    """The first terms reachable from the stepped ones, by key, if every
    non-value reduct on the way is a first term or named alike with one."""
    chain = {}
    todo = [t for t, _, _ in reducts]
    for t in todo:
        if t._canon not in chain:
            chain[t._canon] = t
            for rt, _ in head_step(t)._ints:
                if not is_whnf(rt):
                    first = firsts.get(rt._canon)
                    if first is None or first is not rt and not names_alike(first, rt):
                        return None
                    todo.append(first)
    return chain


def _run_chain(chain, residual, values, den, seen, steps, fuel):
    """Step ``residual`` on the closed ``chain`` until the fuel is spent,
    the residual is empty or the state repeats; return (den, residual
    mass, steps, cycled).  The states are ranked in key order, the step
    loop's order, and each reduct is split once into value entries and
    successors over the lcm of the reducts' denominators, by which every
    step multiplies ``den``.  The total mass never grows, so a residual
    comes back only with the same values: the cycle check holds residuals
    alone, as reduced (vector, den) pairs, those seen before included."""
    keys = sorted(chain)
    rank = {k: i for i, k in enumerate(keys)}
    reducts = [head_step(chain[k]) for k in keys]
    lcm = math.lcm(*[h._den for h in reducts])
    found, succ = [], []
    for h in reducts:
        f = lcm // h._den
        found.append([(values[rt._canon], rt, rn * f, rt._canon)
                      for rt, rn in h._ints if is_whnf(rt)])
        succ.append([(rank[rt._canon], rn * f) for rt, rn in h._ints if not is_whnf(rt)])
    # the residual mass never grows, so only a residual of the present mass can recur
    vseen = {(tuple(v), r._den) for r, _, _ in seen
             if r._total * residual._den == residual._total * r._den
             and (v := _on_chain(r, rank)) is not None}
    vec = [n * (den // residual._den) for n in _on_chain(residual, rank)]
    start = den
    slots = {id(e[0]): e[0] for entries in found for e in entries}
    cycled = False
    while steps < fuel and any(vec):
        for slot in slots.values():
            slot[1] *= lcm
        den *= lcm
        nxt = [0] * len(vec)
        for i, r in enumerate(vec):
            if r:
                for slot, rt, c, k in found[i]:
                    _add_value(slot, rt, r * c, keys[i], k, steps)
                for j, c in succ[i]:
                    nxt[j] += r * c
        vec = nxt
        steps += 1
        g = math.gcd(den, *vec)
        key = (tuple([n // g for n in vec]), den // g)
        if key in vseen:
            cycled = True
            break
        vseen.add(key)
    for slot in values.values():
        if id(slot) not in slots:
            slot[1] *= den // start
    return den, Fraction(sum(vec), den), steps, cycled


def _on_chain(d, rank):
    """The numerators of ``d`` by rank; None if a term is off the chain."""
    vec = [0] * len(rank)
    for t, n in d._ints:
        i = rank.get(t._canon)
        if i is None:
            return None
        vec[i] = n
    return vec


def step_entry(d, index):
    """Reference sequential step: reduce only the ``index``-th non-whnf
    entry (canonical order) by one head reduction."""
    parts = []
    seen = -1
    for t, n in d._ints:
        if not is_whnf(t):
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
        pending = sum(1 for t, _ in cur.entries() if not is_whnf(t))
        if pending == 0:
            return EvolveReport(vals(cur), ZERO, steps, True, True)
        index = rng.randrange(pending) if rng is not None else 0
        cur = step_entry(cur, index)
    v = vals(cur)
    residual = cur.mass() - v.mass()
    return EvolveReport(v, residual, max_steps, residual == 0, residual == 0)
