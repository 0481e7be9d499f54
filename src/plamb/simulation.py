"""Bounded open simulation and bisimulation with counterexample witnesses.

The check is stratified by depth: depth 0 relates everything, and depth k
compares the fuel-evolved value distributions of the two sides, splitting
each into one abstraction block plus one point per open-application spine.
The abstraction block is compared by convergence mass and by recursing at
depth k-1 on the bodies applied to a shared fresh symbol (abstraction is
linear with respect to formal sums, so a single block is sound and
complete).  Spine points are compared by an exact max-flow matching whose
edges require equal head and arity and, for every argument position, a
nested check at the same depth; merging spine points instead would conflate
behaviorally different sums, so they stay separate.  The split, the spine
pairs of one call family, the fresh ret symbol and the abstraction block's
ret target are the transition system's own (``lts.split_values``,
``lts.call_pairs``, ``lts.fresh_symbol`` and ``lts.ret_block``, which a
distribution keeps, so runs against one program share its unfolding);
this module only decides how each pair is compared and how much mass
each comparison may miss.  Each ``evolve`` call keeps an alike table of its
own, so alike terms share their head reducts within a call, not across
the calls of a run.

Depth therefore counts applicative (ret) unfoldings; spine argument edges
do not consume depth, and re-entrant argument comparisons (possible only
through recursive spines) are resolved coinductively by assuming the
in-progress pair holds.  Both choices only ever add "no counterexample"
outcomes; every refutation remains a genuine one.  A result that rests on
such an assumption is memoized only once the assumption is discharged:
each in-progress pair keeps its stack position, and a "holds" result is
kept only when no pair it assumed lies below its own position; otherwise
the lowest assumed position is passed up to the caller, and the result is
computed again if asked for after its assumption has been settled.
Refutations are always kept, since an assumption only adds edges.

Refutation slack: mass still unreduced on the target side could later
become value mass of any shape, so it is added as an allowance to every
mass comparison at the current level and threaded down the ret recursion.
Residual mass whose trajectory provably cycles (for example the pure
divergent loop) can never convert and contributes no slack, which is what
makes divergence refutable.  Exactness is one flag of the run, which any
evolution that leaves residual mass clears.  A verdict with ``exact=True``
had zero residual everywhere and decides its stratum precisely; a non-exact
``NoCounterexample`` deliberately claims nothing beyond "no counterexample
at these bounds".

Reflexive pairs: a non-strict pair whose sides have equal keys holds at
once.  Alpha-equal sides evolve alike, with abstraction gap 0, alpha-equal
``ret`` blocks at the shared symbol and, at every spine point, a diagonal
edge whose arguments are again such pairs; by induction on depth the full
comparison holds under any slack, and neither refuting nor assuming, it
changes no witness or memo, only ``exact``.  It evolves parts of the left
side's unfolding or alike copies (at most under another fresh ``ret``
symbol: no residual changes), which ``_settle`` evolves on one side.  Keys
too deep to compare are compared in full; strict runs always are.

A strict run decides approximant membership (``approximants.approx_check``):
it grants no slack, depth 0 admits no value (the left side is compared with
the empty distribution), ``ret`` blocks and spine arguments are compared
one depth down, and every comparison is strict.  For that, a level with p
spine points on the left scales its masses by p + 1 and bumps every supply
by 1.  Masses are then multiples of p + 1, so a set of points that fits
strictly has room p + 1, which its bump (at most p, or 1 for the block)
cannot use up, while a set that does not fit strictly overflows by its
bump: the bumped supplies flow in full, and the bumped block fits, exactly
when the comparison is strict.  The left side of a strict run is an
embedded candidate, a ``ret`` block of one or an argument of one, so it
holds only values and the shared ``DIVERGE``: evolving it would change
nothing it affords, and its split is read as it stands.
"""

from __future__ import annotations

import enum
import math

from fractions import Fraction

from .lifting import max_flow
from .lifting import lift_check_flow  # unused here; perfbench/tracing.py rebinds it
from .lts import Ret, call_pairs, fresh_symbol, ret_block, split_values
from .reduction import evolve
from .syntax import EMPTY, LambError, print_weight
from .syntax import subst  # unused here; perfbench/tracing.py rebinds it


class SimParams:
    """Bounds for a simulation check: stratum depth, evolve fuel per level,
    and whether residual mass grants refutation slack (default yes)."""

    __slots__ = ("depth", "fuel", "slack_enabled")

    def __init__(self, depth, fuel, slack_enabled=True):
        if depth < 0 or fuel < 0:
            raise LambError("depth and fuel must be nonnegative")
        self.depth = depth
        self.fuel = fuel
        self.slack_enabled = slack_enabled

    def __repr__(self):
        return "SimParams(depth=%d, fuel=%d, slack_enabled=%s)" % (
            self.depth,
            self.fuel,
            self.slack_enabled,
        )


class WitnessKind(enum.Enum):
    CONVERGE_DEFICIT = "ConvergeDeficit"
    KERNEL_TYPE_MISMATCH = "KernelTypeMismatch"
    FLOW_DEFICIT = "FlowDeficit"


class Witness:
    """Replayable refutation: the labels taken from the root pair to the
    failing comparison, which test failed, the violating source entries,
    and the exact mass deficit after slack.

    Following the path with ``lts.weak_max_transition`` from both evolved
    sides reaches the failing pair, and recomputing the slack there gives
    the deficit back; ``tests/test_simulation.py`` replays every witness of
    a seeded sample this way."""

    __slots__ = ("path", "kind", "cut", "deficit")

    def __init__(self, path, kind, cut, deficit):
        self.path = tuple(path)
        self.kind = kind
        self.cut = tuple(cut)
        self.deficit = deficit

    def prepend(self, label):
        return Witness((label,) + self.path, self.kind, self.cut, self.deficit)

    def __repr__(self):
        return "Witness(path=%r, kind=%s, deficit=%s, cut=%r)" % (
            list(self.path),
            self.kind.value,
            print_weight(self.deficit),
            list(self.cut),
        )

    def to_dict(self):
        return {
            "path": [str(l) for l in self.path],
            "kind": self.kind.value,
            "deficit": print_weight(self.deficit),
            "cut": [repr(t) for t in self.cut],
        }


class Verdict:
    """The outcome of a bounded check; ``holds``, ``exact`` and ``witness``
    are an attribute or class data of each kind."""

    __slots__ = ()

    def to_dict(self):
        return {
            "holds_at_bound": self.holds,
            "exact": self.exact,
            "depth": self.params.depth,
            "fuel": self.params.fuel,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


class NoCounterexample(Verdict):
    """No test failed within the bounds.  Asserts the simulation stratum
    only when ``exact`` is true; otherwise it is an honest "not refuted"."""

    __slots__ = ("params", "exact")
    holds = True
    witness = None

    def __init__(self, params, exact):
        self.params = params
        self.exact = exact

    def __repr__(self):
        return "NoCounterexample(%r, exact=%s)" % (self.params, self.exact)


class Refuted(Verdict):
    __slots__ = ("params", "witness")
    holds = False
    exact = False

    def __init__(self, params, witness):
        self.params = params
        self.witness = witness

    def __repr__(self):
        return "Refuted(%r)" % (self.witness,)


class _SimState:
    """One ``sim_check`` run.  ``memo`` maps decided pairs to their witness
    or None; ``inprog`` maps each in-progress pair to its stack position,
    and ``low`` is the lowest position assumed by the pair now being
    decided.  ``exact`` stays true until an evolution leaves residual mass:
    the run then claims no more than "no counterexample at these bounds".
    ``settled`` holds the ``(key, depth)`` parts ``_settle`` has walked, and
    ``strict`` marks a membership run (see the module docstring)."""

    __slots__ = ("fuel", "slack_enabled", "strict", "memo", "inprog", "low", "exact", "settled")

    def __init__(self, fuel, slack_enabled, strict=False):
        self.fuel = fuel
        self.slack_enabled = slack_enabled
        self.strict = strict
        self.memo = {}
        self.inprog = {}
        self.low = 0
        self.exact = True
        self.settled = set()


# what the memo answers for a pair not yet decided (None is a decision)
_UNDECIDED = object()


def _sim(st, m, n, k, sn, sd):
    """The witness refuting ``m`` against ``n`` at depth ``k`` with the
    slack ``sn / sd`` (ints in lowest terms), or None.  Witness paths are
    relative to this pair; callers prepend their own label."""
    if k == 0:
        if not st.strict:
            return None
        # index 0 of a strict run admits no value, as if the right were empty
        n = EMPTY
    mk, nk = m.canon(), n.canon()
    if not st.strict and _equal_keys(mk, nk):
        _settle(st, m, k)
        return None
    key = (mk, nk, k, sn, sd)
    wit = st.memo.get(key, _UNDECIDED)
    if wit is not _UNDECIDED:
        return wit
    pos = st.inprog.get(key)
    if pos is not None:
        # re-entrant pair within a stratum: coinductive assumption
        st.low = min(st.low, pos)
        return None
    pos = st.inprog[key] = len(st.inprog)
    outer, st.low = st.low, pos
    try:
        wit = _sim_level(st, m, n, k, sn, sd)
    finally:
        del st.inprog[key]
    low, st.low = st.low, min(outer, st.low)
    if wit is not None or low >= pos:
        st.memo[key] = wit
    return wit


def _equal_keys(mk, nk):
    """Whether two keys are known equal (not if too deep to compare)."""
    try:
        return mk == nk
    except RecursionError:
        return False


def _settle(st, m, k):
    """Clear ``st.exact`` if comparing ``m`` with a copy at depth ``k`` would:
    walk ``m``'s unfolding one-sided, until an evolution leaves residual."""
    if not st.exact or k == 0 or (key := (m.canon(), k)) in st.settled:
        return
    st.settled.add(key)
    rm = evolve(m, st.fuel)
    if rm.residual:
        st.exact = False
        return
    d_abs, d_app = split_values(rm.values)
    if d_abs:
        _settle(st, ret_block(rm.values, fresh_symbol(d_abs)), k - 1)
    for _, _, view in d_app:
        for a in view.args:
            _settle(st, a, k)


def _sim_level(st, m, n, k, sn, sd):
    if st.strict:
        # values and the shared DIVERGE only: the split is read as it stands
        d, rn = m, evolve(n, st.fuel)
    else:
        rm, rn = evolve(m, st.fuel), evolve(n, st.fuel)
        d = rm.values
        if rm.residual or rn.residual:
            st.exact = False
    if st.slack_enabled and not rn.limit_exact:
        live = rn.residual
        sn, sd = sn * live.denominator + live.numerator * sd, sd * live.denominator
        g = math.gcd(sn, sd)
        sn, sd = sn // g, sd // g

    # masses and the slack as ints over one common denominator
    dd, de = d._den, rn.values._den
    den = math.lcm(dd, de, sd)
    fd, fe, slack = den // dd, den // de, sn * (den // sd)
    d_abs, d_app = split_values(d)
    e_abs, e_app = split_values(rn.values)
    bump = 0
    if st.strict:
        # p + 1 points, each supply bumped by 1: the module docstring says
        # why the comparisons below are then strict
        scale, bump = len(d_app) + 1, 1
        den, fd, fe = den * scale, fd * scale, fe * scale

    # (a) abstraction block: convergence mass, then the shared applicative test
    if d_abs:
        gap = sum(w for _, w, _ in d_abs) * fd + bump - sum(w for _, w, _ in e_abs) * fe
        if gap > slack:
            return Witness(
                (),
                WitnessKind.CONVERGE_DEFICIT,
                tuple(t for t, _, _ in d_abs),
                Fraction(gap - slack, den),
            )
        sym = fresh_symbol(d_abs, e_abs)
        wit = _sim(st, ret_block(d, sym), ret_block(rn.values, sym), k - 1, sn, sd)
        if wit is not None:
            return wit.prepend(Ret(sym))

    # (b) spine points, matched by exact max flow over the pairs of one call
    # family whose arguments pass at unit scale, at the current depth (one
    # index down in a strict run);
    # points are entry indices, whose order is the canonical order, and the
    # witness cut is the residual-reachable side of the minimum cut
    if d_app:
        edges = []
        for i, j, args in call_pairs(d_app, e_app):
            for a, b in args:
                if _sim(st, a, b, k - 1 if st.strict else k, 0, 1) is not None:
                    break
            else:
                edges.append((i, j))
        supplies = [w * fd + bump for _, w, _ in d_app]
        value, reached = max_flow(supplies, [w * fe for _, w, _ in e_app], edges)
        gap = sum(supplies) - value
        if gap > slack:
            kind = (
                WitnessKind.KERNEL_TYPE_MISMATCH
                if not e_app
                else WitnessKind.FLOW_DEFICIT
            )
            cut = tuple(d_app[i][0] for i in sorted(reached))
            return Witness((), kind, cut, Fraction(gap - slack, den))
    return None


def sim_check(m, n, params):
    """Bounded simulation check of ``m`` against ``n``.

    ``Refuted`` is always sound: the witness replays to a genuine mass
    deficit that no continuation of the target's unreduced mass could
    cover.  ``NoCounterexample`` decides the stratum only when exact.
    """
    st = _SimState(params.fuel, params.slack_enabled)
    wit = _sim(st, m, n, params.depth, 0, 1)
    if wit is None:
        return NoCounterexample(params, st.exact)
    return Refuted(params, wit)


def bisim_check(m, n, params):
    """Both simulation directions; bisimilar at the bound iff both hold."""
    return sim_check(m, n, params), sim_check(n, m, params)

