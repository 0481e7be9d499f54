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
behaviorally different sums, so they stay separate.  The split and the
abstraction block's ret target are the transition system's own
(``lts.split_values`` and ``lts.ret_block``); this module only decides
which pairs to compare and how much mass each comparison may miss.

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
"""

from __future__ import annotations

import enum
import math

from fractions import Fraction

from .lifting import max_flow
from .lifting import lift_check_flow  # unused here; perfbench/tracing.py rebinds it
from .lts import Ret, ret_block, split_values
from .reduction import evolve
from .syntax import LambError, fresh_name, print_weight
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
    __slots__ = ()

    @property
    def holds(self):
        raise NotImplementedError


class NoCounterexample(Verdict):
    """No test failed within the bounds.  Asserts the simulation stratum
    only when ``exact`` is true; otherwise it is an honest "not refuted"."""

    __slots__ = ("params", "exact")

    def __init__(self, params, exact):
        self.params = params
        self.exact = exact

    @property
    def holds(self):
        return True

    def __repr__(self):
        return "NoCounterexample(%r, exact=%s)" % (self.params, self.exact)

    def to_dict(self):
        return {
            "holds_at_bound": True,
            "exact": self.exact,
            "depth": self.params.depth,
            "fuel": self.params.fuel,
            "witness": None,
        }


class Refuted(Verdict):
    __slots__ = ("params", "witness")

    def __init__(self, params, witness):
        self.params = params
        self.witness = witness

    @property
    def holds(self):
        return False

    def __repr__(self):
        return "Refuted(%r)" % (self.witness,)

    def to_dict(self):
        return {
            "holds_at_bound": False,
            "exact": False,
            "depth": self.params.depth,
            "fuel": self.params.fuel,
            "witness": self.witness.to_dict(),
        }


class _SimState:
    """One ``sim_check`` run.  ``memo`` maps decided pairs to their witness
    or None; ``inprog`` maps each in-progress pair to its stack position,
    and ``low`` is the lowest position assumed by the pair now being
    decided.  ``exact`` stays true until an evolution leaves residual mass:
    the run then claims no more than "no counterexample at these bounds"."""

    __slots__ = ("fuel", "slack_enabled", "memo", "inprog", "low", "exact")

    def __init__(self, fuel, slack_enabled):
        self.fuel = fuel
        self.slack_enabled = slack_enabled
        self.memo = {}
        self.inprog = {}
        self.low = 0
        self.exact = True


def _sim(st, m, n, k, sn, sd):
    """The witness refuting ``m`` against ``n`` at depth ``k`` with the
    slack ``sn / sd`` (ints in lowest terms), or None.  Witness paths are
    relative to this pair; callers prepend their own label."""
    if k == 0:
        return None
    key = (m.canon(), n.canon(), k, sn, sd)
    if key in st.memo:
        return st.memo[key]
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


def _sim_level(st, m, n, k, sn, sd):
    rm = evolve(m, st.fuel)
    rn = evolve(n, st.fuel)
    if rm.residual or rn.residual:
        st.exact = False
    if st.slack_enabled and not rn.limit_exact:
        live = rn.residual
        sn, sd = sn * live.denominator + live.numerator * sd, sd * live.denominator
        g = math.gcd(sn, sd)
        sn, sd = sn // g, sd // g

    # masses and the slack as ints over one common denominator
    dd, de = rm.values._den, rn.values._den
    den = math.lcm(dd, de, sd)
    fd, fe, slack = den // dd, den // de, sn * (den // sd)
    d_abs, d_app = split_values(rm.values)
    e_abs, e_app = split_values(rn.values)

    # (a) abstraction block: convergence mass, then the shared applicative test
    gap = sum(w for _, w, _ in d_abs) * fd - sum(w for _, w, _ in e_abs) * fe
    if gap > slack:
        return Witness(
            (),
            WitnessKind.CONVERGE_DEFICIT,
            tuple(t for t, _, _ in d_abs),
            Fraction(gap - slack, den),
        )
    if d_abs:
        sym = fresh_name(_block_names(d_abs) | _block_names(e_abs))
        d_body = ret_block(d_abs, dd, sym)
        e_body = ret_block(e_abs, de, sym)
        wit = _sim(st, d_body, e_body, k - 1, sn, sd)
        if wit is not None:
            return wit.prepend(Ret(sym))

    # (b) spine points, matched by exact max flow over same-head edges;
    # points are entry indices, whose order is the canonical order, and the
    # witness cut is the residual-reachable side of the minimum cut
    if d_app:
        edges = [
            (i, j)
            for i, (_, _, vu) in enumerate(d_app)
            for j, (_, _, vv) in enumerate(e_app)
            if _edge(st, vu, vv, k)
        ]
        supplies = [w * fd for _, w, _ in d_app]
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


def _block_names(entries):
    names = set()
    for t, _, _ in entries:
        names |= t.free_names()
    return names


def _edge(st, vu, vv, k):
    """Edge predicate between two spine views: same head, same arity, and
    every argument pair passes at the current depth and unit scale."""
    return (
        vu.head == vv.head
        and len(vu.args) == len(vv.args)
        and all(_sim(st, au, av, k, 0, 1) is None for au, av in zip(vu.args, vv.args))
    )


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

