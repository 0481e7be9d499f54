"""Probabilistic lifting of a relation to finite subprobability distributions.

A relation R between the supports of two weighted point sets lifts to the
distributions when the source mass can be split along R-edges so that every
source point is fully matched and no target point is over-subscribed.  On
finite supports this is a bipartite max-flow question; the dual view is the
splitting criterion: the lift holds iff every R-closed subset C of the
source support weighs no more than the R-image of C does on the target.

Two deciders are provided: ``lift_check_flow`` (augmenting-path max flow
over exact rationals, with a min-cut witness) and ``lift_check_subsets``
(direct enumeration of closed subsets, exponential, used as an oracle).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .syntax import LambError, ZERO


class DimensionMismatchError(LambError):
    """Relation mentions a point outside the distributions' supports."""


class SupportTooLargeError(LambError):
    """Subset enumeration refused: source support exceeds the guard."""


class FinSupportDist:
    """Finite-support weighted point set: distinct opaque points with
    positive rational weights summing to at most 1."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        points = tuple(points)
        weights = tuple(Fraction(w) for w in weights)
        if len(points) != len(set(points)):
            raise LambError("duplicate points in support")
        if len(points) != len(weights):
            raise LambError("points/weights length mismatch")
        if any(w <= 0 for w in weights):
            raise LambError("weights must be positive")
        if sum(weights, ZERO) > 1:
            raise LambError("total mass exceeds 1")
        self.points = points
        self.weights = weights

    def mass(self):
        return sum(self.weights, ZERO)

    def __len__(self):
        return len(self.points)


class LiftVerdict:
    __slots__ = ("holds", "deficit", "witness_cut")

    def __init__(self, holds, deficit, witness_cut):
        self.holds = holds
        self.deficit = deficit
        self.witness_cut = frozenset(witness_cut)

    def __repr__(self):
        if self.holds:
            return "LiftVerdict(holds)"
        cut = ", ".join(sorted(map(repr, self.witness_cut)))
        return "LiftVerdict(deficit=%s, cut={%s})" % (self.deficit, cut)


class FlowNetwork:
    """Directed flow network over exact rational capacities."""

    class _Edge:
        __slots__ = ("dst", "rev", "cap")

        def __init__(self, dst, rev, cap):
            self.dst = dst
            self.rev = rev
            self.cap = cap

    def __init__(self):
        self.adj = {}

    def _node(self, v):
        if v not in self.adj:
            self.adj[v] = []
        return self.adj[v]

    def add_edge(self, u, v, cap):
        cap = Fraction(cap)
        if cap < 0:
            raise LambError("negative capacity")
        fu = self._node(u)
        fv = self._node(v)
        fu.append(FlowNetwork._Edge(v, len(fv), cap))
        fv.append(FlowNetwork._Edge(u, len(fu) - 1, ZERO))

    def max_flow(self, source, sink):
        """Exact maximum flow by shortest augmenting paths."""
        self._node(source)
        self._node(sink)
        total = ZERO
        while True:
            parent = self._bfs(source, sink)
            if parent is None:
                return total
            # bottleneck along the path
            push = None
            v = sink
            while v != source:
                u, e = parent[v]
                push = e.cap if push is None else min(push, e.cap)
                v = u
            v = sink
            while v != source:
                u, e = parent[v]
                e.cap -= push
                self.adj[e.dst][e.rev].cap += push
                v = u
            total += push

    def _bfs(self, source, sink):
        parent = {source: None}
        q = deque((source,))
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                if e.cap > 0 and e.dst not in parent:
                    parent[e.dst] = (u, e)
                    if e.dst == sink:
                        return parent
                    q.append(e.dst)
        return None

    def residual_reachable(self, source):
        """Vertices reachable from ``source`` in the residual graph; after a
        max-flow run this is the source side of a minimum cut."""
        seen = {source}
        q = deque((source,))
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                if e.cap > 0 and e.dst not in seen:
                    seen.add(e.dst)
                    q.append(e.dst)
        return seen


def max_flow(supplies, demands, edges):
    """Value of the maximum flow through the bipartite lift network.

    ``supplies``/``demands`` map points to capacities, ``edges`` is a set of
    (source point, target point) pairs.  Middle edges get capacity
    total-supply + 1, which no finite flow can exhaust.
    """
    return _build_network(supplies, demands, edges).max_flow(_SRC, _SNK)


_SRC = ("src",)
_SNK = ("snk",)


def _build_network(supplies, demands, edges):
    net = FlowNetwork()
    total = sum(supplies.values(), ZERO)
    big = total + 1
    for a, p in supplies.items():
        net.add_edge(_SRC, ("a", a), p)
    for b, q in demands.items():
        net.add_edge(("b", b), _SNK, q)
    for a, b in edges:
        net.add_edge(("a", a), ("b", b), big)
    return net


def _check_dims(d, e, related):
    src = set(d.points)
    tgt = set(e.points)
    for a, b in related:
        if a not in src or b not in tgt:
            raise DimensionMismatchError(
                "relation pair (%r, %r) not within the supports" % (a, b)
            )


def lift_check_flow(d, e, related, slack=ZERO):
    """Decide the lift of ``related`` between ``d`` and ``e`` by max flow.

    ``slack`` is an allowance subtracted from any deficit before deciding;
    the verdict holds iff flow + slack covers the source mass.  The witness
    cut is the set of source points on the residual-reachable side of the
    minimum cut; it is closed under "R-image already covered" and violates
    the splitting inequality by exactly deficit + slack.
    """
    slack = Fraction(slack)
    if slack < 0:
        raise LambError("slack must be nonnegative")
    _check_dims(d, e, related)
    supplies = dict(zip(d.points, d.weights))
    demands = dict(zip(e.points, e.weights))
    net = _build_network(supplies, demands, set(related))
    value = net.max_flow(_SRC, _SNK)
    need = d.mass()
    if value + slack >= need:
        return LiftVerdict(True, ZERO, frozenset())
    side = net.residual_reachable(_SRC)
    cut = frozenset(a for a in d.points if ("a", a) in side)
    return LiftVerdict(False, need - value - slack, cut)


_SUBSET_GUARD = 20


def lift_check_subsets(d, e, related):
    """Oracle decider: enumerate closed subsets of the source support.

    A subset C is closed when it contains every source point whose R-image
    lies inside the R-image of C; the lift holds iff no closed subset
    outweighs its image.  The most violating subset and its deficit are
    reported on failure.  Guarded to supports of at most 20 points.
    """
    if len(d) > _SUBSET_GUARD:
        raise SupportTooLargeError(
            "source support %d exceeds %d" % (len(d), _SUBSET_GUARD)
        )
    _check_dims(d, e, related)
    related = set(related)
    image = {a: frozenset(b for (x, b) in related if x == a) for a in d.points}
    tweight = dict(zip(e.points, e.weights))
    sweight = dict(zip(d.points, d.weights))
    points = list(d.points)
    worst = ZERO
    worst_cut = frozenset()
    for mask in range(1 << len(points)):
        c = [a for i, a in enumerate(points) if mask >> i & 1]
        img = frozenset().union(*(image[a] for a in c)) if c else frozenset()
        if any(a not in c and image[a] <= img for a in points):
            continue  # not closed: adding such a point only worsens it
        violation = sum((sweight[a] for a in c), ZERO) - sum(
            (tweight[b] for b in img), ZERO
        )
        if violation > worst:
            worst = violation
            worst_cut = frozenset(c)
    if worst == 0:
        return LiftVerdict(True, ZERO, frozenset())
    return LiftVerdict(False, worst, worst_cut)
