"""Probabilistic lifting of a relation to finite subprobability distributions.

A relation R between the supports of two weighted point sets lifts to the
distributions when the source mass can be split along R-edges so that every
source point is fully matched and no target point is over-subscribed.  On
finite supports this is a bipartite max-flow question; the dual view is the
splitting criterion: the lift holds iff every R-closed subset C of the
source support weighs no more than the R-image of C does on the target.

Two deciders are provided: ``lift_check_flow`` (augmenting-path max flow,
with a min-cut witness) and ``lift_check_subsets`` (direct enumeration of
subsets, exponential, used as an oracle).  Both decide on Python ints: each
call multiplies its weights once by L, the lcm of their denominators, and
divides back once at the end.  Max flow and the splitting inequalities are
invariant under scaling by L > 0, so verdicts, deficits and cuts are the
exact rational ones; ``Fraction`` appears only where values enter and
leave this module.

``max_flow`` is the one flow engine: int supplies and demands, index pairs
for edges, and the residual-reachable supplies back.  ``lift_check_flow``
is its rational edge, for ``FinSupportDist`` points and weights; the
simulation's spine blocks go through it, and approximant membership, which
already holds ints, calls ``max_flow`` itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .syntax import LambError, ZERO


class DimensionMismatchError(LambError):
    """Relation mentions a point outside the distributions' supports."""


class SupportTooLargeError(LambError):
    """Subset enumeration refused: source support exceeds the guard."""


class FinSupportDist:
    """Finite-support weighted point set: distinct opaque points with
    positive rational weights summing to at most 1.

    ``FinSupportDist(points, weights)`` reads rational weights (ints or
    ``Fraction``s); ``FinSupportDist(points, nums, den)`` reads int
    numerators over the positive int ``den``, as ``Dist(pairs, den)``
    does.  ``weights`` builds its ``Fraction``s on first use.
    """

    # _scaled is (L, weights times L as ints), L a common denominator;
    # _weights is None until ``weights`` is first read
    __slots__ = ("points", "_weights", "_scaled")

    def __init__(self, points, weights, den=None):
        points = tuple(points)
        if den is None:
            weights = tuple(w if type(w) is Fraction else Fraction(w) for w in weights)
            den = math.lcm(*(w.denominator for w in weights))
            nums = [w.numerator * (den // w.denominator) for w in weights]
        else:
            nums = list(weights)
            weights = None
        if len(points) != len(set(points)):
            raise LambError("duplicate points in support")
        if len(points) != len(nums):
            raise LambError("points/weights length mismatch")
        if any(n <= 0 for n in nums):
            raise LambError("weights must be positive")
        if sum(nums) > den:
            raise LambError("total mass exceeds 1")
        self.points = points
        self._weights = weights
        self._scaled = (den, nums)

    @property
    def weights(self):
        w = self._weights
        if w is None:
            den, nums = self._scaled
            w = self._weights = tuple(Fraction(n, den) for n in nums)
        return w

    def mass(self):
        return Fraction(sum(self._scaled[1]), self._scaled[0])

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


def max_flow(supplies, demands, pairs):
    """Maximum flow through the bipartite lift network on int capacities.

    Supply ``i`` holds ``supplies[i]``, demand ``j`` takes at most
    ``demands[j]``, and each (supply index, demand index) pair in ``pairs``
    is an uncapacitated edge.  Returns the flow value and the supply indices
    the source still reaches in the residual graph: the source side of the
    minimum cut that lies inside every other.  That set is the same for
    every maximum flow, so it depends neither on the order of the
    augmenting paths nor on the hash seed.  Shortest augmenting paths;
    vertex 0 is the source, 1 the sink, 2 + i supply i and 2 + n + j
    demand j, for n supplies.
    """
    n = len(supplies)
    out = [[] for _ in range(2 + n + len(demands))]  # ids of the edges leaving a vertex
    dst, cap = [], []  # edge id -> head, residual capacity; edge e ^ 1 reverses e
    big = sum(supplies) + 1  # no flow exhausts a middle edge
    edges = [(0, i, c) for i, c in enumerate(supplies, 2)]
    edges += [(j, 1, c) for j, c in enumerate(demands, 2 + n)]
    edges += [(2 + i, 2 + n + j, big) for i, j in pairs]
    for u, v, c in edges:
        out[u].append(len(dst))
        out[v].append(len(dst) + 1)
        dst += (v, u)
        cap += (c, 0)
    total = 0
    while True:
        via = {0: None}  # reached vertex -> edge it was reached by
        queue = [0]
        for u in queue:
            for e in out[u]:
                if cap[e] and dst[e] not in via:
                    via[dst[e]] = e
                    queue.append(dst[e])
            if 1 in via:
                break
        else:
            return total, frozenset(v - 2 for v in via if 2 <= v < 2 + n)
        path = []
        v = 1
        while v:
            path.append(via[v])
            v = dst[via[v] ^ 1]
        push = min(cap[e] for e in path)
        for e in path:
            cap[e] -= push
            cap[e ^ 1] += push
        total += push


def _integers(d, e, related):
    """``related`` as (source index, target index) pairs, the lcm L of
    both sides' denominators, and each side's weights times L."""
    si = {a: i for i, a in enumerate(d.points)}
    ti = {b: j for j, b in enumerate(e.points)}
    pairs = set()
    for a, b in related:
        if a not in si or b not in ti:
            raise DimensionMismatchError(
                "relation pair (%r, %r) not within the supports" % (a, b)
            )
        pairs.add((si[a], ti[b]))
    (ld, xd), (le, xe) = d._scaled, e._scaled
    lcm = math.lcm(ld, le)
    return pairs, lcm, [x * (lcm // ld) for x in xd], [x * (lcm // le) for x in xe]


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
    pairs, scale, sw, tw = _integers(d, e, related)
    value, reached = max_flow(sw, tw, pairs)
    gap = sum(sw) - value
    deficit = Fraction(gap, scale) - slack if gap else ZERO
    if deficit <= 0:
        return LiftVerdict(True, ZERO, frozenset())
    cut = frozenset(d.points[i] for i in reached)
    return LiftVerdict(False, deficit, cut)


_SUBSET_GUARD = 20


def _subset_tables(items):
    """Sum of the weights and union of the masks of every subset of
    ``items``, (weight, mask) pairs, indexed by the subset's bitmask."""
    sums, unions = [0], [0]
    for w, m in items:
        sums += [s + w for s in sums]
        unions += [u | m for u in unions]
    return sums, unions


def lift_check_subsets(d, e, related):
    """Oracle decider: enumerate the subsets of the source support.

    The lift holds iff no subset C outweighs its R-image.  The most
    violating subset, the first in mask order over ``d.points``, and its
    deficit are reported on failure.  Only R-closed subsets (those holding
    every source point whose R-image lies inside the R-image of C) can be
    the most violating: adding such a point keeps the image and adds
    weight.  Guarded to supports of at most 20 points.

    Weights are ints over the lcm of all denominators and images are
    bitmasks over ``e.points``.  The masks are split into a low and a high
    half, each with a table of its 2^(n/2) subsets, and the target weight
    of an image is read from tables of 8-point chunks, so memory stays
    small up to the guard.
    """
    if len(d) > _SUBSET_GUARD:
        raise SupportTooLargeError(
            "source support %d exceeds %d" % (len(d), _SUBSET_GUARD)
        )
    pairs, scale, sw, tw = _integers(d, e, related)
    image = [0] * len(sw)
    for i, j in pairs:
        image[i] |= 1 << j
    items, half = list(zip(sw, image)), (len(sw) + 1) // 2
    lo_w, lo_img = _subset_tables(items[:half])
    hi_w, hi_img = _subset_tables(items[half:])
    shifts = range(0, len(tw), 8)
    chunks = [_subset_tables([(w, 0) for w in tw[s:s + 8]])[0] for s in shifts]
    worst = worst_mask = 0
    for hi, (hw, himg) in enumerate(zip(hi_w, hi_img)):
        imgs = [himg | li for li in lo_img]
        violations = [hw + lw for lw in lo_w]
        for s, chunk in zip(shifts, chunks):
            violations = [v - chunk[img >> s & 255] for v, img in zip(violations, imgs)]
        top = max(violations)
        if top > worst:
            worst = top
            worst_mask = hi << half | violations.index(top)
    if not worst:
        return LiftVerdict(True, ZERO, frozenset())
    cut = frozenset(a for i, a in enumerate(d.points) if worst_mask >> i & 1)
    return LiftVerdict(False, Fraction(worst, scale), cut)
