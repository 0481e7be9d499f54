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
for edges, and the residual-reachable supplies back.  It works on the
bipartite graph itself: a greedy pass along the pairs, then shortest
augmenting paths through the residual graph, whose backward crossings are
the positive flows.  ``lift_check_flow`` is its rational edge, for
``FinSupportDist`` points and weights.  The simulation's spine blocks and
approximant membership, which already hold ints, call ``max_flow``
themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .syntax import LambError, ZERO, print_weight


class DimensionMismatchError(LambError):
    """Relation mentions a point outside the distributions' supports."""


class SupportTooLargeError(LambError):
    """Subset enumeration refused: source support exceeds the guard."""


class FinSupportDist:
    """Finite-support weighted point set: distinct opaque points with
    positive rational weights (ints or ``Fraction``s) summing to at most 1.
    """

    # _scaled is (L, weights times L as ints), L the lcm of the denominators
    __slots__ = ("points", "weights", "_scaled")

    def __init__(self, points, weights):
        points = tuple(points)
        weights = tuple(w if type(w) is Fraction else Fraction(w) for w in weights)
        den = math.lcm(*(w.denominator for w in weights))
        nums = [w.numerator * (den // w.denominator) for w in weights]
        if len(points) != len(set(points)):
            raise LambError("duplicate points in support")
        if len(points) != len(nums):
            raise LambError("points/weights length mismatch")
        if any(n <= 0 for n in nums):
            raise LambError("weights must be positive")
        if sum(nums) > den:
            raise LambError("total mass exceeds 1")
        self.points = points
        self.weights = weights
        self._scaled = (den, nums)

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
        return "LiftVerdict(deficit=%s, cut={%s})" % (print_weight(self.deficit), cut)

    def to_dict(self):
        return {
            "holds": self.holds,
            "deficit": print_weight(self.deficit),
            "witness_cut": sorted(map(str, self.witness_cut)),
        }


def max_flow(supplies, demands, pairs):
    """Maximum flow through the bipartite lift network on int capacities.

    Supply ``i`` holds ``supplies[i]``, demand ``j`` takes at most
    ``demands[j]``, and each (supply index, demand index) pair in ``pairs``
    is an uncapacitated edge.  Returns the flow value and the supply indices
    still reachable in the residual graph: the source side of the minimum
    cut that lies inside every other.  That set is the same for every
    maximum flow, so it depends neither on the order of the pairs and the
    augmenting paths nor on the hash seed.

    The flow lives on the bipartite graph itself, with no source or sink
    vertex: residual supplies and demands as int lists, and per demand a
    {supply: flow} map holding only positive flows.  One greedy pass first
    pushes min(residual supply, residual demand) along each pair in order.
    Shortest augmenting paths then finish the job: each search starts from
    every supply with residual supply, crosses any pair from supply to
    demand, crosses back from a demand to a supply only where that flow is
    positive, and stops at a demand with residual capacity.  The supplies
    reached by the last, failing search are the residual-reachable set.
    """
    sup, dem = list(supplies), list(demands)
    adj, flow, total = _greedy(sup, dem, pairs)
    while True:
        # by: reached supply -> demand it was reached from, -1 for a start;
        # to: reached demand -> supply it was reached from
        by = {i: -1 for i, s in enumerate(sup) if s}
        to = {}
        end = -1
        queue = list(by)
        for i in queue:
            for j in adj[i]:
                if j in to:
                    continue
                to[j] = i
                if dem[j]:
                    end = j
                    break
                for k in flow[j]:
                    if k not in by:
                        by[k] = j
                        queue.append(k)
            if end >= 0:
                break
        else:
            return total, frozenset(by)
        # the path alternates forward pairs to[j] -> j and backward flows
        # by[i] -> i, from a start supply to ``end``
        push, j = dem[end], end
        while True:
            i = to[j]
            j = by[i]
            if j < 0:
                push = min(push, sup[i])
                break
            push = min(push, flow[j][i])
        dem[end] -= push
        j = end
        while True:
            i = to[j]
            f = flow[j]
            f[i] = f.get(i, 0) + push
            j = by[i]
            if j < 0:
                sup[i] -= push
                break
            f = flow[j]
            if f[i] == push:
                del f[i]
            else:
                f[i] -= push
        total += push


def _greedy(sup, dem, pairs):
    """``max_flow``'s greedy pass: push min(residual supply, residual
    demand) along each pair in order, lowering the int lists ``sup`` and
    ``dem`` in place.  Afterwards every pair has an exhausted supply or a
    full demand.  Returns each supply's demands (one entry per pair), each
    demand's {supply: positive flow} map and the flow value."""
    adj = [[] for _ in sup]
    flow = [{} for _ in dem]
    total = 0
    for i, j in pairs:
        adj[i].append(j)
        push = min(sup[i], dem[j])
        if push:
            sup[i] -= push
            dem[j] -= push
            f = flow[j]
            f[i] = f.get(i, 0) + push
            total += push
    return adj, flow, total


def _integers(d, e, related):
    """``related`` as (source index, target index) pairs, the lcm L of
    both sides' denominators, and each side's weights times L."""
    si = {a: i for i, a in enumerate(d.points)}
    ti = {b: j for j, b in enumerate(e.points)}
    pairs = []
    for a, b in related:
        if a not in si or b not in ti:
            raise DimensionMismatchError(
                "relation pair (%r, %r) not within the supports" % (a, b)
            )
        pairs.append((si[a], ti[b]))
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

    A high half (hw, himg) is skipped when hw + min(max(lo_w) - T(himg),
    max over lo of (lw - T(limg))) <= worst: T, the target weight of an
    image, is monotone, so no mask of that half violates by more, and
    only a strictly larger violation replaces the worst one.
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

    def target(img):
        return sum(chunk[img >> s & 255] for s, chunk in zip(shifts, chunks))

    lo_top_w = max(lo_w)
    lo_top_gap = max(lw - target(li) for lw, li in zip(lo_w, lo_img))
    worst = worst_mask = 0
    for hi, (hw, himg) in enumerate(zip(hi_w, hi_img)):
        if hw + min(lo_top_w - target(himg), lo_top_gap) <= worst:
            continue
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
