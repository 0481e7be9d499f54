import math
import random
from fractions import Fraction as F

import pytest

from plamb import laws
from plamb.laws import lift_agreement, random_lift_instance
from plamb.syntax import LambError
from plamb.lifting import (
    DimensionMismatchError,
    FinSupportDist,
    LiftVerdict,
    SupportTooLargeError,
    lift_check_flow,
    lift_check_subsets,
    max_flow,
    _greedy,
)

IDENT = {("t", "t"), ("f", "f")}


def fsd(points, weights):
    return FinSupportDist(points, [F(w) for w in weights])


def random_instance(rng):
    return random_lift_instance(rng, 5, (8,), (0.2, 0.4, 0.7))


class TestNumerators:
    """``FinSupportDist`` refuses malformed supports; the weights here are
    written as numerators over one denominator."""

    @pytest.mark.parametrize("points, nums, den, msg", [
        (["a", "a"], [1, 1], 4, "duplicate points"),
        (["a", "b"], [1], 4, "length mismatch"),
        (["a", "b"], [1, 0], 4, "must be positive"),
        (["a", "b"], [3, 2], 4, "total mass exceeds 1"),
    ])
    def test_guards(self, points, nums, den, msg):
        with pytest.raises(LambError, match=msg):
            FinSupportDist(points, [F(n, den) for n in nums])


class TestMaxFlow:
    """``max_flow`` on int capacities: the value, and the supply indices
    still reachable in the residual graph."""

    def test_bottleneck(self):
        assert max_flow([3], [2], [(0, 0)]) == (2, {0})

    def test_no_edges(self):
        assert max_flow([3], [2], []) == (0, {0})

    def test_complete_2x2(self):
        assert max_flow([1, 1], [1, 1], [(0, 0), (0, 1), (1, 0), (1, 1)]) == (2, set())

    def test_rebalancing_needs_augmenting_path(self):
        # supply 0 can go both ways, supply 1 only to demand 0: max flow
        # must reroute supply 0
        assert max_flow([1, 1], [1, 1], [(0, 0), (0, 1), (1, 0)]) == (2, set())
        # both supplies share demand 0: the reached supplies are the cut
        assert max_flow([1, 1], [1, 1], [(0, 0), (1, 0)]) == (1, {0, 1})


def reference_max_flow(supplies, demands, pairs):
    """Max flow on the explicit network, the oracle for the bipartite
    kernel: vertex 0 is the source, 1 the sink, 2 + i supply i and
    2 + n + j demand j; edge e ^ 1 reverses edge e; shortest augmenting
    paths from the source."""
    n = len(supplies)
    out = [[] for _ in range(2 + n + len(demands))]
    dst, cap = [], []
    big = sum(supplies) + 1
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
        via = {0: None}
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


def random_flow_instance(rng):
    """Up to 6 supplies and 6 demands, capacities from 1 up to beyond
    2^200, and pairs drawn with repetition, so demands are often shared."""
    ns, nd = rng.randint(0, 6), rng.randint(0, 6)
    top = rng.choice((1, 3, 100, 2**210))
    supplies = [rng.randint(1, top) for _ in range(ns)]
    demands = [rng.randint(1, top) for _ in range(nd)]
    pairs = []
    if ns and nd:
        pairs = [(rng.randrange(ns), rng.randrange(nd)) for _ in range(rng.randint(0, 2 * ns * nd))]
    return supplies, demands, pairs


class TestMaxFlowKernel:
    """The bipartite kernel against the explicit-network oracle: the same
    value and the same residual-reachable supplies."""

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(14)
        for _ in range(3000):
            supplies, demands, pairs = random_flow_instance(rng)
            expected = reference_max_flow(supplies, demands, set(pairs))
            assert max_flow(supplies, demands, pairs) == expected, (supplies, demands, pairs)

    def test_pair_order_does_not_matter(self):
        rng = random.Random(15)
        for _ in range(500):
            supplies, demands, pairs = random_flow_instance(rng)
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            assert max_flow(supplies, demands, pairs) == max_flow(supplies, demands, shuffled)

    def test_empty_sides(self):
        assert max_flow([], [], []) == (0, set())
        assert max_flow([2, 3], [], []) == (0, {0, 1})
        assert max_flow([], [4], []) == (0, set())

    def test_no_pairs(self):
        assert max_flow([1, 2, 3], [5, 5], []) == (0, {0, 1, 2})

    def test_repeated_pairs(self):
        assert max_flow([3], [2], [(0, 0), (0, 0), (0, 0)]) == (2, {0})
        assert max_flow([1, 1], [2], [(0, 0), (1, 0), (0, 0)]) == (2, set())

    def test_shared_demands(self):
        # three supplies on one demand of capacity 4; supply 2 also has
        # its own demand, so only supplies 0 and 1 stay reachable
        pairs = [(0, 0), (1, 0), (2, 0), (2, 1)]
        assert max_flow([2, 2, 3], [4, 3], pairs) == (7, set())
        assert max_flow([2, 2, 3], [3, 1], pairs) == (4, {0, 1, 2})

    def test_reroutes_after_the_greedy_pass(self):
        # the greedy pass fills demand i - 1 from supply i, which strands
        # supply 0; the one augmenting path crosses every supply back
        for k in (2, 3, 8):
            pairs = [(i, i - 1) for i in range(1, k)] + [(i, i) for i in range(k)]
            assert max_flow([1] * k, [1] * k, pairs) == (k, set())
            # without the last demand the stranded unit has no way out
            assert max_flow([1] * k, [1] * (k - 1) + [0], pairs) == (k - 1, set(range(k)))

    def test_greedy_pass_saturates(self):
        # every pair ends with an exhausted supply or a full demand, and
        # the flows account for exactly what each side gave
        rng = random.Random(16)
        for _ in range(1000):
            supplies, demands, pairs = random_flow_instance(rng)
            sup, dem = list(supplies), list(demands)
            adj, flow, total = _greedy(sup, dem, pairs)
            assert all(sup[i] == 0 or dem[j] == 0 for i, j in pairs)
            assert all(v > 0 for f in flow for v in f.values())
            assert [sum(f.values()) for f in flow] == [d - r for d, r in zip(demands, dem)]
            given = [sum(f.get(i, 0) for f in flow) for i in range(len(supplies))]
            assert given == [s - r for s, r in zip(supplies, sup)]
            assert total == sum(given)
            assert adj == [[j for k, j in pairs if k == i] for i in range(len(supplies))]
        # a perfect matching listed first leaves no augmenting path to find
        caps = [5, 2**201, 7]
        pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (2, 0)]
        sup, dem = list(caps), list(caps)
        assert _greedy(sup, dem, pairs)[2] == sum(caps) and sup == dem == [0, 0, 0]

    def test_capacities_above_2_200(self):
        big = 2**201
        assert max_flow([big, 3], [big + 1], [(0, 0), (1, 0)]) == (big + 1, {0, 1})
        assert max_flow([big, big], [big, big], [(0, 0), (1, 0), (0, 1)]) == (2 * big, set())


class TestLargeDenominators:
    """Weights whose denominators are distinct primes, so that their lcm
    exceeds 2^64; the deficit below is worked out by hand."""

    SOURCE = [F(1, p) for p in (67, 53, 73, 89, 101, 107, 113)]
    TARGET = [F(1, q) for q in (61, 79, 83, 97, 103, 109, 59)]
    # s0 and s1 share t0, s1 also reaches t1; every other s_i reaches t_i
    RELATION = {("s0", "t0"), ("s1", "t0"), ("s1", "t1")} | {
        ("s%d" % i, "t%d" % i) for i in range(2, 7)
    }

    def instance(self):
        d = FinSupportDist(["s%d" % i for i in range(7)], self.SOURCE)
        e = FinSupportDist(["t%d" % i for i in range(7)], self.TARGET)
        return d, e, self.RELATION

    def test_lcm_exceeds_64_bits(self):
        dens = [w.denominator for w in self.SOURCE + self.TARGET]
        assert math.lcm(*dens) > 2 ** 64

    def test_flow_and_oracle_agree_with_hand_deficit(self):
        # {s0, s1} outweighs {t0, t1}; s2..s5 each outweigh their target;
        # s6 (1/113) fits under t6 (1/59)
        deficit = (
            F(1, 67) + F(1, 53) - F(1, 61) - F(1, 79)
            + F(1, 73) - F(1, 83)
            + F(1, 89) - F(1, 97)
            + F(1, 101) - F(1, 103)
            + F(1, 107) - F(1, 109)
        )
        cut = frozenset("s%d" % i for i in range(6))
        for decide in (lift_check_flow, lift_check_subsets):
            v = decide(*self.instance())
            assert (v.holds, v.deficit, v.witness_cut) == (False, deficit, cut)

    def test_slack_at_the_deficit_holds(self):
        d, e, rel = self.instance()
        deficit = lift_check_flow(d, e, rel).deficit
        assert lift_check_flow(d, e, rel, deficit).holds
        below = lift_check_flow(d, e, rel, deficit - F(1, 2 ** 70))
        assert below.deficit == F(1, 2 ** 70)


class TestLiftFlow:
    def test_subprobability_order_example(self):
        v = lift_check_flow(fsd("tf", ["1/5", "1/5"]), fsd("tf", ["1/5", "3/10"]),
                            {("t", "t"), ("f", "f")})
        assert v.holds and v.deficit == 0 and not v.witness_cut

    def test_normalized_counterexample(self):
        v = lift_check_flow(fsd("tf", ["1/2", "1/2"]), fsd("tf", ["2/5", "3/5"]),
                            {("t", "t"), ("f", "f")})
        assert not v.holds
        assert v.deficit == F(1, 10)
        assert v.witness_cut == frozenset({"t"})

    def test_deficit_and_cut_over_unlike_denominators(self):
        source = fsd(["t", "f"], ["1/4", "2/9"])
        target = fsd(["t", "f"], ["1/4", "1/5"])
        assert source.weights == (F(1, 4), F(2, 9)) and source.mass() == F(17, 36)
        verdict = lift_check_flow(source, target, IDENT)
        assert verdict.deficit == F(1, 45) and verdict.witness_cut == {"f"}
        assert repr(verdict) == "LiftVerdict(deficit=1/45, cut={'f'})"
        assert lift_check_flow(target, source, IDENT).holds

    def test_slack_covers_deficit(self):
        v = lift_check_flow(fsd("tf", ["1/2", "1/2"]), fsd("tf", ["2/5", "3/5"]),
                            {("t", "t"), ("f", "f")}, slack=F(1, 10))
        assert v.holds

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lift_check_flow(fsd("t", ["1/2"]), fsd("f", ["1/2"]), {("t", "q")})


class TestLiftSubsets:
    def test_pointwise_leq_with_identity(self):
        v = lift_check_subsets(fsd("tf", ["1/5", "1/5"]), fsd("tf", ["1/5", "3/10"]),
                               {("t", "t"), ("f", "f")})
        assert v.holds

    def test_empty_relation(self):
        v = lift_check_subsets(fsd("a", ["1"]), fsd("b", ["1"]), set())
        assert not v.holds and v.deficit == 1 and v.witness_cut == frozenset("a")

    def test_equal_violations_report_first_in_mask_order(self):
        # {a} and {z, a} both fall 1/4 short ({z} alone exactly fits);
        # mask order over ("z", "a") visits {a} (mask 2) before {z, a} (3)
        d = fsd("za", ["1/4", "1/2"])
        e = fsd("yb", ["1/4", "1/4"])
        rel = {("z", "y"), ("a", "b")}
        for decide in (lift_check_subsets, lift_check_flow):
            v = decide(d, e, rel)
            assert (v.holds, v.deficit, v.witness_cut) == (False, F(1, 4), frozenset("a"))

    def test_support_guard(self):
        big = FinSupportDist(range(21), [F(1, 32)] * 21)
        with pytest.raises(SupportTooLargeError):
            lift_check_subsets(big, fsd("b", ["1"]), set())


class TestAgreementAndMonotonicity:
    def test_flow_agrees_with_subsets(self):
        rng = random.Random(5)
        assert not lift_agreement([random_instance(rng) for _ in range(250)])

    def test_disagreement_is_reported(self, monkeypatch):
        def flipped(d, e, rel):
            v = lift_check_subsets(d, e, rel)
            return LiftVerdict(not v.holds, v.deficit, v.witness_cut)

        monkeypatch.setattr(laws, "lift_check_subsets", flipped)
        planted = (fsd("a", ["1/2"]), fsd("b", ["1/2"]), {("a", "b")})
        assert lift_agreement([planted]) == [planted]

    def test_monotone_in_relation(self):
        rng = random.Random(6)
        for _ in range(80):
            d, e, rel = random_instance(rng)
            if not lift_check_flow(d, e, rel).holds:
                continue
            extra = set(rel)
            for i in d.points:
                for j in e.points:
                    if rng.random() < 0.3:
                        extra.add((i, j))
            assert lift_check_flow(d, e, extra).holds

    def test_monotone_in_target(self):
        rng = random.Random(7)
        for _ in range(80):
            d, e, rel = random_instance(rng)
            if not lift_check_flow(d, e, rel).holds:
                continue
            room = 1 - e.mass()
            bump = room / len(e)
            raised = FinSupportDist(e.points, [w + bump for w in e.weights])
            assert lift_check_flow(d, raised, rel).holds

    def test_way_below_approximation(self):
        rng = random.Random(8)
        for _ in range(80):
            d, e, rel = random_instance(rng)
            v = lift_check_flow(d, e, rel)
            shrunk = FinSupportDist(d.points, [w * F(99, 100) for w in d.weights])
            if v.holds:
                assert lift_check_flow(shrunk, e, rel).holds
            else:
                # close enough strict shrinkings still violate
                eps = v.deficit / (2 * d.mass())
                near = FinSupportDist(d.points, [w * (1 - eps) for w in d.weights])
                assert not lift_check_flow(near, e, rel).holds

    def test_reflexive_relation_contains_pointwise_order(self):
        rng = random.Random(9)
        for _ in range(60):
            d, _, _ = random_instance(rng)
            bump = (1 - d.mass()) / len(d)
            e = FinSupportDist(d.points, [w + bump for w in d.weights])
            ident = {(p, p) for p in d.points}
            assert lift_check_flow(d, e, ident).holds

    def test_intersection_compatibility(self):
        # the lift of an intersection implies the lift of each relation
        rng = random.Random(10)
        for _ in range(60):
            d, e, r1 = random_instance(rng)
            _, _, r2 = random_instance(rng)
            r2 = {(a, b) for a, b in r2 if a in set(d.points) and b in set(e.points)}
            common = r1 & r2
            if lift_check_flow(d, e, common).holds:
                assert lift_check_flow(d, e, r1).holds
                assert lift_check_flow(d, e, r2).holds
