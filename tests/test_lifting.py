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
)

IDENT = {("t", "t"), ("f", "f")}


def fsd(points, weights):
    return FinSupportDist(points, [F(w) for w in weights])


def random_instance(rng):
    return random_lift_instance(rng, 5, (8,), (0.2, 0.4, 0.7))


class TestNumerators:
    """``FinSupportDist(points, nums, den)`` reads numerators over ``den``
    as ``Dist(pairs, den)`` does, and builds ``Fraction`` weights only when
    they are read."""

    def test_same_support_as_fraction_weights(self):
        by_nums = FinSupportDist(["t", "f"], [9, 8], 36)
        assert by_nums._weights is None
        by_fracs = fsd(["t", "f"], ["1/4", "2/9"])
        assert by_nums.mass() == by_fracs.mass() == F(17, 36)
        assert by_nums.weights == by_fracs.weights == (F(1, 4), F(2, 9))
        target = fsd(["t", "f"], ["1/4", "1/5"])
        verdict = lift_check_flow(by_nums, target, IDENT)
        assert repr(verdict) == repr(lift_check_flow(by_fracs, target, IDENT))
        assert verdict.deficit == F(1, 45) and verdict.witness_cut == {"f"}
        assert lift_check_flow(target, by_nums, IDENT).holds

    @pytest.mark.parametrize("points, nums, den, msg", [
        (["a", "a"], [1, 1], 4, "duplicate points"),
        (["a", "b"], [1], 4, "length mismatch"),
        (["a", "b"], [1, 0], 4, "must be positive"),
        (["a", "b"], [3, 2], 4, "total mass exceeds 1"),
    ])
    def test_guards(self, points, nums, den, msg):
        with pytest.raises(LambError, match=msg):
            FinSupportDist(points, nums, den)


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
