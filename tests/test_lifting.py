import random
from fractions import Fraction as F

import pytest

from plamb.lifting import (
    DimensionMismatchError,
    FinSupportDist,
    SupportTooLargeError,
    lift_check_flow,
    lift_check_subsets,
    max_flow,
)

IDENT = {("t", "t"), ("f", "f")}


def fsd(points, weights):
    return FinSupportDist(points, [F(w) for w in weights])


def random_instance(rng, max_support=5, denom=8):
    grid = [F(i, denom) for i in range(1, denom + 1)]
    ns, nt = rng.randint(1, max_support), rng.randint(1, max_support)
    sw = [rng.choice(grid) for _ in range(ns)]
    tw = [rng.choice(grid) for _ in range(nt)]
    if sum(sw) > 1:
        sw = [w / sum(sw) for w in sw]
    if sum(tw) > 1:
        tw = [w / sum(tw) for w in tw]
    d = FinSupportDist(["s%d" % i for i in range(ns)], sw)
    e = FinSupportDist(["t%d" % j for j in range(nt)], tw)
    density = rng.choice((0.2, 0.4, 0.7))
    rel = {
        ("s%d" % i, "t%d" % j)
        for i in range(ns)
        for j in range(nt)
        if rng.random() < density
    }
    return d, e, rel


class TestMaxFlow:
    def test_bottleneck(self):
        value = max_flow({"a": F(1, 2)}, {"b": F(1, 3)}, {("a", "b")})
        assert value == F(1, 3)

    def test_no_edges(self):
        value = max_flow({"a": F(1, 2)}, {"b": F(1, 3)}, set())
        assert value == 0

    def test_complete_2x2(self):
        value = max_flow(
            {"a1": F(1, 2), "a2": F(1, 2)},
            {"b1": F(1, 2), "b2": F(1, 2)},
            {("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")},
        )
        assert value == 1

    def test_rebalancing_needs_augmenting_path(self):
        # a1 can go both ways, a2 only to b1: max flow must reroute a1
        value = max_flow(
            {"a1": F(1, 2), "a2": F(1, 2)},
            {"b1": F(1, 2), "b2": F(1, 2)},
            {("a1", "b1"), ("a1", "b2"), ("a2", "b1")},
        )
        assert value == 1


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

    def test_support_guard(self):
        big = FinSupportDist(range(21), [F(1, 32)] * 21)
        with pytest.raises(SupportTooLargeError):
            lift_check_subsets(big, fsd("b", ["1"]), set())


class TestAgreementAndMonotonicity:
    def test_flow_agrees_with_subsets(self):
        rng = random.Random(5)
        for _ in range(250):
            d, e, rel = random_instance(rng)
            a = lift_check_flow(d, e, rel)
            b = lift_check_subsets(d, e, rel)
            assert a.holds == b.holds
            assert a.deficit == b.deficit

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
