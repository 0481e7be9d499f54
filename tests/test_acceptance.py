"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Everything asserts exact rational equality; no tolerances are floating."""

import random
import time
from fractions import Fraction as F

from conftest import gen_dist, gen_terminating
from plamb.corpus import corpus
from plamb.laws import (
    approximant_soundness,
    divergence_least,
    lift_agreement,
    linearity,
    random_lift_instance,
    reduction_laws,
)
from plamb.lifting import FinSupportDist, lift_check_flow
from plamb.reduction import evolve, evolve_sequential
from plamb.simulation import (
    Refuted,
    SimParams,
    WitnessKind,
    bisim_check,
    sim_check,
)
from plamb.syntax import (
    App,
    dist_leq,
    dist_scale,
    dist_union,
    parse,
    unit,
)

YT = parse(r"Y (\x. {1/2: I, 1/2: x})")
IDENT = parse("I")


def _pass(n, text, t0):
    print("\nPASS criterion %d (%.2fs): %s" % (n, time.perf_counter() - t0, text))


def test_criterion_1_fixpoint_convergence():
    t0 = time.perf_counter()
    for k in range(1, 11):
        r = evolve(YT, 3 * k)
        expect = 1 - F(1, 2**k)
        assert r.values == dist_scale(expect, IDENT), k
        assert r.residual == F(1, 2**k)
    _pass(1, "value mass on the identity is exactly 1 - 2^-k after k unfoldings", t0)


def test_criterion_2_limit_simulation_under_slack():
    t0 = time.perf_counter()
    for depth in (1, 2, 3, 4, 5):
        for fuel in (8, 16, 32):
            assert sim_check(IDENT, YT, SimParams(depth, fuel)).holds, (depth, fuel)
            assert sim_check(YT, IDENT, SimParams(depth, fuel)).holds, (depth, fuel)
    for fuel in (8, 16, 32):
        k = fuel // 3
        v = sim_check(IDENT, YT, SimParams(3, fuel, slack_enabled=False))
        assert isinstance(v, Refuted)
        assert v.witness.deficit == F(1, 2**k) == evolve(YT, fuel).residual
    _pass(2, "identity and the fixpoint simulate both ways under slack; "
             "without slack the deficit is exactly 2^-k", t0)


def test_criterion_3_xor_counterexample_and_linearity():
    t0 = time.perf_counter()
    a = parse("{1/2: x tt ff, 1/2: x ff tt}")
    b = parse("{1/2: x ff ff, 1/2: x tt tt}")
    fwd, bwd = bisim_check(a, b, SimParams(3, 8))
    assert isinstance(fwd, Refuted) and isinstance(bwd, Refuted)
    left = parse(r"\x. {1/2: tt, 1/2: ff}")
    right = parse(r"{1/2: \x. tt, 1/2: \x. ff}")
    fwd, bwd = bisim_check(left, right, SimParams(3, 8))
    assert fwd.holds and bwd.holds
    _pass(3, "exclusive-or spine sums refuted both ways at depth 3; "
             "abstraction linearity pair passes both ways", t0)


def test_criterion_4_lifting_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(42)
    instances = [
        random_lift_instance(rng, 8, (8, 16), (0.15, 0.35, 0.6, 0.9))
        for _ in range(1000)
    ]
    assert not lift_agreement(instances)
    _pass(4, "max-flow and subset-enumeration deciders agree on holds and "
             "deficit over 1000 random instances", t0)


def test_criterion_5_order_examples():
    t0 = time.perf_counter()
    small = parse("{1/5: ct, 1/5: cf}", prelude={})
    bigger = parse("{1/5: ct, 3/10: cf}", prelude={})
    assert dist_leq(small, bigger)
    half = parse("{1/2: ct, 1/2: cf}", prelude={})
    normed = parse("{2/5: ct, 3/5: cf}", prelude={})
    assert not dist_leq(half, normed)
    ident = {("ct", "ct"), ("cf", "cf")}
    v = lift_check_flow(
        FinSupportDist(["ct", "cf"], [F(1, 5), F(1, 5)]),
        FinSupportDist(["ct", "cf"], [F(1, 5), F(3, 10)]),
        ident,
    )
    assert v.holds
    v = lift_check_flow(
        FinSupportDist(["ct", "cf"], [F(1, 2), F(1, 2)]),
        FinSupportDist(["ct", "cf"], [F(2, 5), F(3, 5)]),
        ident,
    )
    assert not v.holds and v.deficit == F(1, 10)
    _pass(5, "subprobability order holds before normalization and fails "
             "after, with deficit exactly 1/10", t0)


def test_criterion_6_divergence_least_element():
    t0 = time.perf_counter()
    om = parse("omega")
    terms = corpus()
    assert len(terms) >= 50
    assert not divergence_least(terms[:50], SimParams(3, 16))
    v = sim_check(parse(r"\x. omega"), om, SimParams(2, 8))
    assert isinstance(v, Refuted)
    assert v.witness.kind is WitnessKind.CONVERGE_DEFICIT
    assert v.witness.deficit == 1
    empty = parse("{}")
    assert sim_check(empty, om, SimParams(3, 8)).holds
    assert sim_check(om, empty, SimParams(3, 8)).holds
    _pass(6, "divergence is simulated by all 50 corpus terms, an abstraction "
             "is not simulated by divergence, and {} matches divergence", t0)


def test_criterion_7_precongruence_for_application():
    t0 = time.perf_counter()
    k = 2
    established = 0
    violations = []
    seed = 0
    while established < 500:
        seed += 1
        assert seed < 20000, "generator exhausted before 500 exact-regime quadruples"
        rng = random.Random(10_000 + seed)
        m0 = gen_terminating(rng, depth=2, fuel=24)
        n0 = gen_terminating(rng, depth=2, fuel=24)
        style = seed % 4
        if style == 0:
            m1, m2 = dist_scale(F(1, 2), m0), m0
            n1, n2 = n0, n0
        elif style == 1:
            m1, m2 = m0, m0
            n1, n2 = dist_scale(F(3, 4), n0), n0
        elif style == 2:
            m1 = dist_scale(F(1, 2), m0)
            m2 = dist_union(m1, dist_scale(F(1, 2), n0))
            n1, n2 = n0, n0
        else:
            m1, m2 = m0, gen_terminating(rng, depth=2, fuel=24)
            n1, n2 = dist_scale(F(1, 2), n0), n0
        pm = sim_check(m1, m2, SimParams(2 * k, 24))
        pn = sim_check(n1, n2, SimParams(2 * k, 24))
        if not (pm.holds and pm.exact and pn.holds and pn.exact):
            continue
        established += 1
        conclusion = sim_check(unit(App(m1, n1)), unit(App(m2, n2)), SimParams(k, 24))
        if not conclusion.holds:
            violations.append((m1, m2, n1, n2, conclusion))
    assert not violations, violations[:3]
    _pass(7, "500 exact-regime quadruples: premises at depth 4 never yield "
             "a refuted application at depth 2", t0)


def test_criterion_8_approximant_soundness_and_transfer():
    t0 = time.perf_counter()
    programs = (gen_terminating(random.Random(20_000 + i), depth=3, fuel=16) for i in range(200))
    pairs = [(m, m) for m in programs]
    transfers = 0
    i = 0
    while transfers < 100:
        i += 1
        assert i < 4000
        n = gen_terminating(random.Random(30_000 + i), depth=3, fuel=16)
        m = dist_scale(F(3, 4), n)
        sim = sim_check(m, n, SimParams(4, 16))
        if not (sim.holds and sim.exact):
            continue
        transfers += 1
        pairs.append((m, n))
    assert not approximant_soundness(pairs, 2, 16, F(1, 8))
    _pass(8, "200 programs: generated approximants pass the membership check "
             "and are simulated; approximants transfer across 100 established "
             "simulations", t0)


def test_criterion_9_reduction_law_suite():
    t0 = time.perf_counter()
    seq_rng = random.Random(99)
    programs, halves = [], []
    for i in range(1000):
        rng = random.Random(40_000 + i)
        d = gen_dist(rng, 3)
        programs.append(d)
        halves.append((dist_scale(F(1, 2), d), dist_scale(F(1, 2), gen_dist(rng, 2))))
    # mass never increases, values grow monotonically, evolution is linear
    violations = len(reduction_laws(programs, 4)) + len(linearity(halves, 32))
    for d, (a, extra) in zip(programs, halves):
        # pointwise order is preserved by evolution
        if not dist_leq(evolve(a, 32).values, evolve(dist_union(a, extra), 32).values):
            violations += 1
        # any sequential schedule agrees with the parallel one
        r32 = evolve(d, 32)
        if r32.converged:
            seq = evolve_sequential(d, 600, seq_rng)
            if not seq.converged or seq.values != r32.values:
                violations += 1
    assert violations == 0
    _pass(9, "mass, monotonicity, order preservation, linearity, and "
             "parallel/sequential agreement over 1000 random programs", t0)
