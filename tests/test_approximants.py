import io
import itertools
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F

import plamb
import pytest

from conftest import gen_dist, gen_terminating, print_dist_oracle, print_term_oracle
from plamb import simulation
from plamb.approximants import (
    DIVERGE,
    FIN_BOTTOM,
    FIN_EMPTY,
    FinAbs,
    FinDist,
    FinSpine,
    GranularityError,
    OMEGA,
    approx_check,
    approx_generate,
    embed,
    parse_fin,
    print_fin_dist,
    truncate,
)
from plamb.cli import main
from plamb.corpus import CORPUS_SOURCES, corpus
from plamb.laws import approximant_soundness, approximant_strictness
from plamb.lifting import max_flow
from plamb.lts import split_values
from plamb.reduction import evolve
from plamb.simulation import SimParams, bisim_check, sim_check
from plamb.syntax import (
    EMPTY, Abs, Dist, LambError, ParseError, Var, dist_scale, dist_union, fresh_name, parse,
    print_dist, print_term, subst, unit,
)

YT = parse(r"Y (\x. {1/2: I, 1/2: x})")


class TestEmbed:
    def test_bottom_diverges(self):
        d = embed(FIN_BOTTOM)
        assert d == parse("omega")
        assert evolve(d, 20).values.is_empty()

    def test_abstraction(self):
        c = FinDist({FinAbs("x", FIN_BOTTOM): F(1, 2)})
        assert embed(c) == parse(r"{1/2: \x. omega}")

    def test_bare_spine(self):
        c = FinDist({FinSpine("y", ()): F(1)})
        assert embed(c) == parse("y")

    def test_spine_with_arguments(self):
        c = FinDist({FinSpine("y", (FIN_BOTTOM, FinDist({FinSpine("z", ()): F(1)}))): F(1)})
        assert embed(c) == parse("y (omega) z")

    def test_image_is_kept(self):
        c = parse_fin(r"{1/2: \x. {1/2: x _|_}}")
        d = embed(c)
        assert embed(c) is d
        assert embed(c.entries()[0][0].body) is d.entries()[0][0].body

    def test_bottoms_share_one_term(self):
        c = parse_fin(r"{1/4: _|_, 1/2: \x. {1/2: _|_, 1/2: x _|_}}")
        d = embed(c)
        (loop, _), (lam, _) = d.entries()
        spine, inner = [t for t, _ in lam.body.entries()]
        assert inner is loop and spine.arg.entries()[0][0] is loop
        assert embed(FIN_BOTTOM).entries()[0][0] is loop
        assert repr(d) == (
            r"{1/4: (\x. x x) (\x. x x), 1/2: \x. {1/2: x ((\x. x x) (\x. x x)), "
            r"1/2: (\x. x x) (\x. x x)}}"
        )


class TestApproxCheck:
    def test_bottom_at_index_zero(self):
        for src in (r"\x. x", "omega", "y z", "{}"):
            assert approx_check(FIN_BOTTOM, parse(src), 0, 4)
            assert approx_check(FinDist(), parse(src), 0, 4)

    def test_bottom_mixture_at_index_zero(self):
        assert approx_check(FinDist({OMEGA: F(1, 3)}), parse("{}"), 0, 4)

    def test_strictly_smaller_abstraction(self):
        c = FinDist({FinAbs("x", FIN_BOTTOM): F(1, 2)})
        assert approx_check(c, parse(r"\x. x"), 1, 1)

    def test_equal_weight_rejected(self):
        c = FinDist({FinAbs("x", FIN_BOTTOM): F(1)})
        for k in range(5):
            assert not approx_check(c, parse(r"\x. x"), k, 8)

    def test_non_bottom_needs_positive_index(self):
        c = FinDist({FinAbs("x", FIN_BOTTOM): F(1, 2)})
        assert not approx_check(c, parse(r"\x. x"), 0, 4)

    def test_spine_compatibility(self):
        c = parse_fin("{1/2: y _|_}")
        assert approx_check(c, parse("y tt"), 2, 4)
        assert not approx_check(c, parse("z tt"), 3, 4)
        assert not approx_check(c, parse("y"), 3, 4)

    def test_cumulative_in_index(self):
        for i in range(25):
            m = gen_terminating(random.Random(700 + i))
            for c in approx_generate(m, 2, 16, F(1, 8)):
                ok = [approx_check(c, m, k, 16) for k in range(5)]
                # once a membership index is reached it persists
                assert ok == sorted(ok)

    def test_splits_across_alpha_equal_mass(self):
        # two half-weight candidates against one full-weight value entry
        c = parse_fin("{1/4: \\x. _|_, 1/4: \\y. _|_}")
        assert approx_check(c, parse(r"\z. z"), 1, 2)


# evolves to \a. \#0. a x: the inner binder is the first fresh symbol
CAPTURE = parse(r"(\y. \a. \x. a y) x")


def half_lam(binder, body):
    return FinDist({FinAbs(binder, body): F(1, 2)})


class TestCapture:
    def test_alpha_equal_candidates_agree(self):
        # built directly: parse_fin rejects the machine name #0
        body = FinDist({FinSpine("a", (FIN_BOTTOM,)): F(1, 2)})
        machine = half_lam("a", half_lam("#0", body))
        user = half_lam("a", half_lam("b", body))
        assert machine == user
        verdicts = [approx_check(machine, CAPTURE, k, 8) for k in range(5)]
        assert verdicts == [approx_check(user, CAPTURE, k, 8) for k in range(5)]
        assert verdicts == [False, False, False, True, True]

    def test_generated_candidates_are_members(self):
        assert not approximant_soundness([(CAPTURE, CAPTURE)], 3, 8, F(1, 2))


def strict_hall(weights, demands, edges):
    """Brute-force oracle: every nonempty set of sources weighs strictly
    less than the demands of its neighbourhood."""
    n = len(weights)
    for mask in range(1, 1 << n):
        srcs = {i for i in range(n) if mask >> i & 1}
        nbhd = {j for i, j in edges if i in srcs}
        if sum(weights[i] for i in srcs) >= sum(demands[j] for j in nbhd):
            return False
    return True


HALF_Z = FinDist({FinSpine("z", ()): F(1, 2)})


def matching_instance(weights, demands, edges):
    """A candidate and a program whose compatibility graph is ``edges``.

    Candidate entry i is ``y`` applied to n arguments, all bottom except
    ``{1/2: z}`` at position i.  Value entry j is ``y`` applied to ``z`` at
    the positions of its neighbours and ``w`` elsewhere, so entry i is
    compatible with entry j iff (i, j) is an edge.
    """
    n = len(weights)
    cand = FinDist(
        (FinSpine("y", tuple(HALF_Z if r == i else FIN_BOTTOM for r in range(n))), w)
        for i, w in enumerate(weights)
    )
    prog = "{%s}" % ", ".join(
        "%s: y %s" % (d, " ".join("z" if (r, j) in edges else "w" for r in range(n)))
        for j, d in enumerate(demands)
    )
    return cand, parse(prog)


class TestStrictMatching:
    GRID = 64

    def grid_weights(self, rng, count):
        nums = [rng.randint(1, 8) for _ in range(count)]
        while sum(nums) > self.GRID // 2:
            nums = [max(1, x // 2) for x in nums]
        return nums

    def test_flow_agrees_with_subset_oracle(self):
        rng = random.Random(4242)
        seen = {"tight": 0, "near_accepted": 0, "accepted": 0, "rejected": 0}
        for _ in range(160):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            p = rng.random()
            edges = {(i, j) for i in range(n) for j in range(m) if rng.random() < p}
            dnums = self.grid_weights(rng, m)
            cnums = self.grid_weights(rng, n)
            mode = rng.choice(("free", "tight", "near"))
            if mode != "free":
                srcs = rng.sample(range(n), rng.randint(1, n))
                cap = sum(dnums[j] for j in {j for i, j in edges if i in srcs})
                # tight: the set's supply equals its neighbourhood's
                # capacity; near: it falls short by one grid step
                total = cap if mode == "tight" else cap - 1
                if total < len(srcs):
                    mode = "free"
                else:
                    cuts = sorted(rng.sample(range(1, total), len(srcs) - 1))
                    for i, a, b in zip(srcs, [0] + cuts, cuts + [total]):
                        cnums[i] = b - a
            weights = [F(x, self.GRID) for x in cnums]
            demands = [F(x, self.GRID) for x in dnums]
            cand, prog = matching_instance(weights, demands, edges)
            expect = strict_hall(weights, demands, edges)
            assert approx_check(cand, prog, 2, 2) == expect, (weights, demands, edges)
            if mode == "tight":
                assert not expect
                seen["tight"] += 1
            elif mode == "near" and expect:
                seen["near_accepted"] += 1
            seen["accepted" if expect else "rejected"] += 1
        assert min(seen.values()) >= 5, seen

    def test_sixteen_entries_at_grain_64(self):
        names = "abcdefghijklmnop"
        weights = [F(1, 32) if i % 2 else F(3, 32) for i in range(16)]
        prog = parse("{%s}" % ", ".join("%s: %s" % wn for wn in zip(weights, names)))
        assert len(evolve(prog, 4).values) == 16
        rounded = FinDist(
            (FinSpine(x, ()), w - F(1, 64)) for w, x in zip(weights, names)
        )
        assert rounded in approx_generate(prog, 1, 4, F(1, 64))
        assert approx_check(rounded, prog, 1, 4)
        truncated = FinDist((FinSpine(x, ()), w) for w, x in zip(weights, names))
        assert not approx_check(truncated, prog, 1, 4)


def member_by_flow(c, m, k, fuel):
    """Reference membership decided by flows alone, without the value-mass
    gate, under the block rule: an embedded candidate ``c`` against program
    ``m``.  Each side's abstractions are one point, whose ``ret`` target is
    every body applied to one fresh symbol and scaled by its weight."""
    c_abs, c_spines = split_values(c)
    if not c_abs and not c_spines:
        return True
    if k <= 0:
        return False
    values = evolve(m, fuel).values
    m_abs, m_spines = split_values(values)
    sym = fresh_name(c.free_names() | values.free_names())

    def block(entries, den):
        out = EMPTY
        for _, w, view in entries:
            body = subst(view.body, view.binder, unit(Var(sym)))
            out = dist_union(out, dist_scale(F(w, den), body))
        return out

    c_points = [sum(w for _, w, _ in c_abs)] if c_abs else []
    m_points = [sum(w for _, w, _ in m_abs)] if m_abs else []
    edges = []
    if c_points and m_points and member_by_flow(
        block(c_abs, c._den), block(m_abs, values._den), k - 1, fuel
    ):
        edges.append((0, 0))
    for i, (_, _, cv) in enumerate(c_spines, len(c_points)):
        for j, (_, _, mv) in enumerate(m_spines, len(m_points)):
            if (cv.head, len(cv.args)) == (mv.head, len(mv.args)) and all(
                member_by_flow(ca, ma, k - 1, fuel) for ca, ma in zip(cv.args, mv.args)
            ):
                edges.append((i, j))
    # strict Hall: n points, scaled by n and each supply bumped by 1
    n = len(c_points) + len(c_spines)
    lcm = math.lcm(c._den, values._den)
    fc, fm = n * (lcm // c._den), n * (lcm // values._den)
    supplies = [x * fc + 1 for x in c_points + [x for _, x, _ in c_spines]]
    demands = [x * fm for x in m_points + [x for _, x, _ in m_spines]]
    return max_flow(supplies, demands, edges)[0] == sum(supplies)


def value_mass(c):
    return sum((w for t, w in c.entries() if t != OMEGA), F(0))


def rescaled(c, mass):
    """``c`` with its top-level value weights scaled to total ``mass``, or
    None when the result would weigh more than 1."""
    old = value_mass(c)
    if c.mass() - old + mass > 1:
        return None
    return FinDist((t, w if t == OMEGA else w * mass / old) for t, w in c.entries())


class TestValueMassBound:
    """Membership rejects a candidate whose value mass is not strictly
    below the program's before it embeds or recurses; the flow alone
    gives the same verdicts."""

    def candidates(self, m, fuel):
        values = evolve(m, fuel).values
        out = list(approx_generate(m, 2, fuel, F(1, 8)))
        out += [truncate(values, depth) for depth in range(1, 3)]
        if values.is_empty():
            return out
        mass = values.mass()
        for c in list(out):
            if value_mass(c) == 0:
                continue
            exact = rescaled(c, mass)
            step = F(1, math.lcm(exact._den, values._den))
            out += [exact, rescaled(c, mass - step), rescaled(c, mass + step)]
        return [c for c in out if c is not None]

    def test_agrees_with_flow_only_reference(self):
        fuel = 16
        seen = {"heavy": 0, "light_accepted": 0, "light_rejected": 0}
        for i in range(30):
            m = gen_terminating(random.Random(1500 + i), depth=2)
            mass = evolve(m, fuel).values.mass()
            for c in self.candidates(m, fuel):
                for k in range(5):
                    got = approx_check(c, m, k, fuel)
                    assert got == member_by_flow(embed(c), m, k, fuel), (c, m, k)
                if value_mass(c) >= mass > 0:
                    seen["heavy"] += 1
                elif got:
                    seen["light_accepted"] += 1
                else:
                    seen["light_rejected"] += 1
        assert min(seen.values()) >= 10, seen

    def test_rejected_candidate_is_not_embedded(self):
        m = YT
        c = truncate(evolve(m, 8).values, 2)
        assert not approx_check(c, m, 3, 8)
        assert c._embedded is None

    def test_nested_bound_decides(self, monkeypatch):
        # the top level passes the bound (1/2 < 1); the abstraction block's
        # ret target {1/2: y} lies strictly below {1: y}, which one spine
        # flow one index down decides
        calls = []

        def counting_flow(supplies, demands, edges):
            calls.append(len(edges))
            return max_flow(supplies, demands, edges)

        monkeypatch.setattr(simulation, "max_flow", counting_flow)
        c, m = parse_fin("{1/2: \\x. y}"), parse(r"\x. y")
        assert [approx_check(c, m, k, 8) for k in range(5)] == [False, False, True, True, True]
        # none at k = 0; one per k >= 1 on the ret target, without an edge at
        # index 0 (which admits no value) and with y against y from index 1
        assert calls == [0, 1, 1, 1]

    def test_truncations_are_members_nowhere(self):
        programs = [gen_terminating(random.Random(1600 + i)) for i in range(20)]
        assert not approximant_strictness(programs + [YT], 3, 16)


class TestLargeLcmTie:
    """Eleven spine entries whose denominators are distinct primes, so the
    lcm L of the weights exceeds 2^64.  Strict domination needs every
    candidate weight below its program weight; 1/L below is enough.  With
    one entry tied, the other ten keep the candidate's value mass 10/L
    below the program's, so the value-mass bound passes it and the flow
    decides."""

    PRIMES = (67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109)
    HEADS = "abcdefghijk"
    L = math.prod(PRIMES)

    def prog(self):
        return parse("{%s}" % ", ".join(
            "1/%d: %s" % ph for ph in zip(self.PRIMES, self.HEADS)))

    def candidate(self, tied):
        return FinDist(
            (FinSpine(x, ()), F(1, p) - (0 if x == tied else F(1, self.L)))
            for p, x in zip(self.PRIMES, self.HEADS)
        )

    def test_lcm_exceeds_64_bits(self):
        assert self.L > 2 ** 64

    def test_one_below_is_accepted(self):
        assert approx_check(self.candidate(None), self.prog(), 1, 4)

    @pytest.mark.parametrize("tied", ["a", "k"])
    def test_equal_weight_is_rejected(self, tied):
        assert not approx_check(self.candidate(tied), self.prog(), 1, 4)


class TestApproxGenerate:
    def test_divergent_program_yields_bottoms(self):
        out = approx_generate(parse("omega"), 3, 8, F(1, 4))
        assert out == {FIN_BOTTOM, FinDist()}

    def test_identity_at_grain_quarter(self):
        out = approx_generate(parse(r"\x. x"), 1, 1, F(1, 4))
        assert parse_fin("{3/4: \\x. _|_}") in out

    def test_fixpoint_two_unfoldings(self):
        out = approx_generate(YT, 2, 6, F(1, 8))
        assert parse_fin("{5/8: \\x. _|_}") in out

    def test_granularity_must_be_unit_fraction(self):
        with pytest.raises(GranularityError):
            approx_generate(parse("I"), 1, 4, F(2, 3))

    def test_generated_are_sound(self):
        # members of their program at some index, and simulated by it
        seeds = [800 + i for i in range(40)] + [850 + i for i in range(30)]
        programs = [gen_terminating(random.Random(s)) for s in seeds]
        assert not approximant_soundness([(m, m) for m in programs], 2, 16, F(1, 8))

    def test_transfer_across_simulation(self):
        # approximants of a sub-distribution are approximants of the whole
        pairs = []
        for i in range(20):
            n = gen_terminating(random.Random(880 + i))
            m = dist_scale(F(3, 4), n)
            sim = sim_check(m, n, SimParams(3, 16))
            if sim.holds and sim.exact:
                pairs.append((m, n))
        assert not approximant_soundness(pairs, 2, 16, F(1, 8))


# exactly bisimilar: a context sees (sum p_i M_i) N as sum p_i (M_i N)
SPLIT_LAMBDAS = parse(r"{1/2: \x. y, 1/2: \x. z}")
LAMBDA_OF_SPLIT = parse(r"\x. {1/2: y, 1/2: z}")


def exactly(verdict):
    return verdict.holds and verdict.exact


def membership_sweep():
    """The corpus and the two programs above, the pairs of distinct
    programs among them that are exactly bisimilar at (4, 12), and every
    candidate ``approx_generate(., 2, 12, 1/8)`` yields for them."""
    programs = corpus() + [SPLIT_LAMBDAS, LAMBDA_OF_SPLIT]
    pairs = [
        (m, n) for m, n in itertools.combinations(programs, 2)
        if m != n and all(map(exactly, bisim_check(m, n, SimParams(4, 12))))
    ]
    cands = set().union(*[approx_generate(p, 2, 12, F(1, 8)) for p in programs])
    return programs, pairs, sorted(cands, key=lambda c: c.canon())


class TestMembershipRespectsBisimilarity:
    """Membership compares a side's abstractions as one block, as the
    simulation does, so exactly bisimilar programs have the same members."""

    def test_split_lambdas_and_lambda_of_split(self):
        assert all(map(exactly, bisim_check(SPLIT_LAMBDAS, LAMBDA_OF_SPLIT, SimParams(4, 8))))
        c = parse_fin(r"{1/4: \x. {1/2: y}}")
        verdicts = [approx_check(c, SPLIT_LAMBDAS, k, 8) for k in range(5)]
        assert verdicts == [approx_check(c, LAMBDA_OF_SPLIT, k, 8) for k in range(5)]
        assert verdicts == [False, False, True, True, True]

    def test_corpus_sweep(self):
        _, pairs, cands = membership_sweep()
        assert (len(pairs), len(cands)) == (19, 53)
        split = [
            (c, m, n, k) for m, n in pairs for c in cands for k in (1, 2, 3)
            if approx_check(c, m, k, 12) != approx_check(c, n, k, 12)
        ]
        assert not split


class TestMembershipAndSimulation:
    def test_transfer_over_exactly_simulated_corpus_pairs(self):
        programs = corpus()
        pairs = [
            (m, n) for i, m in enumerate(programs) for j, n in enumerate(programs)
            if i != j and exactly(sim_check(m, n, SimParams(2, 12)))
        ]
        assert len(pairs) == 203
        assert not approximant_soundness(pairs, 2, 12, F(1, 8))

    def test_every_member_is_simulated(self):
        programs, _, cands = membership_sweep()
        members = [
            (c, m, k) for m in programs for c in cands for k in (1, 2, 3)
            if approx_check(c, m, k, 12)
        ]
        assert len(members) == 2638
        assert not [
            (c, m, k) for c, m, k in members
            if not sim_check(embed(c), m, SimParams(k, 12)).holds
        ]


class TestSyntacticCut:
    """Generation cuts the value tree as written, so a body that is still
    a redex becomes bottom; membership reduces at every level, so the two
    programs' candidates are still members of each other."""

    def test_redex_body_is_cut(self):
        ident, eta = parse(r"\x. x"), parse(r"\x. I x")
        cut = {FIN_BOTTOM, parse_fin(r"{7/8: \x. _|_}")}
        assert approx_generate(eta, 3, 12, F(1, 8)) == cut
        assert approx_generate(ident, 3, 12, F(1, 8)) == cut | {
            parse_fin(r"{7/8: \x. {7/8: x}}")
        }
        for m, n in ((ident, eta), (eta, ident)):
            for c in approx_generate(m, 3, 12, F(1, 8)):
                assert any(approx_check(c, n, k, 12) for k in range(5)), (c, n)


class TestTruncateDepthZero:
    """At depth 0 a distribution truncates to one bottom entry of its
    mass, as the per-entry construction merges to."""

    def test_matches_one_bottom_per_entry(self):
        rng = random.Random(32)
        sample = [EMPTY, parse("omega"), parse(r"{1/3: \x. x, 1/6: y z}")]
        sample += [evolve(gen_dist(rng, 3), 8).values for _ in range(60)]
        for d in sample:
            want = FinDist([(OMEGA, n) for _, n in d._ints], d._den)
            got = truncate(d, 0)
            assert got == want and got._den == want._den
            assert print_dist(got, explicit=True) == print_dist(want, explicit=True)
        assert truncate(EMPTY, 0) is FIN_EMPTY


class TestFinSyntax:
    def test_parse_bottom(self):
        assert parse_fin("_|_") == FIN_BOTTOM

    def test_roundtrip(self):
        for src in (
            "_|_",
            "{}",
            "{1/2: \\x. _|_}",
            "{5/8: \\x. {7/8: x}}",
            "y _|_ (z _|_)",
            "{1/4: y, 1/4: \\a. {1/2: b c}}",
        ):
            c = parse_fin(src)
            assert parse_fin(print_fin_dist(c)) == c

    def test_alpha_merging(self):
        assert parse_fin("{1/4: \\a. _|_, 1/4: \\b. _|_}") == parse_fin(
            "{1/2: \\z. _|_}"
        )


class TestCandidateReader:
    """``parse_fin`` is the calculus parser with the ``_|_`` atom, and keeps
    a source whose every entry is a value tree over bottom."""

    @pytest.mark.parametrize("src", [
        r"(\x. x) y", "_|_ y", r"\x. (\y. y) x", "y (({1/2: z}) w)", r"{1/2: x, 1/2: (\a. a) b}",
    ])
    def test_redex_other_than_bottom_refused(self, src):
        with pytest.raises(LambError, match="^not a finite approximant"):
            parse_fin(src)

    def test_parenthesised_term_and_head(self):
        assert print_fin_dist(parse_fin("(x) y")) == "x y"
        assert parse_fin("(x) y") == parse_fin("x y")
        assert parse_fin("(y _|_) (z)") == parse_fin("y _|_ z")
        assert print_fin_dist(parse_fin(r"(\x. x I)")) == r"\x. x I"

    def test_literal_divergence_reads_as_bottom(self):
        assert parse_fin(r"(\x. x x) (\x. x x)") == FIN_BOTTOM
        assert parse_fin(r"y ((\a. a a) (\b. b b))") == parse_fin("y _|_")
        assert print_dist(embed(FIN_BOTTOM)) == print_dist(Dist([(DIVERGE, 1)]))

    def test_weight_zero_entry_is_dropped_before_the_check(self):
        assert parse_fin(r"{0: (\x. x) y}") == FIN_EMPTY
        assert parse_fin(r"{0: _|_ y, 1/2: z}") == parse_fin("{1/2: z}")

    def test_prelude_names_are_plain_names(self):
        c = parse_fin("I omega")
        assert print_fin_dist(c) == "I omega"
        assert embed(c) == parse("I omega", prelude={})

    @pytest.mark.parametrize("make", [
        lambda n: "y (" * n + "_|_" + ")" * n,
        lambda n: "\\x. " * n + "_|_",
        lambda n: "(" * n + "x" + ")" * n,
    ], ids=["spine", "abstraction", "parentheses"])
    def test_deep_nesting_is_a_parse_error(self, make):
        # truncation and embedding recurse deeper per level than the
        # parser: past their depth the reader still raises only a
        # ParseError
        for n in (10, 150, 200, 250, 400, 600, 1000):
            try:
                parse_fin(make(n))
            except ParseError as exc:
                assert "nesting too deep" in str(exc)

    @pytest.mark.parametrize("src", CORPUS_SOURCES)
    def test_printed_candidates_read_back(self, src):
        # the candidates that `plamb approx` prints, as the benchmark runs it
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["approx", src, "--depth", "2", "--fuel", "16", "--grain", "1/8"]) == 0
        lines = out.getvalue().splitlines()
        read = [parse_fin(line) for line in lines]
        assert [print_fin_dist(c) for c in read] == lines
        assert set(read) == approx_generate(parse(src), 2, 16, F(1, 8))


class TestCandidateDepth:
    """How deep ``parse_fin`` reads a candidate at the default recursion
    limit, and that deeper sources are refused with a positioned
    ParseError, never a bare RecursionError."""

    def test_deepest_spine_and_chain_at_the_default_limit(self):
        # in a process of its own, at the interpreter's default limit: the
        # depth below the first refused, or the ceiling when none is (3.13
        # reads deeper than 3.10 to 3.12 do)
        ceiling = 2000
        script = """if True:
            from plamb.approximants import parse_fin
            from plamb.syntax import ParseError

            def deepest(make):
                for n in range(150, %d):
                    try:
                        parse_fin(make(n))
                    except ParseError:
                        return n - 1
                return %d

            print(deepest(lambda n: "y (" * n + "_|_" + ")" * n))
            print(deepest(lambda n: "\\\\x. " * n + "x"))
        """ % (ceiling, ceiling)
        src = os.path.dirname(os.path.dirname(plamb.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        assert all(190 <= int(n) < ceiling for n in out) and len(out) == 2

    def test_spine_keyed_under_a_binder_is_a_parse_error(self):
        # keying the truncated spine walks under the binder down to x,
        # deeper per level than the parser
        for n in range(150, 400, 3):
            try:
                parse_fin("\\x. " + "y (" * n + "x" + ")" * n)
            except ParseError as exc:
                assert "nesting too deep" in str(exc)


class TestOnePrinter:
    """``print_dist`` prints the distributions of both worlds, as the two
    printers it replaced did, and as deep as either world is read."""

    def test_same_text_as_the_two_printers_it_replaced(self):
        rng = random.Random(28)
        for _ in range(300):
            m = gen_dist(rng, 3)
            values = evolve(m, 16).values
            sample = [m, values] + [truncate(values, depth) for depth in range(4)]
            sample += approx_generate(m, 2, 16, F(1, 8))
            for d in sample:
                for explicit in (False, True):
                    assert print_dist(d, explicit) == print_dist_oracle(d, explicit)
                for t in d.support():
                    assert print_term(t) == repr(t) == print_term_oracle(t)

    def test_deepest_candidate_prints_and_reads_back(self):
        # printing a nesting level takes fewer frames than reading it
        def make(n):
            return "y (" * n + "y _|_" + ")" * n

        lo, hi = 0, sys.getrecursionlimit()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse_fin(make(mid))
                lo = mid
            except ParseError:
                hi = mid
        c = parse_fin(make(lo))
        assert print_fin_dist(c) == make(lo)
        assert parse_fin(print_fin_dist(c)) == c


class TestFinDistKey:
    def test_alpha_equivalent_by_parse_fin_and_truncation(self):
        m = parse(r"{1/2: \a. {1/2: a}, 1/4: y (\b. b)}")
        out = approx_generate(m, 2, 8, F(1, 8))
        want = parse_fin(r"{1/8: y ({7/8: \z. _|_}), 3/8: \q. {3/8: q}}")
        assert want in out
        (got,) = [c for c in out if c == want]
        assert hash(got) == hash(want) and got.canon() == want.canon()
        assert print_fin_dist(got) == r"{3/8: \a. {3/8: a}, 1/8: y ({7/8: \b. _|_})}"

    def test_nested_weights_order_by_value(self):
        c = parse_fin(r"{1/2: \x. {1/2: x}, 1/2: \x. {1/3: x}}")
        assert print_fin_dist(c) == r"{1/2: \x. {1/3: x}, 1/2: \x. {1/2: x}}"

    def test_spine_key_reuses_argument_keys(self):
        a = parse_fin("{1/2: _|_}")
        key = FinSpine("y", (a,)).canon()
        assert key == ("s", ("f", "y"), a.canon()) and key[2] is a.canon()
        built = FinDist([(FinSpine("y", (a,)), F(1, 2))])
        parsed = parse_fin("{1/2: y ({1/2: _|_})}")
        assert built == parsed and hash(built) == hash(parsed)


class TestFinIdentity:
    def test_alpha_equivalent_abstractions(self):
        a = FinAbs("x", parse_fin("{1/2: x _|_}"))
        b = FinAbs("y", parse_fin("{1/2: y _|_}"))
        assert a == b and hash(a) == hash(b)
        assert a != FinAbs("y", parse_fin("{1/2: x _|_}"))

    def test_alpha_equivalent_spines(self):
        a = FinSpine("y", (FinDist({FinAbs("p", parse_fin("p")): F(1, 2)}),))
        b = FinSpine("y", (FinDist({FinAbs("q", parse_fin("q")): F(1, 2)}),))
        assert a == b and hash(a) == hash(b)
        assert a != FinSpine("z", b.args)

    def test_worlds_never_equal(self):
        # both keys are ("l", <empty key>), yet the forms differ
        assert FinAbs("x", FIN_EMPTY).canon() == Abs("x", EMPTY).canon()
        assert FinAbs("x", FIN_EMPTY) != Abs("x", EMPTY)
        assert FIN_EMPTY.canon() == Dist().canon()
        assert FinDist() != Dist() and Dist() != FinDist()

    def test_weights_above_one_are_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_fin("{1/2: _|_, 2/3: _|_}")
        assert (exc.value.line, exc.value.col) == (1, 1)
        assert "weights sum above 1" in str(exc.value)

