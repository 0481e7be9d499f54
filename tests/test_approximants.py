import random
from fractions import Fraction as F

import pytest

from conftest import gen_terminating
from plamb.approximants import (
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
)
from plamb.laws import approximant_soundness
from plamb.reduction import evolve
from plamb.simulation import SimParams, sim_check
from plamb.syntax import EMPTY, Abs, Dist, ParseError, dist_scale, parse

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

