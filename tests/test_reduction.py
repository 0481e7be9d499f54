import random
from fractions import Fraction as F

from hypothesis import given, settings

from conftest import dists, gen_dist, gen_terminating
from plamb.laws import linearity, reduction_laws
from plamb.reduction import (
    AbsView,
    SpineView,
    evolve,
    evolve_sequential,
    step,
    vals,
    whnf_view,
)
from plamb.syntax import dist_leq, dist_scale, dist_union, parse, print_dist

YT = parse(r"Y (\x. {1/2: I, 1/2: x})")


def term(src):
    d = parse(src)
    (t, w), = d.entries()
    assert w == 1
    return t


class TestWhnfView:
    def test_abstraction(self):
        v = whnf_view(term(r"\x. x"))
        assert isinstance(v, AbsView)
        assert v.binder == "x" and v.body == parse("x")

    def test_abstraction_is_its_own_view(self):
        t = term(r"\x. {1/2: x}")
        assert whnf_view(t) is t

    def test_spine_one_arg(self):
        v = whnf_view(term("x ({1/2: y, 1/2: z})"))
        assert isinstance(v, SpineView)
        assert v.head == "x" and v.args == (parse("{1/2: y, 1/2: z}"),)

    def test_bare_variable_is_empty_spine(self):
        v = whnf_view(term("x"))
        assert isinstance(v, SpineView)
        assert v.head == "x" and v.args == ()

    def test_deep_spine_order(self):
        v = whnf_view(term("x y z"))
        assert v.head == "x" and v.args == (parse("y"), parse("z"))

    def test_head_redex_is_not_whnf(self):
        assert whnf_view(term(r"(\x. x) y")) is None

    def test_non_singleton_operator_is_not_whnf(self):
        assert whnf_view(term(r"({1/2: x, 1/2: y}) z")) is None
        assert whnf_view(term(r"({1/2: x}) z")) is None


class TestStep:
    def test_beta(self):
        assert step(parse(r"(\x. x) y")) == parse("y")

    def test_left_linearity(self):
        got = step(parse(r"({1/2: \x. x, 1/2: y}) z"))
        assert got == parse(r"{1/2: (\x. x) z, 1/2: y z}")

    def test_whnf_fixed_point(self):
        d = parse(r"\x. x")
        assert step(d) == d

    def test_empty_operator_drops_mass(self):
        assert step(parse("({}) y")).mass() == 0

    def test_sub_unit_operator_leaks_mass(self):
        got = step(parse(r"({1/2: \x. x}) z"))
        assert got == parse(r"{1/2: (\x. x) z}")
        assert got.mass() == F(1, 2)


class TestEvolve:
    def test_value_needs_no_fuel(self):
        r = evolve(parse(r"\x. x"), 0)
        assert r.values == parse(r"\x. x")
        assert r.residual == 0 and r.converged

    def test_omega_diverges_for_any_fuel(self):
        for fuel in (0, 1, 5, 50):
            r = evolve(parse("omega"), fuel)
            assert r.values.is_empty()
            assert r.residual == 1 and not r.converged
        # the trajectory is a self-loop, so the limit is still exact
        assert evolve(parse("omega"), 5).limit_exact

    def test_fixpoint_unfoldings(self):
        r = evolve(YT, 9)
        assert r.values == parse("{7/8: I}")
        assert r.residual == F(1, 8)
        assert not r.limit_exact

    def test_monotone_in_fuel(self):
        prev = evolve(YT, 0).values
        for fuel in range(1, 13):
            cur = evolve(YT, fuel).values
            assert dist_leq(prev, cur)
            prev = cur


def reference_evolve(d, fuel):
    """``evolve`` by iterating the whole-distribution ``step``, with the
    cycle check on the whole distribution, as a tuple of what a report
    shows: printed values, residual, steps used, converged, limit exact."""
    cur = d
    seen = {cur}
    steps = 0
    cycled = False
    for _ in range(fuel):
        if vals(cur).mass() == cur.mass():
            break
        cur = step(cur)
        steps += 1
        if cur in seen:
            cycled = True
            break
        seen.add(cur)
    v = vals(cur)
    residual = cur.mass() - v.mass()
    converged = residual == 0
    return print_dist(v, explicit=True), residual, steps, converged, converged or cycled


def report_tuple(r):
    return (
        print_dist(r.values, explicit=True), r.residual, r.steps_used,
        r.converged, r.limit_exact,
    )


class TestEvolveMatchesStep:
    """``evolve`` steps only the residual; it must report exactly what
    iterating ``step`` reports, display names included."""

    def check(self, d, fuel):
        got = report_tuple(evolve(d, fuel))
        assert got == reference_evolve(d, fuel), (print_dist(d), fuel)
        return got

    def test_seeded_samples(self):
        for seed in range(250):
            rng = random.Random(seed)
            d = gen_dist(rng, rng.choice((2, 3)))
            for fuel in range(9):
                self.check(d, fuel)

    def test_redex_sorting_first_renames_the_value(self):
        d = parse(r"{1/2: \y. y, 1/2: (\z. z) (\x. x)}")
        assert self.check(d, 1)[0] == r"{1: \x. x}"

    def test_value_sorting_first_keeps_its_name(self):
        d = parse(r"{1/2: u (\a. a), 1/2: (\z. z) (u (\b. b))}")
        assert self.check(d, 1)[0] == r"{1: u (\a. a)}"

    def test_only_the_first_reduct_of_a_step_renames(self):
        # both redexes sort before the value; the first one names the class
        d = parse(r"{1/3: \v. v, 1/3: (\z. z) (\x. x), 1/3: (\w. \y. y) u}")
        assert self.check(d, 1)[0] == r"{1: \x. x}"
        d = parse(r"{1/2: (\z. z) (\x. x), 1/2: (\w. \y. y) u}")
        assert self.check(d, 1)[0] == r"{1: \x. x}"

    def test_omega_cycles(self):
        for fuel in range(6):
            self.check(parse("omega"), fuel)
        assert self.check(parse("omega"), 3) == ("{}", 1, 1, False, True)

    def test_fixpoint_runs_out_of_fuel(self):
        for fuel in (0, 1, 5, 9, 12):
            self.check(YT, fuel)
        assert self.check(YT, 9) == ("{7/8: \\x. x}", F(1, 8), 9, False, False)


class TestEvolveCache:
    """A ``Dist`` keeps the report of its last evolution."""

    def test_same_fuel_returns_the_stored_report(self):
        d = parse(r"(\z. z) (\x. {1/2: x, 1/2: omega})")
        assert evolve(d, 5) is evolve(d, 5)

    def test_other_fuel_recomputes(self):
        for fuel in (0, 3, 9, 3, 12, 9):
            assert report_tuple(evolve(YT, fuel)) == reference_evolve(YT, fuel)

    def test_alpha_equivalent_inputs_keep_their_names(self):
        a = parse(r"{1/2: (\z. z) (\x. x), 1/2: u (\p. p)}")
        b = parse(r"{1/2: (\w. w) (\y. y), 1/2: u (\q. q)}")
        assert a == b
        for _ in range(2):
            assert print_dist(evolve(a, 4).values) == r"{1/2: u (\p. p), 1/2: \x. x}"
            assert print_dist(evolve(b, 4).values) == r"{1/2: u (\q. q), 1/2: \y. y}"


class TestLaws:
    @given(dists())
    @settings(max_examples=100)
    def test_mass_never_increases(self, d):
        assert all(law != "mass grew" for _, _, law in reduction_laws([d], 4))

    @given(dists())
    @settings(max_examples=100)
    def test_vals_monotone(self, d):
        assert all(law != "values shrank" for _, _, law in reduction_laws([d], 4))

    @given(dists())
    @settings(max_examples=60)
    def test_future_value_bound(self, d):
        early = evolve(d, 4)
        late = evolve(d, 16)
        assert late.values.mass() <= early.values.mass() + early.residual

    @given(dists(), dists())
    @settings(max_examples=60)
    def test_order_preservation(self, a, extra):
        extra = dist_scale(F(1, 2), extra)
        a = dist_scale(F(1, 2), a)
        b = dist_union(a, extra)
        assert dist_leq(evolve(a, 8).values, evolve(b, 8).values)

    @given(dists(), dists())
    @settings(max_examples=60)
    def test_union_linearity(self, a, b):
        assert not linearity([(dist_scale(F(1, 2), a), dist_scale(F(1, 2), b))], 12)


class TestConfluence:
    def test_sequential_agrees_with_parallel(self):
        rng = random.Random(11)
        for i in range(40):
            d = gen_terminating(random.Random(100 + i), depth=3, fuel=32)
            par = evolve(d, 32)
            seq = evolve_sequential(d, 500, rng)
            assert par.converged and seq.converged
            assert par.values == seq.values

    def test_sequential_single_entry_schedule(self):
        d = parse(r"{1/2: (\x. x) y, 1/2: (\x. x x) (\z. z)}")
        seq = evolve_sequential(d, 50)
        par = evolve(d, 50)
        assert seq.values == par.values == parse(r"{1/2: y, 1/2: \z. z}")
