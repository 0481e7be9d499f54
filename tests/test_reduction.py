import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import test_syntax
from test_syntax import assert_as_validated
from conftest import BINDERS, dists, gen_dist, gen_loop_program, gen_terminating
from plamb import reduction, syntax
from plamb.approximants import FIN_BOTTOM, OMEGA, FinAbs, approx_check, approx_generate
from plamb.corpus import CORPUS_SOURCES
from plamb.laws import linearity, reduction_laws
from plamb.reduction import (
    AbsView,
    SpineView,
    evolve,
    evolve_sequential,
    head_step,
    step,
    step_entry,
    vals,
    whnf_view,
)
from plamb.simulation import SimParams, sim_check
from plamb.syntax import (
    EMPTY,
    Abs,
    App,
    Dist,
    LambError,
    Var,
    dist_leq,
    dist_scale,
    dist_union,
    mixture,
    names_alike,
    parse,
    print_dist,
    print_term,
    subst,
    unit,
)

YT_SRC = r"Y (\x. {1/2: I, 1/2: x})"
YT = parse(YT_SRC)
# a loop state met first with its binders named a and p, and that recurs
# only as a copy named b and q
WA, WB = r"(\a. {1/2: a a, 1/2: \p. p})", r"(\b. {1/2: b b, 1/2: \q. q})"
VARIANT_STATE_SRC = "{1/2: %s %s, 1/2: ({1/2: %s, 1/2: u}) %s}" % (WA, WA, WB, WB)
# a four-state loop whose redex comes in as (\a. \p. p) u from one state
# and as (\b. \q. q) u from another
VARIANT_SUCCESSOR_SRC = (
    r"(\x. \y. {1/2: y y x, 1/2: (\a. \p. p) u}) (\x. \y. {1/2: y y x, 1/2: (\a. \p. p) u})"
    r" (\y. \x. {2/3: x x y, 1/3: (\b. \q. q) u})"
)


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

    def test_non_term_raises(self):
        with pytest.raises(LambError) as e:
            whnf_view(5)
        assert str(e.value) == "not a term: 5"

    def test_finite_terms_are_not_terms(self):
        for t in (OMEGA, FinAbs("x", FIN_BOTTOM)):
            with pytest.raises(LambError) as e:
                whnf_view(t)
            assert str(e.value) == "not a term: %r" % (t,)

    def test_a_term_is_classified_once(self):
        for src in ("x", "x y z", r"(\x. x) y", r"({1/2: x}) z"):
            t = term(src)
            assert whnf_view(t) is whnf_view(t)

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

    def test_error_messages(self):
        with pytest.raises(LambError) as e:
            step_entry(parse("x"), 0)
        assert str(e.value) == "no non-whnf entry at index 0"
        for spine in (Var("x"), term("x y")):
            with pytest.raises(LambError) as e:
                head_step(spine)
            assert str(e.value) == "head_step on a weak head normal form"

    def test_sub_unit_operator_leaks_mass(self):
        got = step(parse(r"({1/2: \x. x}) z"))
        assert got == parse(r"{1/2: (\x. x) z}")
        assert got.mass() == F(1, 2)


class TestCanonicalPaths:
    """``vals``, left-linearity and ``step`` build through
    ``Distribution._canonical``, unchecked, or return their input: each
    result is what the validating constructor builds, both from the same
    input and from the result's own entries."""

    @staticmethod
    def samples(seed):
        return test_syntax.TestMergePaths().samples(seed, 30)

    def test_vals(self, canonical_contract):
        kinds = set()
        for d in self.samples(51):
            got = vals(d)
            kept = [(t, n) for t, n in d._ints if whnf_view(t) is not None]
            assert_as_validated(got, kept, d._den)
            assert_as_validated(got, got._ints, got._den)
            if len(kept) == len(d):
                assert got is d
                kinds.add("all")
            elif not kept:
                assert got is EMPTY
                kinds.add("none")
            else:
                kinds.add("some")
        assert kinds == {"all", "none", "some"}
        assert canonical_contract

    def test_left_linearity(self, canonical_contract):
        dists = self.samples(52)
        ops = [f for f in dists if f.point() is None][:200] + [EMPTY]
        assert sum(len(f) > 1 for f in ops) > 50
        for f in ops:
            for a in dists[:4]:
                got = head_step(App(f, a))
                assert [(s.fun.point(), s.arg) for s in got.support()] == [(m, a) for m in f.support()]
                assert all(s.fun.point() is m and s.arg is a for s, m in zip(got.support(), f.support()))
                assert_as_validated(got, [(s, n) for s, (_, n) in zip(got.support(), f._ints)], f._den)
                assert_as_validated(got, got._ints, got._den)
                fresh = Dist([(App(unit(m), a), n) for m, n in f._ints], f._den)
                assert got == fresh and print_dist(got) == print_dist(fresh)
        assert len(canonical_contract) >= len(ops) * 4

    def test_step(self, canonical_contract):
        kinds = set()
        for d in self.samples(53):
            reducible = any(whnf_view(t) is None for t in d.support())
            got = step(d)
            want = mixture(
                [(n, t if whnf_view(t) is not None else head_step(t)) for t, n in d._ints], d._den
            )
            assert_as_validated(got, want._ints, want._den)
            assert_as_validated(got, got._ints, got._den)
            assert (got is d) is not reducible
            kinds.add(reducible)
        assert kinds == {True, False}

    def test_public_contracts_unchanged(self):
        values = parse(r"{1/2: \x. x, 1/3: y z}")
        assert step(values) is values and vals(values) is values
        assert vals(EMPTY) is EMPTY and step(EMPTY) is EMPTY
        mixed = parse(r"{1/2: (\x. x) y, 1/3: z}")
        stepped = step(mixed)
        assert stepped is not mixed and stepped == parse(r"{1/2: y, 1/3: z}")
        assert vals(mixed) == parse(r"{1/3: z}") and vals(parse(r"(\x. x) y")) is EMPTY


def test_corpus_runs_under_the_canonical_contract(canonical_contract):
    for src in CORPUS_SOURCES:
        evolve(parse(src), 32)
        cur = parse(src)
        for _ in range(4):
            cur = step(cur)
        sim_check(dist_scale(F(1, 2), parse(src)), parse(src), SimParams(3, 16))
        for c in approx_generate(parse(src), 2, 16, F(1, 8)):
            assert approx_check(c, parse(src), 2, 16)
    # the left-linearity reducts are among the builds checked
    assert any(
        len(d) > 1 and all(isinstance(t, App) and t.fun.point() for t in d.support())
        for d in canonical_contract
    )


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

    def test_repr_shows_every_field(self):
        assert repr(evolve(YT, 9)) == (
            r"EvolveReport(values={7/8: \x. x}, residual=1/8, steps_used=9, "
            "converged=False, limit_exact=False)"
        )
        assert repr(evolve(parse("omega"), 5)) == (
            "EvolveReport(values={}, residual=1, steps_used=1, converged=False, limit_exact=True)"
        )

    @staticmethod
    def traced_peaks(src):
        """The traced memory peak of ``evolve`` on ``src`` at fuel 300 and
        at fuel 3000, each on a fresh parse that runs out of fuel."""
        peaks = []
        for fuel in (300, 3000):
            d = parse(src)
            tracemalloc.start()
            try:
                assert evolve(d, fuel).steps_used == fuel
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_cycle_table_is_bounded_in_fuel(self):
        # the residual mass of the README loop halves on every turn, so
        # the table of residuals seen never holds more than one turn
        peaks = self.traced_peaks(YT_SRC)
        assert peaks[1] - peaks[0] < 50_000, peaks

    def test_met_table_is_bounded_in_fuel(self):
        # the variant-state loop recurs as a b and q copy of a state met
        # first as an a and p copy; once listed in the alike table, that
        # copy lends its reduct to every later one, so the table stops growing
        peaks = self.traced_peaks(VARIANT_STATE_SRC)
        assert peaks[1] - peaks[0] < 50_000, peaks


def uncached_head_step(t, reduced=None):
    """The head reduction written apart from the library's, reading no
    application's ``_step`` slot: the oracle for the stored reducts.  Every
    term it reduces, the context rule's inner ones included, is added to
    the list ``reduced`` when one is given."""
    if reduced is not None:
        reduced.append(t)
    f = t.fun
    m = f.point()
    if m is None:
        return Dist([(App(unit(m), t.arg), n) for m, n in f._ints], f._den)
    if isinstance(m, Abs):
        return subst(m.body, m.binder, t.arg)
    return unit(App(uncached_head_step(m, reduced), t.arg))


def uncached_step(d, reduced=None):
    """``step`` through ``uncached_head_step``."""
    return mixture(
        [(n, t if whnf_view(t) is not None else uncached_head_step(t, reduced))
         for t, n in d._ints],
        d._den,
    )


def reference_evolve(d, fuel, reduced=None):
    """``evolve`` by iterating the whole-distribution step, uncached, with
    the cycle check on the whole distribution, as a tuple of what a report
    shows: printed values, residual, steps used, converged, limit exact."""
    return reference_reports(d, fuel, reduced)[fuel]


def reference_reports(d, max_fuel, reduced=None):
    """``reference_evolve(d, fuel)`` for every fuel up to ``max_fuel``,
    read off one trajectory."""
    trail = [d]
    seen = {d}
    cycled = False
    while len(trail) <= max_fuel and not cycled and vals(trail[-1]).mass() != trail[-1].mass():
        cur = uncached_step(trail[-1], reduced)
        cycled = cur in seen
        seen.add(cur)
        trail.append(cur)
    reports = []
    for fuel in range(max_fuel + 1):
        steps = min(fuel, len(trail) - 1)
        v = vals(trail[steps])
        residual = trail[steps].mass() - v.mass()
        converged = residual == 0
        stopped = cycled and steps == len(trail) - 1
        reports.append((print_dist(v, explicit=True), residual, steps, converged,
                        converged or stopped))
    return reports


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

    def test_readme_loop_recurs(self):
        # a fresh program at each fuel, and one whose terms keep their
        # reducts from every fuel before
        warm = parse(YT_SRC)
        for fuel in range(41):
            self.check(parse(YT_SRC), fuel)
            self.check(warm, fuel)

    def test_omega_mixtures(self):
        for src in (
            r"{1/2: omega, 1/2: I}",
            r"{1/2: omega, 1/2: (\z. z) ((\y. y y) (\y. y y))}",
            r"{1/3: omega, 1/3: (\z. z) omega, 1/3: (\a. \b. b) omega}",
            r"{1/4: omega u, 1/4: (\f. f f) omega, 1/2: Y (\x. {1/2: I, 1/2: x})}",
            r"(\x. x x) (\x. {1/2: x x, 1/2: I})",
        ):
            warm = parse(src)
            for fuel in range(13):
                self.check(parse(src), fuel)
                self.check(warm, fuel)

    def test_alpha_variant_steps_under_its_own_names(self):
        # the second redex has the first one's key but names its inner
        # binder q: stepping it through the first would show \p
        src = r"{1/2: (\x. \p. x) u, 1/2: (\g. g u) (\x. \q. x)}"
        assert self.check(parse(src), 2)[0] == r"{1: \q. u}"
        assert self.check(parse(src), 5)[0] == r"{1: \q. u}"

    def check_fuels(self, src, max_fuel):
        """Every fuel up to ``max_fuel``, on a fresh program and on one kept
        warm across the fuels."""
        want = reference_reports(parse(src), max_fuel)
        warm = parse(src)
        for fuel in range(max_fuel + 1):
            assert report_tuple(evolve(parse(src), fuel)) == want[fuel], (src, fuel)
            assert report_tuple(evolve(warm, fuel)) == want[fuel], (src, fuel)
        return want

    def test_loop_samples(self):
        for seed in range(12):
            rng = random.Random(seed)
            src = gen_loop_program(rng)
            self.check_fuels(src, 40)
            # the same loop with its binders named otherwise, so that a
            # state recurs under other names than those it was met with
            for _ in range(3):
                renamed = print_dist(rename_binders(parse(src), rng), explicit=True)
                self.check_fuels(renamed, 40)

    def test_loop_closes_with_one_unit_of_fuel_left(self):
        self.check_fuels(YT_SRC, 8)

    def test_variant_state_stepped_under_its_own_names(self):
        # the loop state is met first with binders a and p; from step 1 on,
        # only a copy named b and q recurs, and it is stepped by the reduct
        # of a b and q copy, never by the a and p one
        want = self.check_fuels(VARIANT_STATE_SRC, 12)
        assert "\\q. q" in want[12][0] and "\\p" not in want[12][0]

    def test_variant_successor_stepped_under_its_own_names(self):
        # a four-state loop whose redex (\a. \p. p) u first comes in with
        # one state and comes back as (\b. \q. q) u from another; stepped
        # by the first copy's reduct it would show \p. p where step shows \q. q
        want = self.check_fuels(VARIANT_SUCCESSOR_SRC, 16)
        assert [want[fuel][0] for fuel in (14, 16)] == [r"{26/27: \q. q}", r"{53/54: \p. p}"]

    def test_cycle_back_to_a_state_two_steps_earlier(self):
        # the cycle closes on a state of step 3, seen two steps before
        src = r"{1/2: (\a. (\b. a a) c) (\a. (\b. a a) c), 1/2: (\x. (\y. (\z. z) y) x) u}"
        want = self.check_fuels(src, 6)
        assert want[6][2:] == (5, False, True)

    def test_two_states_one_value_class_under_two_names(self):
        # a four-state loop: x x f yields \p. p two steps after the start,
        # and f f x yields \q. q two steps after that, in turn
        x, f = r"(\x. \y. {1/2: y y x, 1/2: \p. p})", r"(\y. \x. {2/3: x x y, 1/3: \q. q})"
        want = self.check_fuels("%s %s %s" % (x, x, f), 16)
        assert [want[fuel][0] for fuel in (14, 16)] == [r"{53/54: \p. p}", r"{80/81: \q. q}"]

    def test_recurring_loops_build_no_dist_per_step(self, monkeypatch):
        # on the README loop and the two variant-naming loops, neither the
        # Dists built nor the head reducts computed grow with the fuel (in
        # the variant-state loop, a b and q copy is reduced once, and the
        # new b and q copy in its reduct borrows that reduct).  Dists
        # are counted at both ways in, the constructor and ``_canonical``;
        # ``unit`` fills its own, and within ``evolve`` runs only inside a
        # head reduction, which the reduct count covers
        counts = {"dists": 0, "reducts": 0}
        init, canonical = Dist.__init__, Dist._canonical.__func__
        head_reduct = reduction._head_reduct

        def counting_init(self, *args):
            counts["dists"] += 1
            init(self, *args)

        def counting_canonical(cls, *args):
            counts["dists"] += 1
            return canonical(cls, *args)

        def counting_reduct(t):
            counts["reducts"] += 1
            return head_reduct(t)

        monkeypatch.setattr(Dist, "__init__", counting_init)
        monkeypatch.setattr(syntax.Distribution, "_canonical", classmethod(counting_canonical))
        monkeypatch.setattr(reduction, "_head_reduct", counting_reduct)
        for src, reducts in ((YT_SRC, 4), (VARIANT_STATE_SRC, 3), (VARIANT_SUCCESSOR_SRC, 8)):
            seen = []
            for fuel in (40, 400):
                counts.update(dists=0, reducts=0)
                assert evolve(parse(src), fuel).steps_used == fuel
                seen.append(dict(counts))
            assert seen[0]["dists"] == seen[1]["dists"], src
            assert seen[0]["reducts"] == seen[1]["reducts"] == reducts, src


def rename_binders(d, rng):
    """An alpha-equivalent copy of ``d`` with its binders renamed at random
    from BINDERS wherever the new name is neither free in the body nor
    bound inside it, so that the copy prints with names the parser reads
    (a capture-avoiding substitution would bring in a ``#`` name)."""
    return Dist([(_rename_term(t, rng), n) for t, n in d._ints], d._den)


def _rename_term(t, rng):
    if isinstance(t, Var):
        return t
    if isinstance(t, App):
        return App(rename_binders(t.fun, rng), rename_binders(t.arg, rng))
    b, body = rng.choice(BINDERS), t.body
    if b != t.binder:
        if b in body.free_names() or any(
            isinstance(s, Abs) and s.binder == b for s in subterms(body)
        ):
            b = t.binder
        else:
            body = subst(body, t.binder, unit(Var(b)))
    return Abs(b, rename_binders(body, rng))


def subterms(d):
    for t, _ in d._ints:
        yield t
        if isinstance(t, Abs):
            yield from subterms(t.body)
        elif isinstance(t, App):
            yield from subterms(t.fun)
            yield from subterms(t.arg)


class TestHeadStepCache:
    """An application keeps its head reduct, and ``evolve`` steps a term
    that recurs by the reduct of a term reduced before that prints the same."""

    def test_reduct_is_stored(self):
        t = term(r"(\x. x) y")
        assert head_step(t) is head_step(t)

    def test_context_rule_reads_the_inner_slot(self):
        t = term(r"(\x. \y. x) a b")
        inner = t.fun.point()
        h = head_step(inner)
        assert head_step(t).point().fun is h

    def test_stored_reduct_matches_the_oracle(self):
        for seed in range(100):
            d = gen_dist(random.Random(seed), 3)
            for t in subterms(d):
                if isinstance(t, App) and whnf_view(t) is None:
                    want = print_dist(uncached_head_step(t), explicit=True)
                    assert print_dist(head_step(t), explicit=True) == want
                    assert print_dist(head_step(t), explicit=True) == want

    def test_loop_reduces_each_distinct_term_once(self, monkeypatch):
        reduced = []
        reference_evolve(parse(YT_SRC), 40, reduced)
        distinct = {print_term(t) for t in reduced}
        assert len(reduced) >= 40 > len(distinct)
        calls = []
        uncached = reduction._head_reduct

        def counting(t):
            calls.append(print_term(t))
            return uncached(t)

        monkeypatch.setattr(reduction, "_head_reduct", counting)
        assert evolve(parse(YT_SRC), 40).steps_used == 40
        assert sorted(calls) == sorted(distinct)

    def test_names_alike_exactly_when_printed_alike(self):
        alike = unlike = 0
        for seed in range(300):
            rng = random.Random(seed)
            d = gen_dist(rng, 3)
            classes = {}
            for t in list(subterms(d)) + list(subterms(rename_binders(d, rng))):
                classes.setdefault(t.canon(), []).append(t)
            for group in classes.values():
                for a in group:
                    for b in group:
                        same = print_term(a) == print_term(b)
                        assert names_alike(a, b) == same, (a, b)
                        if a is not b:
                            alike += same
                            unlike += not same
        assert alike > 100 and unlike > 100


class TestAlikeTable:
    """``evolve``'s alike table maps a residual class key to the terms of
    the class reduced so far, every unalike variant listed; each reduct is
    split once per call."""

    def test_unalike_variants_recurring_in_one_loop_are_each_reduced_once(self, monkeypatch):
        # the variant-state loop meets its state first named a and p, then
        # as a new b and q copy on every step; the four-state loop brings
        # back (\a. \p. p) u and (\b. \q. q) u on every turn.  A table
        # listing only the first term of a class would reduce every new b
        # and q copy of the state again
        reduced = []
        head_reduct = reduction._head_reduct

        def counting(t):
            reduced.append(t)
            return head_reduct(t)

        monkeypatch.setattr(reduction, "_head_reduct", counting)
        for src, variants in (
            (VARIANT_STATE_SRC, ["%s %s" % (WA, WA), "%s %s" % (WB, WB)]),
            (VARIANT_SUCCESSOR_SRC, [r"(\a. \p. p) u", r"(\b. \q. q) u"]),
        ):
            assert term(variants[0]).canon() == term(variants[1]).canon()
            for fuel in (40, 400):
                del reduced[:]
                assert evolve(parse(src), fuel).steps_used == fuel
                shown = [print_term(t) for t in reduced]
                assert [shown.count(v) for v in variants] == [1, 1], (src, fuel)
                assert len(shown) == len(set(shown)), (src, fuel)

    def test_split_once_per_distinct_reduct(self, monkeypatch):
        split_reducts = []
        split = reduction._split

        def counting(h, *args):
            split_reducts.append(h)
            return split(h, *args)

        monkeypatch.setattr(reduction, "_split", counting)
        for src in (YT_SRC, VARIANT_STATE_SRC, VARIANT_SUCCESSOR_SRC):
            del split_reducts[:]
            assert evolve(parse(src), 40).steps_used == 40
            # the list keeps every reduct alive, so no two share an id;
            # forty steps of new term objects are split by a few reducts
            assert len({id(h) for h in split_reducts}) == len(split_reducts) < 10


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
