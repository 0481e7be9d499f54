import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import BINDERS, dists, gen_dist, gen_loop_program, gen_terminating
from plamb import reduction
from plamb.laws import linearity, reduction_laws
from plamb.reduction import (
    AbsView,
    SpineView,
    evolve,
    evolve_sequential,
    head_step,
    is_whnf,
    step,
    step_entry,
    vals,
    whnf_view,
)
from plamb.syntax import (
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
        [(n, t if is_whnf(t) else uncached_head_step(t, reduced)) for t, n in d._ints], d._den
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

    # the closed-chain phase: once the residual moves only among terms it
    # has stepped, the rest of the fuel runs on integer vectors

    def chain_runs(self, monkeypatch):
        """Record (step of the switch, fuel, cycled) for each switch to the
        closed-chain phase."""
        runs = []
        run_chain = reduction._run_chain

        def recording(*args):
            out = run_chain(*args)
            runs.append((args[5], args[6], out[3]))
            return out

        monkeypatch.setattr(reduction, "_run_chain", recording)
        return runs

    def check_fuels(self, src, max_fuel):
        """Every fuel up to ``max_fuel``, on a fresh program and on one kept
        warm across the fuels."""
        want = reference_reports(parse(src), max_fuel)
        warm = parse(src)
        for fuel in range(max_fuel + 1):
            assert report_tuple(evolve(parse(src), fuel)) == want[fuel], (src, fuel)
            assert report_tuple(evolve(warm, fuel)) == want[fuel], (src, fuel)
        return want

    def test_loop_samples(self, monkeypatch):
        runs = self.chain_runs(monkeypatch)
        switched = 0
        for seed in range(12):
            self.check_fuels(gen_loop_program(random.Random(seed)), 40)
            switched += any(fuel == 40 for _, fuel, _ in runs)
            runs.clear()
        assert switched == 12

    def test_chain_closes_with_one_unit_of_fuel_left(self, monkeypatch):
        runs = self.chain_runs(monkeypatch)
        self.check_fuels(YT_SRC, 8)
        assert (4, 5, False) in runs

    def test_variant_state_stays_on_the_dist_path(self, monkeypatch):
        # the loop state's first copy names its binders a and p; from step
        # 1 on, only a copy named b and q recurs, so every step has an
        # entry stepped on its own
        runs = self.chain_runs(monkeypatch)
        wa, wb = r"(\a. {1/2: a a, 1/2: \p. p})", r"(\b. {1/2: b b, 1/2: \q. q})"
        src = "{1/2: %s %s, 1/2: ({1/2: %s, 1/2: u}) %s}" % (wa, wa, wb, wb)
        want = self.check_fuels(src, 12)
        assert runs == []
        assert "\\q. q" in want[12][0] and "\\p" not in want[12][0]

    def test_variant_successor_stays_on_the_dist_path(self, monkeypatch):
        # a four-state loop whose redex (\a. \p. p) u first comes in with
        # one state and comes back as (\b. \q. q) u from another; stepped
        # through the first copy it would show \p. p where step shows \q. q
        runs = self.chain_runs(monkeypatch)
        x = r"(\x. \y. {1/2: y y x, 1/2: (\a. \p. p) u})"
        f = r"(\y. \x. {2/3: x x y, 1/3: (\b. \q. q) u})"
        want = self.check_fuels("%s %s %s" % (x, x, f), 16)
        assert runs == []
        assert [want[fuel][0] for fuel in (14, 16)] == [r"{26/27: \q. q}", r"{53/54: \p. p}"]

    def test_cycle_back_to_a_state_before_the_switch(self, monkeypatch):
        runs = self.chain_runs(monkeypatch)
        src = r"{1/2: (\a. (\b. a a) c) (\a. (\b. a a) c), 1/2: (\x. (\y. (\z. z) y) x) u}"
        want = self.check_fuels(src, 6)
        assert want[6][2:] == (5, False, True)
        # the switch came after step 4; the cycle closes on a state of step 3
        assert runs[-1] == (4, 6, True)

    def test_two_states_one_value_class_under_two_names(self, monkeypatch):
        # a four-state loop: x x f yields \p. p two steps after the start,
        # and f f x yields \q. q two steps after that, in turn
        runs = self.chain_runs(monkeypatch)
        x, f = r"(\x. \y. {1/2: y y x, 1/2: \p. p})", r"(\y. \x. {2/3: x x y, 1/3: \q. q})"
        want = self.check_fuels("%s %s %s" % (x, x, f), 16)
        assert (5, 16, False) in runs
        assert [want[fuel][0] for fuel in (14, 16)] == [r"{53/54: \p. p}", r"{80/81: \q. q}"]

    def test_a_closed_chain_builds_and_reduces_nothing(self, monkeypatch):
        counts = {"dists": 0, "reducts": 0}
        dist, head_reduct = reduction.Dist, reduction._head_reduct

        def counting_dist(*args):
            counts["dists"] += 1
            return dist(*args)

        def counting_reduct(t):
            counts["reducts"] += 1
            return head_reduct(t)

        monkeypatch.setattr(reduction, "Dist", counting_dist)
        monkeypatch.setattr(reduction, "_head_reduct", counting_reduct)
        seen = []
        for fuel in (40, 400):
            counts.update(dists=0, reducts=0)
            assert evolve(parse(YT_SRC), fuel).steps_used == fuel
            seen.append(dict(counts))
        assert seen[0] == seen[1]


def rename_binders(d, rng):
    """An alpha-equivalent copy of ``d`` with its binders renamed at random
    from BINDERS wherever that captures no free name."""
    return Dist([(_rename_term(t, rng), n) for t, n in d._ints], d._den)


def _rename_term(t, rng):
    if isinstance(t, Var):
        return t
    if isinstance(t, App):
        return App(rename_binders(t.fun, rng), rename_binders(t.arg, rng))
    b, body = rng.choice(BINDERS), t.body
    if b != t.binder:
        if b in body.free_names():
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
    that recurs through its first copy when the two print the same."""

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
                if isinstance(t, App) and not is_whnf(t):
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
