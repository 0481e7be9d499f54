import json
import random
import threading
from fractions import Fraction as F

import pytest

from conftest import gen_dist, gen_loop_program, gen_terminating
from plamb import laws, simulation
from plamb.cli import main
from plamb.corpus import CORPUS_SOURCES, corpus
from plamb.laws import divergence_least, half_below, reflexivity, rename_free, rename_invariance
from plamb.lts import (
    CONVERGE,
    Call,
    LabelNotApplicableError,
    Ret,
    available_labels,
    call_pairs,
    split_values,
    weak_max_transition,
)
from plamb.reduction import evolve
from plamb.simulation import (
    NoCounterexample,
    Refuted,
    SimParams,
    Witness,
    WitnessKind,
    _sim,
    _SimState,
    bisim_check,
    sim_check,
)
from plamb.syntax import (
    EMPTY, ZERO, App, LambError, dist_scale, dist_union, parse, print_dist, unit,
)

YT = parse(r"Y (\x. {1/2: I, 1/2: x})")
XOR_A = parse("{1/2: x tt ff, 1/2: x ff tt}")
XOR_B = parse("{1/2: x ff ff, 1/2: x tt tt}")


def P(depth, fuel, slack=True):
    return SimParams(depth, fuel, slack)


def term(src):
    (t, w), = parse(src).entries()
    assert w == 1
    return t


class TestBasics:
    def test_reflexivity(self):
        srcs = (r"\x. x", "y z", "{1/2: tt, 1/4: omega}", "Y I")
        assert not reflexivity([parse(src) for src in srcs], P(3, 8))

    def test_half_below(self):
        # m against half of itself compares, unlike m against m, and is
        # refuted exactly when m has value mass (all but three programs)
        terms = corpus()
        assert not half_below(terms, P(3, 8))
        refuted = [m for m in terms if not sim_check(m, dist_scale(F(1, 2), m), P(3, 8)).holds]
        massless = [m for m in terms if evolve(m, 8).values.is_empty()]
        assert len(refuted) == 55 and len(massless) == 3
        assert set(refuted) == set(terms) - set(massless)

    def test_divergence_is_least(self):
        srcs = (r"\x. x", "y", "x tt ff", "{}", "{1/2: y, 1/2: omega}")
        assert not divergence_least([parse(src) for src in srcs], P(4, 8))

    def test_negative_bound_refused(self):
        with pytest.raises(LambError) as e:
            SimParams(-1, 3)
        assert str(e.value) == "depth and fuel must be nonnegative"

    def test_abstraction_above_divergence_refuted(self):
        v = sim_check(parse(r"\x. omega"), parse("omega"), P(1, 2))
        assert isinstance(v, Refuted)
        assert v.witness.kind is WitnessKind.CONVERGE_DEFICIT
        assert v.witness.deficit == 1

    def test_empty_and_divergence_mutually_similar(self):
        om, e = parse("omega"), parse("{}")
        assert sim_check(e, om, P(3, 8)).holds
        assert sim_check(om, e, P(3, 8)).holds

    def test_spine_head_mismatch(self):
        v = sim_check(parse("y"), parse("z"), P(1, 2))
        assert isinstance(v, Refuted)
        assert v.witness.kind is WitnessKind.FLOW_DEFICIT
        assert v.witness.deficit == 1

    def test_spine_against_pure_abstractions_is_type_mismatch(self):
        v = sim_check(parse("y"), parse(r"\x. x"), P(1, 2))
        assert isinstance(v, Refuted)
        assert v.witness.kind is WitnessKind.KERNEL_TYPE_MISMATCH


class TestFixpointLimit:
    def test_limit_simulation_with_slack(self):
        i = parse("I")
        for depth in (1, 2, 3, 4, 5):
            for fuel in (8, 16, 32):
                assert sim_check(i, YT, P(depth, fuel)).holds
                assert sim_check(YT, i, P(depth, fuel)).holds

    def test_no_slack_reports_exact_deficit(self):
        for fuel in (8, 16, 32):
            v = sim_check(parse("I"), YT, P(2, fuel, slack=False))
            assert isinstance(v, Refuted)
            assert v.witness.kind is WitnessKind.CONVERGE_DEFICIT
            assert v.witness.deficit == F(1, 2 ** (fuel // 3))
            assert v.witness.deficit == evolve(YT, fuel).residual


class TestSpineSums:
    def test_xor_sums_distinguished_at_depth_3(self):
        f, b = bisim_check(XOR_A, XOR_B, P(3, 8))
        assert isinstance(f, Refuted) and isinstance(b, Refuted)
        assert f.witness.kind is WitnessKind.FLOW_DEFICIT

    def test_xor_sums_not_yet_distinguished_at_depth_2(self):
        f, b = bisim_check(XOR_A, XOR_B, P(2, 8))
        assert f.holds and b.holds

    def test_abstraction_linearity(self):
        left = parse(r"\x. {1/2: tt, 1/2: ff}")
        right = parse(r"{1/2: \x. tt, 1/2: \x. ff}")
        f, b = bisim_check(left, right, P(3, 8))
        assert f.holds and b.holds

    def test_whnf_bisimilar_to_itself_after_evolution(self):
        m = parse(r"(\x. x) ((\y. y) z)")
        w = evolve(m, 8).values
        f, b = bisim_check(m, w, P(3, 8))
        assert f.holds and b.holds
        assert f.exact and b.exact


def app_edge(u, v, k, fuel):
    """The simulation's edge test on two whnf spine terms: a pair of one
    call family (``lts.call_pairs``) whose arguments are simulated at depth
    ``k`` and unit scale."""
    (_, u_app), (_, v_app) = split_values(unit(u)), split_values(unit(v))
    assert len(u_app) == len(v_app) == 1
    st = _SimState(fuel, True)
    return any(
        all(_sim(st, a, b, k, 0, 1) is None for a, b in args)
        for _, _, args in call_pairs(u_app, v_app)
    )


class TestAppEdge:
    def test_identical_spines(self):
        u = term("x tt ff")
        for k in (0, 1, 2, 3, 4):
            assert app_edge(u, u, k, 8)

    def test_head_mismatch(self):
        assert not app_edge(term("x tt"), term("y tt"), 1, 8)

    def test_arity_mismatch(self):
        assert not app_edge(term("x tt"), term("x tt tt"), 1, 8)

    def test_boolean_arguments_separate_from_depth_3(self):
        u, v = term("x tt ff"), term("x ff ff")
        assert app_edge(u, v, 2, 8)
        assert not app_edge(u, v, 3, 8)
        assert not app_edge(u, v, 4, 8)


def _slack(slack_in, rn, params):
    """The refutation slack of a level, as the simulation computes it."""
    if not params.slack_enabled:
        return ZERO
    return slack_in + (ZERO if rn.limit_exact else rn.residual)


def _step(r, label, fuel):
    """Weak max transition of an evolved side; a side that does not afford
    the label (in particular an empty one) has the empty target."""
    try:
        return weak_max_transition(r.values, label, fuel)
    except LabelNotApplicableError:
        return evolve(EMPTY, fuel)


def _conv_mass(r, fuel):
    return _step(r, CONVERGE, fuel).values.mass()


def replay(m, n, witness, params):
    """Follow the witness path from both evolved sides with the LTS's weak
    max transitions alone, then recheck the failing comparison; returns
    the slack at the failing pair."""
    fuel = params.fuel
    rm, rn = evolve(m, fuel), evolve(n, fuel)
    slack = _slack(ZERO, rn, params)
    for label in witness.path:
        assert isinstance(label, Ret)
        rm = weak_max_transition(rm.values, label, fuel)
        rn = _step(rn, label, fuel)
        slack = _slack(slack, rn, params)
    assert witness.deficit > 0
    abs_entries, spine_entries = split_values(rm.values)
    cut_mass = sum((rm.values.weight_of(t) for t in witness.cut), ZERO)
    if witness.kind is WitnessKind.CONVERGE_DEFICIT:
        assert set(witness.cut) == {t for t, _, _ in abs_entries}
        deficit = _conv_mass(rm, fuel) - _conv_mass(rn, fuel) - slack
        assert deficit == witness.deficit
        assert cut_mass == _conv_mass(rm, fuel)
        return slack
    assert witness.cut
    assert set(witness.cut) <= {t for t, _, _ in spine_entries}
    if witness.kind is WitnessKind.KERNEL_TYPE_MISMATCH:
        labels = available_labels(rn.values, "#0")
        assert not any(isinstance(label, Call) for label in labels)
        assert witness.deficit == cut_mass - slack
    else:
        assert witness.kind is WitnessKind.FLOW_DEFICIT
        assert witness.deficit <= cut_mass - slack
    return slack


class TestWitnesses:
    def test_path_replays_to_failure(self):
        m, n, params = parse("tt"), parse("ff"), P(3, 8)
        v = sim_check(m, n, params)
        assert isinstance(v, Refuted)
        assert v.witness.path == (Ret("#0"), Ret("#1"))
        assert v.witness.kind is WitnessKind.FLOW_DEFICIT
        assert v.witness.deficit == 1
        replay(m, n, v.witness, params)

    # refuted although the target's unconverged fixpoint grants slack
    SLACK_PAIRS = [
        (r"{1/2: \x. x, 1/2: y}", r"{1/4: Y (\x. {1/2: I, 1/2: x})}"),
        ("{1/2: y, 1/2: z}", r"{1/2: Y (\t. {1/2: y, 1/2: t})}"),
        ("{1/2: y}", r"{1/2: Y (\x. {1/2: I, 1/2: x})}"),
        (r"\a. {1/2: \x. x, 1/2: a}", r"\a. {1/4: Y (\x. {1/2: I, 1/2: x}), 1/4: a}"),
        (r"\a. {1/2: a, 1/2: b}", r"\a. Y (\t. {1/2: a, 1/2: t})"),
        (r"\a. \x. x", r"Y (\r. {1/2: \a. {1/4: \x. x}, 1/2: r})"),
    ]

    def sample(self):
        for i in range(100):
            rng = random.Random(7000 + i)
            m, n = gen_dist(rng, 3), gen_dist(rng, 3)
            yield m, n
            yield n, m
        for a, b in self.SLACK_PAIRS:
            yield parse(a), parse(b)

    def test_seeded_refutations_replay(self):
        for params in (P(3, 12), P(2, 8, slack=False)):
            kinds, nested, slacked = set(), 0, 0
            for a, b in self.sample():
                v = sim_check(a, b, params)
                if isinstance(v, Refuted):
                    slack = replay(a, b, v.witness, params)
                    kinds.add(v.witness.kind)
                    nested += bool(v.witness.path)
                    slacked += slack > 0
            assert kinds == set(WitnessKind)
            assert nested > 0
            assert (slacked > 0) == params.slack_enabled

    def test_converge_witness_names_cut(self):
        v = sim_check(parse(r"{1/2: \x. x, 1/2: y}"), parse("{1/4: \\x. x, 1/2: y}"), P(1, 4))
        assert isinstance(v, Refuted)
        assert v.witness.kind is WitnessKind.CONVERGE_DEFICIT
        assert v.witness.deficit == F(1, 4)
        assert [repr(t) for t in v.witness.cut] == ["\\x. x"]


class TestVerdictJson:
    """The verdict schema, byte for byte: keys, key order and values."""

    def test_no_counterexample(self):
        v = sim_check(parse("I"), parse("I"), P(3, 8))
        assert isinstance(v, NoCounterexample) and v.holds
        assert repr(v) == "NoCounterexample(SimParams(depth=3, fuel=8, slack_enabled=True), exact=True)"
        assert json.dumps(v.to_dict()) == (
            '{"holds_at_bound": true, "exact": true, "depth": 3, "fuel": 8, "witness": null}'
        )

    def test_refuted(self):
        v = sim_check(parse(r"\x. x"), parse(r"\x. omega"), P(3, 8))
        assert isinstance(v, Refuted) and not v.holds
        assert repr(v) == "Refuted(Witness(path=[ret #0], kind=KernelTypeMismatch, deficit=1, cut=[#0]))"
        assert json.dumps(v.to_dict()) == (
            '{"holds_at_bound": false, "exact": false, "depth": 3, "fuel": 8, "witness": '
            '{"path": ["ret #0"], "kind": "KernelTypeMismatch", "deficit": "1", "cut": ["#0"]}}'
        )


class TestVerdictProperties:
    def test_depth_monotone_refutations(self):
        refuted = [
            (parse("tt"), parse("ff"), 3),
            (XOR_A, XOR_B, 3),
            (parse(r"\x. omega"), parse("omega"), 1),
        ]
        for m, n, k in refuted:
            assert isinstance(sim_check(m, n, P(k, 8)), Refuted)
            for extra in (1, 2, 3):
                assert isinstance(sim_check(m, n, P(k + extra, 8)), Refuted)

    def test_refutations_stable_under_more_fuel(self):
        refuted = [
            (parse("tt"), parse("ff"), 3, 8),
            (XOR_A, XOR_B, 3, 8),
            (parse(r"\x. omega"), parse("omega"), 1, 8),
        ]
        for m, n, k, fuel in refuted:
            for factor in (2, 4):
                assert isinstance(sim_check(m, n, P(k, fuel * factor)), Refuted)

    def test_exact_flag(self):
        assert sim_check(parse("tt"), parse("tt"), P(3, 8)).exact
        v = sim_check(parse("I"), YT, P(2, 8))
        assert v.holds and not v.exact

    @pytest.mark.parametrize("depth, fuel", [(2, 4), (3, 8)])
    def test_exact_iff_no_evolution_left_residual(self, monkeypatch, depth, fuel):
        residuals = []

        def recording(d, *args):
            report = evolve(d, *args)
            residuals.append(report.residual)
            return report

        monkeypatch.setattr(simulation, "evolve", recording)
        terms = corpus()
        pairs = [(m, n) for i, m in enumerate(terms) for n in terms[i % 11::11]]
        exact = []
        for m, n in pairs:
            residuals.clear()
            v = sim_check(m, n, P(depth, fuel))
            if v.holds:
                assert v.exact == all(r == 0 for r in residuals), (m, n)
                exact.append(v.exact)
        assert len(pairs) > 200 and 0 < sum(exact) < len(exact)

    def test_scaling_preserves_verdicts(self):
        rng = random.Random(21)
        for i in range(25):
            m = gen_terminating(random.Random(300 + i))
            n = gen_terminating(random.Random(600 + i))
            base = sim_check(m, n, P(2, 16))
            for p in (F(1, 2), F(3, 4)):
                scaled = sim_check(
                    dist_scale(p, m), dist_scale(p, n), P(2, 16)
                )
                assert scaled.holds == base.holds

    def test_sub_convex_closure(self):
        # pairs that hold by construction (sub-distributions), combined
        # with arbitrary sub-convex coefficients, still hold
        for i in range(15):
            n1 = gen_terminating(random.Random(4000 + i))
            n2 = gen_terminating(random.Random(4100 + i))
            m1 = dist_scale(F(1, 2), n1)
            m2 = dist_scale(F(3, 4), n2)
            a = sim_check(m1, n1, P(2, 16))
            b = sim_check(m2, n2, P(2, 16))
            if not (a.holds and a.exact and b.holds and b.exact):
                continue
            for p in (F(1, 3), F(2, 3)):
                left = dist_union(dist_scale(p, m1), dist_scale(1 - p, m2))
                right = dist_union(dist_scale(p, n1), dist_scale(1 - p, n2))
                assert sim_check(left, right, P(2, 16)).holds

    def test_transitive_in_exact_regime(self):
        for i in range(20):
            c = gen_terminating(random.Random(900 + i))
            b = dist_scale(F(3, 4), c)
            a = dist_scale(F(1, 2), b)
            ab = sim_check(a, b, P(2, 16))
            bc = sim_check(b, c, P(2, 16))
            ac = sim_check(a, c, P(2, 16))
            if ab.holds and ab.exact and bc.holds and bc.exact:
                assert ac.holds

    def test_deterministic(self):
        a = sim_check(XOR_A, XOR_B, P(3, 8))
        b = sim_check(XOR_A, XOR_B, P(3, 8))
        assert repr(a) == repr(b)


class TestRecursiveSpines:
    def test_self_referential_spine_terminates_and_holds(self):
        # Y (\t. x t) evolves to the spine x (Y ...): the argument compares
        # against itself at the same depth, exercising the cycle assumption
        d = parse(r"Y (\t. x t)")
        v = sim_check(d, d, P(3, 12))
        assert v.holds

    def test_recursive_spines_with_different_payloads_refute(self):
        a = parse(r"Y (\t. x tt t)")
        b = parse(r"Y (\t. x ff t)")
        v = sim_check(a, b, P(4, 16))
        assert isinstance(v, Refuted)


# x F against x G fails on its own: w inside F has no partner in G.  A
# result derived while (F, G) was assumed must not outlive its refutation,
# whichever free head reaches the pair first.
LOOP_F = r"(Y (\r. {1/2: y (x r), 1/2: w}))"
LOOP_G = r"(Y (\r. {1/2: y (x r)}))"


def _loop_pair(first, second):
    src = "{1/4: %s %s, 1/2: %s (x %s)}" % (first, LOOP_F, second, LOOP_F)
    dst = "{1/4: %s %s, 1/4: %s %s, 1/2: %s (x %s)}" % (
        first, LOOP_G, first, LOOP_F, second, LOOP_G
    )
    return src, dst


class TestCoinductiveMemo:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("heads", [("g", "h"), ("h", "g")])
    def test_refuted_pair_leaves_no_stale_holds(self, heads, depth):
        src, dst = _loop_pair(*heads)
        v = sim_check(parse(src), parse(dst), P(depth, 20))
        assert isinstance(v, Refuted)
        assert v.witness.kind == WitnessKind.FLOW_DEFICIT
        assert v.witness.deficit == F(1, 2)
        assert main(["sim", src, dst, "--fuel", "20", "--depth", str(depth)]) == 1


class TestRenameInvariance:
    def test_corpus_pairs(self):
        terms = corpus()
        pairs = [(a, b) for a in terms for b in terms]
        assert rename_invariance(pairs, P(2, 8)) == []

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_loop_pair_in_both_head_orders(self, depth):
        # the law's renaming swaps g with y and h with x, so it checks the
        # order of the two loop edges both ways round
        pairs = [tuple(map(parse, _loop_pair(*heads))) for heads in (("g", "h"), ("h", "g"))]
        assert rename_invariance(pairs, P(depth, 20)) == []
        swap = {"g": "h", "h": "g"}
        assert tuple(rename_free(d, swap) for d in pairs[0]) == pairs[1]

    @pytest.mark.parametrize("field", ["kind", "path", "cut"])
    def test_witness_that_ignores_the_renaming_breaks_the_law(self, monkeypatch, field):
        # y against z is refuted with the cut y; a checker whose witness
        # follows the name y rather than the renaming is caught
        def named(m, n, params):
            w = sim_check(m, n, params).witness
            y = "y" in m.free_names()
            parts = {"path": w.path, "kind": w.kind, "cut": w.cut}
            parts[field] = {
                "path": (Ret("#0"),) if y else (),
                "kind": WitnessKind.FLOW_DEFICIT if y else WitnessKind.CONVERGE_DEFICIT,
                "cut": (term("y"),),
            }[field]
            return Refuted(params, Witness(parts["path"], parts["kind"], parts["cut"], w.deficit))

        pair = (parse("y"), parse("z"))
        assert rename_invariance([pair], P(1, 2)) == []
        monkeypatch.setattr(laws, "sim_check", named)
        assert rename_invariance([pair], P(1, 2)) == [(*pair, {"y": "z", "z": "y"})]

    def test_renaming_is_simultaneous_and_avoids_capture(self):
        d = parse(r"{1/2: g (\h. h g), 1/2: h x}", prelude={})
        got = rename_free(d, {"g": "h", "h": "g"})
        assert got == parse(r"{1/2: h (\k. k h), 1/2: g x}", prelude={})
        with pytest.raises(LambError):
            rename_free(d, {"g": "h"})


class TestPrecongruence:
    def test_application_respects_premises(self):
        checked = 0
        seed = 0
        while checked < 40:
            seed += 1
            rng = random.Random(5000 + seed)
            n0 = gen_terminating(rng, depth=2, fuel=24)
            m0 = gen_terminating(rng, depth=2, fuel=24)
            style = seed % 3
            if style == 0:
                m1, m2 = dist_scale(F(1, 2), m0), m0
                n1, n2 = n0, n0
            elif style == 1:
                m1, m2 = m0, m0
                n1 = dist_scale(F(3, 4), n0)
                n2 = n0
            else:
                m1 = dist_scale(F(1, 2), m0)
                m2 = dist_union(m1, dist_scale(F(1, 2), n0))
                n1, n2 = n0, n0
            pm = sim_check(m1, m2, P(4, 24))
            pn = sim_check(n1, n2, P(4, 24))
            if not (pm.holds and pm.exact and pn.holds and pn.exact):
                continue
            checked += 1
            conclusion = sim_check(
                unit(App(m1, n1)), unit(App(m2, n2)), P(2, 24)
            )
            assert conclusion.holds, (m1, m2, n1, n2)


def first_term(d):
    (t, _), = d._ints
    return t


class TestSharedReducts:
    """Each ``evolve`` call of a simulation run makes an alike table of its
    own, so a run's calls never lend reducts to one another, and no table
    outlives a run or is seen by another thread.  A run never evolves the
    right side of an alpha-equivalent pair, so the tests that watch both
    copies reduce put one copy at half weight (``dist_scale`` keeps its
    term objects)."""

    def test_no_table_outlives_a_run(self, monkeypatch):
        calls = []

        def failing(d, *args):
            calls.append(d)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return evolve(d, *args)

        monkeypatch.setattr(simulation, "evolve", failing)
        failed = parse(r"I (\x. x)")
        with pytest.raises(RuntimeError, match="injected"):
            sim_check(failed, parse(r"I (\x. x)"), P(2, 8))
        assert calls[0] is failed and first_term(failed)._step is not None
        monkeypatch.undo()
        # the next run's copy reduces itself, borrowing nothing
        m = parse(r"I (\x. x)")
        sim_check(m, parse(r"I (\x. x)"), P(2, 8))
        assert first_term(m)._step is not first_term(failed)._step

    def test_two_runs_never_share_a_table(self, monkeypatch):
        calls = []

        def recording(d, *args):
            calls.append(d)
            return evolve(d, *args)

        monkeypatch.setattr(simulation, "evolve", recording)
        steps = []
        for _ in range(2):
            m, n = parse(r"I (\x. x)"), parse(r"I (\x. x)")
            sim_check(dist_scale(F(1, 2), m), n, P(2, 8))
            steps.append((first_term(m)._step, first_term(n)._step))
        assert calls
        # no reduct is lent between the calls of a run or between runs
        assert len({id(h) for pair in steps for h in pair}) == 4

    @staticmethod
    def evolve_copies(src="(\\x. x) y"):
        a, b = parse(src), parse(src)
        evolve(a, 4)
        evolve(b, 4)
        ta, tb = first_term(a), first_term(b)
        assert ta._step is not None and tb._step is not None
        return ta._step is tb._step

    def test_copies_outside_a_run_reduce_apart(self):
        assert not self.evolve_copies()
        assert not self.evolve_copies(r"(\x. x) (\a. a)")

    def test_other_threads_see_no_table(self, monkeypatch):
        seen = []

        def other():
            seen.append(self.evolve_copies())

        def in_run(d, *args):
            if not seen:
                thread = threading.Thread(target=other)
                thread.start()
                thread.join(timeout=60)
            return evolve(d, *args)

        monkeypatch.setattr(simulation, "evolve", in_run)
        sim_check(parse(r"I (\x. x)"), parse(r"I (\x. x)"), P(2, 8))
        # copies reduced in another thread during a run borrow nothing
        assert seen == [False]


def generated_pairs():
    """Pairs whose comparison meets alpha-equal sides, each a side against a
    separately parsed copy: seeded ``gen_dist`` programs against themselves
    and their halves both ways, applications of two programs to copies of
    one argument, and half-and-half mixtures with a loop, against their
    copies and halves; with random depth, fuel and slack."""
    rng = random.Random(39)
    half = F(1, 2)
    pairs = []

    def copy(d):
        return parse(print_dist(d), prelude={})

    for _ in range(40):
        m, a, f = gen_dist(rng, 2), gen_dist(rng, 2), gen_dist(rng, 2)
        loop = parse(gen_loop_program(rng))
        mixed = dist_union(dist_scale(half, loop), dist_scale(half, m))
        sides = [
            (m, copy(m)),
            (dist_scale(half, m), copy(m)),
            (m, dist_scale(half, copy(m))),
            (unit(App(f, a)), unit(App(m, copy(a)))),
            (unit(App(dist_scale(half, m), a)), unit(App(copy(m), copy(a)))),
            (mixed, copy(mixed)),
            (dist_scale(half, mixed), copy(mixed)),
            (mixed, dist_scale(half, copy(mixed))),
        ]
        pairs += [(l, r, P(rng.randint(2, 4), rng.choice((8, 16)), rng.random() < 0.5))
                  for l, r in sides]
    return pairs


class TestReflexivePairs:
    """A non-strict pair of alpha-equal sides holds without a comparison,
    and the left side's one-sided walk keeps ``exact`` as the full
    comparison would set it."""

    @staticmethod
    def verdicts(pairs):
        return [(repr(v), v.to_dict(), v.exact)
                for v in (sim_check(m, n, params) for m, n, params in pairs)]

    def differential(self, monkeypatch, make_pairs):
        short = self.verdicts(make_pairs())
        with monkeypatch.context() as mp:
            mp.setattr(simulation, "_equal_keys", lambda mk, nk: False)
            full = self.verdicts(make_pairs())
        assert short == full
        return short

    @pytest.mark.parametrize("depth, fuel", [(2, 12), (3, 16)])
    def test_corpus_pairs_match_the_full_comparison(self, monkeypatch, depth, fuel):
        def make_pairs():
            copies = [parse(s) for s in CORPUS_SOURCES]
            return [(m, n, P(depth, fuel)) for m in corpus() for n in copies]

        self.differential(monkeypatch, make_pairs)

    def test_generated_pairs_match_the_full_comparison(self, monkeypatch):
        got = self.differential(monkeypatch, generated_pairs)
        holding = [exact for _, d, exact in got if d["holds_at_bound"]]
        assert len(holding) < len(got)
        assert any(holding) and not all(holding)

    def test_walk_finds_residual_where_the_comparison_would(self):
        # residual at the top, under two ret levels and in a spine argument
        yt = r"Y (\x. {1/2: I, 1/2: x})"
        for src, depth, exact in [
            (yt, 2, False),
            (r"\a. \b. {1/2: %s, 1/2: tt}" % yt, 2, True),
            (r"\a. \b. {1/2: %s, 1/2: tt}" % yt, 3, False),
            (r"y tt (%s)" % yt, 1, False),
            (r"y tt (\a. %s)" % yt, 1, True),
        ]:
            v = sim_check(parse(src), parse(src), P(depth, 8))
            assert v.holds and v.exact is exact, src

    @staticmethod
    def recording(monkeypatch):
        calls = []

        def record(d, *args):
            calls.append(d)
            return evolve(d, *args)

        monkeypatch.setattr(simulation, "evolve", record)
        return calls

    def test_right_side_of_a_reflexive_pair_is_not_evolved(self, monkeypatch):
        calls = self.recording(monkeypatch)
        for i, m in enumerate(corpus()):
            n = parse(print_dist(m), prelude={})
            assert n is not m and n.canon() == m.canon()
            del calls[:]
            v = sim_check(m, n, P(3, 8))
            assert v.holds and calls[0] is m, i
            assert all(d is not n for d in calls)
            assert n._evolved is n._split is n._ret is None

    def test_reflexive_pair_after_exact_went_false_evolves_nothing(self, monkeypatch):
        calls = self.recording(monkeypatch)
        src = r"{1/2: Y (\x. {1/2: I, 1/2: x}), %s: y (\a. a) (u v)}"
        m, n = parse(src % "1/4"), parse(src % "1/2")
        v = sim_check(m, n, P(3, 8))
        # the ret blocks and the spine arguments are alpha-equal pairs
        assert v.holds and not v.exact
        assert calls == [m, n]
        st = _SimState(8, True)
        st.exact = False
        del calls[:]
        assert _sim(st, m, parse(src % "1/4"), 3, 0, 1) is None
        assert calls == [] and not st.memo and not st.settled
