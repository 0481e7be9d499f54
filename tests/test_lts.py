import random
from collections import namedtuple
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import dists, gen_dist, reachable
from plamb import lts, reduction, simulation
from plamb.approximants import FIN_BOTTOM, embed, parse_fin
from plamb.corpus import CORPUS_SOURCES
from plamb.lts import (
    CONVERGE,
    Call,
    FreshNameCollisionError,
    IDENTITY,
    LabelNotApplicableError,
    Ret,
    TAU,
    available_labels,
    call_pairs,
    ret_block,
    ret_target,
    split_values,
    strong_target,
    weak_max_transition,
)
from plamb.reduction import AbsView, SpineView, evolve, head_step, step, vals, whnf_view
from plamb.simulation import SimParams, bisim_check, sim_check
from plamb.syntax import Abs, App, Dist, LambError, mixture, parse, print_dist, subst, unit, Var


def term(src):
    (t, w), = parse(src).entries()
    assert w == 1
    return t


# The single-term view of the transition system, kept here as the tests'
# reference: the library works on whole distributions through strong_target.

Transition = namedtuple("Transition", "label target")


def label_target(t, label):
    """Target of a visible label on a whnf term, at unit weight, or None
    when the term does not afford the label."""
    try:
        return strong_target(unit(t), label)
    except LabelNotApplicableError:
        return None


def strong_transitions(t, fresh):
    """All strong transitions of a term, at unit weight: the one tau
    transition of a reducible term, else one per visible label."""
    if fresh in t.free_names():
        raise FreshNameCollisionError("%r occurs free in the term" % fresh)
    if whnf_view(t) is None:
        return [Transition(TAU, head_step(t))]
    d = unit(t)
    return [Transition(label, strong_target(d, label)) for label in available_labels(d, fresh)]


class TestStrongTransitions:
    def test_abstraction(self):
        got = strong_transitions(term(r"\x. x"), "#0")
        assert [(tr.label, tr.target) for tr in got] == [
            (CONVERGE, unit(IDENTITY)),
            (Ret("#0"), unit(Var("#0"))),
        ]

    def test_spine(self):
        d = parse("{1/2: z, 1/2: w}")
        got = strong_transitions(term("y ({1/2: z, 1/2: w})"), "#0")
        assert [(tr.label, tr.target) for tr in got] == [
            (Call("y", 0, 1), unit(IDENTITY)),
            (Call("y", 1, 1), d),
        ]

    def test_silent_priority(self):
        got = strong_transitions(term(r"(\x. x) y"), "#0")
        assert len(got) == 1
        assert got[0].label == TAU and got[0].target == parse("y")

    def test_fresh_collision(self):
        with pytest.raises(FreshNameCollisionError):
            strong_transitions(term(r"\x. y"), "y")

    def test_ret_folds_beta(self):
        got = strong_transitions(term(r"\x. {1/2: x, 1/2: z}"), "#0")
        ret = [tr for tr in got if tr.label == Ret("#0")]
        assert ret[0].target.weight_of(Var("#0")) == F(1, 2)
        assert ret[0].target.weight_of(Var("z")) == F(1, 2)


class TestWeakMaxTransitions:
    def test_converge_measures_abstraction_mass(self):
        r = weak_max_transition(parse(r"{1/2: \x. x, 1/2: \x. omega}"), CONVERGE, 4)
        assert r.values == unit(IDENTITY)
        assert r.residual == 0

    def test_ret_keeps_divergent_residual(self):
        r = weak_max_transition(parse(r"{1/2: \x. x, 1/2: \x. omega}"), Ret("#0"), 6)
        assert r.values == Dist({Var("#0"): F(1, 2)})
        assert r.residual == F(1, 2)

    def test_tau_is_evolution(self):
        r = weak_max_transition(parse(r"(\x. x) y"), TAU, 4)
        assert r.values == parse("y")

    def test_label_not_applicable(self):
        with pytest.raises(LabelNotApplicableError):
            weak_max_transition(parse("y"), CONVERGE, 4)
        with pytest.raises(LabelNotApplicableError):
            weak_max_transition(parse("y z"), Call("y", 0, 2), 4)

    def test_determinacy(self):
        d = parse(r"{1/2: \x. {1/2: x, 1/2: omega}, 1/4: \y. y}")
        a = weak_max_transition(d, Ret("#3"), 8)
        b = weak_max_transition(d, Ret("#3"), 8)
        assert a.values == b.values and a.residual == b.residual

    def test_call_zero_measures_spine_mass(self):
        r = weak_max_transition(parse("{1/3: y z, 1/6: y w}"), Call("y", 0, 1), 4)
        assert r.values.weight_of(IDENTITY) == F(1, 2)


class TestRetTargetCache:
    """A distribution keeps its last ``ret`` block; an abstraction's
    ``ret`` target is a plain substitution."""

    def test_same_symbol_returns_the_same_target(self):
        d = parse(r"\x. {1/2: x, 1/2: \y. x y}")
        assert ret_block(d, "#0") is ret_block(d, "#0")

    def test_alternating_symbols(self):
        t = term(r"\x. {1/2: x, 1/2: \y. x y}")
        for sym in ("#0", "#1", "#0", "#0", "#1"):
            got = ret_target(t, sym)
            assert got == subst(t.body, "x", unit(Var(sym)))
            assert print_dist(got) == "{1/2: %s, 1/2: \\y. %s y}" % (sym, sym)

    def test_alpha_equivalent_abstractions_keep_their_names(self):
        a = term(r"\x. \a. x a")
        b = term(r"\y. \b. y b")
        assert a == b
        for _ in range(2):
            assert print_dist(ret_target(a, "#0")) == r"\a. #0 a"
            assert print_dist(ret_target(b, "#0")) == r"\b. #0 b"


    def test_one_symbol_is_shared_and_prints_as_before(self):
        a = term(r"\x. {1/2: x, 1/2: \y. x y}")
        b = term(r"\z. z z")
        ta, tb = ret_target(a, "#0"), ret_target(b, "#0")
        assert print_dist(ta) == r"{1/2: #0, 1/2: \y. #0 y}"
        assert print_dist(tb) == "#0 #0"
        # both targets hold the one variable of the symbol
        (sym, _), _ = ta._ints
        assert isinstance(sym, Var) and tb.point().fun.point() is sym


def fresh_ret_block(d, sym):
    """``lts.ret_block`` built afresh on each call, keeping nothing."""
    abs_entries = split_values(d)[0]
    return mixture([(n, ret_target(view, sym)) for _, n, view in abs_entries], d._den)


class TestRetBlockCache:
    """A distribution keeps its last ``ret`` block, so a program's
    unfolding is built and evolved once across candidates and indices,
    and nothing printed changes."""

    def test_alternating_symbols_match_a_fresh_block(self):
        d = parse(r"{1/2: \x. {1/2: x, 1/2: \y. x y}, 1/4: \z. z z, 1/4: y}")
        for sym in ("#0", "#1", "#0", "#0", "#1"):
            got = ret_block(d, sym)
            want = fresh_ret_block(d, sym)
            assert got == want and print_dist(got) == print_dist(want)
            assert print_dist(got) == "{1/4: %s %s, 1/4: %s, 1/4: \\y. %s y}" % ((sym,) * 4)
            assert ret_block(d, sym) is got

    def test_second_candidate_reuses_the_program_side(self, monkeypatch):
        m = parse(r"\x. (\y. \z. {1/2: y, 1/2: (\w. w) z}) x")
        first = embed(parse_fin(r"{7/8: \x. {3/4: \z. {1/2: x, 1/4: _|_}}}"))
        second = embed(parse_fin(r"{3/4: \x. {1/2: \z. {1/4: x}}}"))
        params = SimParams(3, 12)
        rights, seen, reduced = [], [], []
        inside = [False]
        sim_level, evolve_ = simulation._sim_level, simulation.evolve
        head_reduct = reduction._head_reduct

        def level(st, m, n, k, sn, sd):
            rights.append(n)
            return sim_level(st, m, n, k, sn, sd)

        def evolving(d, fuel):
            if not any(d is n for n in rights):
                return evolve_(d, fuel)
            seen.append((d, d._evolved is not None and d._evolved[0] == fuel))
            inside[0] = True
            try:
                return evolve_(d, fuel)
            finally:
                inside[0] = False

        def counting(t):
            if inside[0]:
                reduced.append(t)
            return head_reduct(t)

        monkeypatch.setattr(simulation, "_sim_level", level)
        monkeypatch.setattr(simulation, "evolve", evolving)
        monkeypatch.setattr(reduction, "_head_reduct", counting)
        assert sim_check(first, m, params).holds
        before = [d for d, _ in seen]
        assert reduced and len(before) >= 3
        del rights[:], seen[:], reduced[:]
        assert sim_check(second, m, params).holds
        assert not reduced
        # every program-side input was met before, and the ret blocks
        # that had anything to reduce answer from their kept evolution
        assert all(any(d is b for b in before) for d, _ in seen)
        assert sum(hit for _, hit in seen) >= 2

    def test_corpus_verdicts_match_fresh_blocks(self, monkeypatch):
        params = SimParams(3, 12)

        def outcomes():
            terms = [parse(src) for src in CORPUS_SOURCES]
            out = []
            for a in terms:
                for b in terms:
                    for v in (sim_check(a, b, params), *bisim_check(a, b, params)):
                        out.append((repr(v), v.to_dict(), v.exact))
            return out

        kept = outcomes()
        monkeypatch.setattr(lts, "ret_block", fresh_ret_block)
        monkeypatch.setattr(simulation, "ret_block", fresh_ret_block)
        fresh = outcomes()
        assert kept == fresh
        assert any(exact for _, _, exact in kept)
        assert any(not d["holds_at_bound"] for _, d, _ in kept)
        assert any(d["witness"] and d["witness"]["path"] for _, d, _ in kept)


def reference_view(t):
    """``whnf_view`` computed afresh, reading and writing no slot: the
    abstraction itself, (head, arguments) of a spine, or None for a
    redex."""
    if isinstance(t, Abs):
        return t
    args, head = [], t
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fun.point()
    if not isinstance(head, Var):
        return None
    return head.name, tuple(reversed(args))


def reference_split(d):
    """``split_values`` computed afresh from ``d._ints``, as lists of
    (term, numerator, reference view)."""
    abs_entries, spine_entries = [], []
    for t, n in d._ints:
        view = reference_view(t)
        if view is t:
            abs_entries.append((t, n, view))
        elif view is not None:
            spine_entries.append((t, n, view))
    return abs_entries, spine_entries


def assert_view_matches(view, want):
    if want is None or isinstance(want, Abs):
        assert view is want
    else:
        head, args = want
        assert isinstance(view, SpineView) and view.head == head
        assert len(view.args) == len(args)
        assert all(a is b for a, b in zip(view.args, args))


class TestClassifiedOnce:
    """A variable or application keeps its whnf view and a ``Dist`` its
    value split; what they keep is what a fresh computation gives."""

    @settings(max_examples=60, deadline=None)
    @given(dists())
    def test_kept_views_and_splits_match_a_fresh_computation(self, d):
        # every distribution and term met along the trajectory, after the
        # library has classified them in stepping and evolving
        trajectory = [d]
        for _ in range(3):
            trajectory.append(step(trajectory[-1]))
        trajectory.append(evolve(d, 8).values)
        for x in {id(x): x for cur in trajectory for x in reachable(cur)}.values():
            if isinstance(x, Dist):
                got = split_values(x)
                assert split_values(x) is got
                assert type(got[0]) is tuple and type(got[1]) is tuple
                for block, want in zip(got, reference_split(x)):
                    assert len(block) == len(want)
                    for (t, n, view), (u, m, ref) in zip(block, want):
                        assert t is u and n == m and view is whnf_view(t)
                        assert_view_matches(view, ref)
            else:
                view = whnf_view(x)
                assert whnf_view(x) is view
                assert_view_matches(view, reference_view(x))

    def test_split_values_refuses_what_is_not_a_dist(self):
        for bad in (FIN_BOTTOM, 5, None):
            with pytest.raises(LambError) as e:
                split_values(bad)
            assert str(e.value) == "not a Dist: %r" % (bad,)


class TestLabelDiscipline:
    def test_kind_partition(self):
        rng = random.Random(0)
        for _ in range(60):
            d = gen_dist(rng, 3)
            for t, _ in vals(d).entries():
                view = whnf_view(t)
                conv = label_target(t, CONVERGE)
                ret = label_target(t, Ret("#9"))
                if isinstance(view, AbsView):
                    assert conv is not None and ret is not None
                else:
                    assert conv is None and ret is None
                    call = label_target(t, Call(view.head, 0, len(view.args)))
                    assert call == unit(IDENTITY)

    def test_arity_distinguishes_vectors(self):
        t = term("y z")
        assert label_target(t, Call("y", 0, 2)) is None
        assert label_target(t, Call("y", 0, 1)) is not None

    def test_call_index_out_of_range(self):
        with pytest.raises(LambError) as e:
            Call("y", 3, 2)
        assert str(e.value) == "call index 3 out of range 0..2"

    def test_available_labels(self):
        labels = available_labels(parse(r"{1/3: \x. x, 1/3: y z}"), "#0")
        assert labels == [CONVERGE, Ret("#0"), Call("y", 0, 1), Call("y", 1, 1)]

    def test_identity_is_kind_and_fields(self):
        labels = [
            TAU, CONVERGE, Ret("#0"), Ret("#1"), Ret("y"),
            Call("y", 0, 1), Call("y", 1, 1), Call("y", 0, 2), Call("z", 0, 1),
        ]
        # a second instance of every label, built apart from the first
        again = [type(TAU)(), type(CONVERGE)(), Ret("#0"), Ret("#1"), Ret("y"),
                 Call("y", 0, 1), Call("y", 1, 1), Call("y", 0, 2), Call("z", 0, 1)]
        for i, a in enumerate(labels):
            for j, b in enumerate(again):
                assert (a == b) is (i == j) and (a != b) is (i != j)
                if i == j:
                    assert a is not b and hash(a) == hash(b)
            assert a != repr(a) and a != None  # noqa: E711
        # a ret and a call that share their symbol differ in kind
        assert Ret("y") != Call("y", 0, 0)
        assert len({*labels, *again}) == len(labels)
        assert [repr(a) for a in labels] == [
            "tau", "conv", "ret #0", "ret #1", "ret y",
            "call y 0/1", "call y 1/1", "call y 0/2", "call z 0/1",
        ]


class TestCallPairs:
    """``call_pairs`` pairs exactly the spine entries that ``strong_target``
    groups under one ``Call(head, 0, arity)`` family, with the family's
    argument targets as the argument pairs."""

    def test_pairs_are_the_call_families(self):
        rng = random.Random(26)
        paired = with_args = 0
        for _ in range(200):
            d, e = (evolve(gen_dist(rng, 3), 8).values for _ in "de")
            d_app, e_app = split_values(d)[1], split_values(e)[1]
            got = call_pairs(d_app, e_app)
            want = []
            for label in available_labels(d, "#0"):
                if not isinstance(label, Call) or label.index != 0:
                    continue
                left = [i for i, e in enumerate(d_app) if label_target(e[0], label) is not None]
                right = [j for j, e in enumerate(e_app) if label_target(e[0], label) is not None]
                # the entries read one at a time are the ones the family groups
                mass = sum(F(d_app[i][1], d._den) for i in left)
                assert strong_target(d, label).mass() == mass
                for i in left:
                    for j in right:
                        t, u = d_app[i][0], e_app[j][0]
                        args = tuple(
                            (label_target(t, arg), label_target(u, arg))
                            for arg in (Call(label.sym, p, label.arity)
                                        for p in range(1, label.arity + 1))
                        )
                        want.append((i, j, args))
            assert got == sorted(want, key=lambda x: x[:2])
            paired += len(got)
            with_args += sum(1 for _, _, args in got if args)
        assert paired > 100 and with_args > 50
