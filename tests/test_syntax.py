import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import dists, gen_dist
from plamb import syntax
from plamb.approximants import FinDist, parse_fin
from plamb.laws import roundtrip
from plamb.reduction import evolve, head_step, is_whnf, step
from plamb.syntax import (
    Abs,
    App,
    Dist,
    DistKey,
    EMPTY,
    MassError,
    ParseError,
    ReservedNameError,
    Var,
    check_weight,
    dist_leq,
    dist_scale,
    dist_union,
    dist_way_below,
    free_names,
    parse,
    print_dist,
    subst,
    unit,
)


def P(src):
    return parse(src, prelude={})


class TestParse:
    def test_singleton_abbreviation(self):
        assert P(r"\x. x") == unit(Abs("x", unit(Var("x"))))

    def test_braced_pair(self):
        d = P(r"{1/2: \x. x, 1/2: y}")
        assert len(d) == 2
        assert d.weight_of(Var("y")) == F(1, 2)
        assert d.weight_of(Abs("q", unit(Var("q")))) == F(1, 2)

    def test_alpha_duplicates_merge(self):
        assert P(r"{1/2: x, 1/2: x}") == P("x")
        assert P(r"{1/4: \a. a, 1/4: \b. b}") == P(r"{1/2: \z. z}")

    def test_empty(self):
        assert P("{}") == EMPTY

    def test_decimal_weights_exact(self):
        assert P("{0.5: x, 0.25: y}") == P("{1/2: x, 1/4: y}")

    def test_application_left_assoc(self):
        assert P("x y z") == P("(x y) z")
        assert P("x (y z)") != P("x y z")

    def test_comments(self):
        assert P("x -- a comment\n") == P("x")
        assert P("{1/2: x, -- half here\n 1/2: y}") == P("{1/2: x, 1/2: y}")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as e:
            P("{1/2: x,\n }")
        assert e.value.line == 2

    def test_mass_exceeds_one(self):
        with pytest.raises(ParseError):
            P("{3/4: x, 1/2: y}")

    def test_weight_above_one(self):
        with pytest.raises(ParseError):
            P("{3/2: x}")

    @pytest.mark.parametrize("weight", [
        "1/" + "7" * 5000, "7" * 5000 + "/8", "0." + "7" * 5001, "0" * 5000 + "1",
    ], ids=["denominator", "numerator", "decimal", "leading-zeros"])
    @pytest.mark.parametrize("read", [P, parse_fin])
    def test_overlong_numeral(self, read, weight):
        # int() refuses more than 4300 digits; that is a syntax error at
        # the weight, not a ValueError from the parser
        with pytest.raises(ParseError, match="number out of range") as e:
            read("{1/2: y,\n %s: x}" % weight)
        assert (e.value.line, e.value.col) == (2, 2)

    @pytest.mark.parametrize("read", [P, parse_fin])
    def test_longest_numeral_reparses(self, read):
        d = read("{1/%s: x}" % ("9" * sys.get_int_max_str_digits()))
        assert read(print_dist(d)) == d

    def test_reserved_names_rejected(self):
        with pytest.raises(ReservedNameError):
            P("#0")
        with pytest.raises(ReservedNameError):
            P(r"\x. #fresh")

    def test_prelude_expansion(self):
        assert parse("I") == P(r"\x. x")
        assert parse("omega") == P(r"(\x. x x) (\x. x x)")
        # nested prelude references resolve (xor mentions tt and ff)
        assert parse("xor") == parse(r"\a. \b. a (b ff tt) b")

    def test_braces_need_parens_in_argument_position(self):
        with pytest.raises(ParseError):
            P("x {1/2: y}")
        P("x ({1/2: y})")


class TestPrint:
    def test_examples(self):
        assert print_dist(P(r"\x. x")) == "\\x. x"
        assert print_dist(EMPTY) == "{}"
        assert print_dist(P("{1/3: y}")) == "{1/3: y}"

    def test_explicit_form(self):
        assert print_dist(P(r"\x. x"), explicit=True) == "{1: \\x. x}"

    def test_entry_order_alpha_invariant(self):
        # binder spellings are kept for display, but entry order follows the
        # canonical key, so alpha-variants list entries in the same order
        a = P(r"{1/2: \a. a u, 1/2: u}")
        b = P(r"{1/2: \z. z u, 1/2: u}")
        assert [w for _, w in a.entries()] == [w for _, w in b.entries()]
        assert [t.canon() for t, _ in a.entries()] == [
            t.canon() for t, _ in b.entries()
        ]
        assert print_dist(a).replace("a", "z") == print_dist(b)

    @given(dists())
    @settings(max_examples=150)
    def test_roundtrip(self, d):
        assert not roundtrip([d])


class TestFreeNames:
    def test_examples(self):
        assert free_names(P(r"\x. x")) == frozenset()
        assert free_names(P(r"\x. y")) == {"y"}
        assert free_names(P(r"{1/2: x, 1/2: \x. x}")) == {"x"}

    def test_application_union(self):
        assert free_names(P("x (y z)")) == {"x", "y", "z"}


class TestSubst:
    def test_splice_scales_mass(self):
        assert subst(P("x"), "x", P("{1/2: y}")) == P("{1/2: y}")

    def test_capture_avoidance(self):
        out = subst(P(r"\y. x"), "x", P("y"))
        t = out.entries()[0][0]
        assert isinstance(t, Abs) and t.binder != "y"
        assert t.body == unit(Var("y"))

    def test_both_positions_replaced(self):
        d = P("x x")
        r = P(r"{1/2: \a. a, 1/2: z}")
        out = subst(d, "x", r)
        t = out.entries()[0][0]
        assert isinstance(t, App) and t.fun == r and t.arg == r

    def test_shadowed_binder_untouched(self):
        assert subst(P(r"\x. x"), "x", P("y")) == P(r"\x. x")

    @given(dists())
    @settings(max_examples=100)
    def test_identity_substitution(self, d):
        assert subst(d, "u", unit(Var("u"))) == d

    def test_no_free_occurrence_returns_body_itself(self):
        r = P(r"{1/2: y, 1/2: \y. y}")
        for src, v in [("x", "y"), (r"\x. x", "x"), (r"{1/2: u v, 1/4: \a. a}", "x")]:
            d = P(src)
            assert subst(d, v, r) is d

    def test_unaffected_entries_are_shared(self):
        d = P(r"{1/2: x, 1/4: u (\a. a), 1/4: \b. {1/2: x b}}")
        out = subst(d, "x", P("z"))
        kept = [t for t, _ in d.entries() if "x" not in t.free_names()]
        assert len(kept) == 1
        assert any(t is kept[0] for t, _ in out.entries())

    @pytest.mark.parametrize("body, v, replacement, want", [
        (r"\y. x", "x", "y", r"{1: \#0. y}"),
        (r"\u. {1/2: x u}", "x", "u", r"{1: \#0. {1/2: u #0}}"),
        (r"{1/2: \y. x y, 1/2: \z. z}", "x", r"{1/2: y, 1/2: \y. y}",
         r"{1/2: \#0. ({1/2: y, 1/2: \y. y}) #0, 1/2: \z. z}"),
        (r"\y. \x. x y", "x", "y", r"{1: \y. \x. x y}"),
        (r"\y. \z. {1/3: x, 2/3: y z}", "x", "y z",
         r"{1: \#0. \#1. {2/3: #0 #1, 1/3: y z}}"),
        (r"\y. \w. x (\x. x)", "x", r"(\a. y) w", r"{1: \#0. \#0. (\a. y) w (\x. x)}"),
        (r"\a. {1/2: x, 1/2: a}", "x", "{1/2: a, 1/4: b}",
         r"{1: \#0. {1/2: #0, 1/4: a, 1/8: b}}"),
    ])
    def test_capture_avoiding_renames(self, body, v, replacement, want):
        assert print_dist(subst(P(body), v, P(replacement)), explicit=True) == want


class TestWeights:
    @pytest.mark.parametrize("w", [F(0), F(1), F(1, 2), 1, 0])
    def test_check_weight_accepts_unit_interval(self, w):
        assert check_weight(w) == w and isinstance(check_weight(w), F)

    @pytest.mark.parametrize("w", [F(-1, 2), F(3, 2), 2, -1, F(1) + F(1, 10**30)])
    def test_check_weight_rejects_outside(self, w):
        with pytest.raises(MassError, match=r"weight .* outside \[0, 1\]"):
            check_weight(w)

    def test_total_mass_exactly_one(self):
        tiny = F(1, 10**30)
        d = Dist([(Var("x"), F(1, 2)), (Var("y"), F(1, 2) - tiny), (Var("z"), tiny)])
        assert d.mass() == 1

    def test_total_mass_above_one_by_a_hair(self):
        tiny = F(1, 10**30)
        with pytest.raises(MassError, match="total mass .* exceeds 1"):
            Dist([(Var("x"), F(1, 2)), (Var("y"), F(1, 2)), (Var("z"), tiny)])
        with pytest.raises(MassError, match="total mass .* exceeds 1"):
            Dist([(Var("x"), F(1)), (Var("x"), tiny)])

    def test_zero_weights_dropped(self):
        d = Dist([(Var("x"), F(0)), (Var("y"), F(1, 2)), (Var("z"), 0)])
        assert d.support() == (Var("y"),)
        assert Dist([(Var("x"), F(0))]) == EMPTY and len(Dist([(Var("x"), 0)])) == 0


class TestDistAlgebra:
    def test_union_examples(self):
        assert dist_union(P("{1/2: x}"), P("{1/2: x}")) == P("x")
        assert dist_union(P("{1/2: x}"), P("{1/4: y}")) == P("{1/2: x, 1/4: y}")
        with pytest.raises(MassError):
            dist_union(P("{3/4: x}"), P("{1/2: x}"))

    def test_union_unit_commutative_associative(self):
        a, b, c = P("{1/4: x}"), P("{1/4: \\z. z}"), P("{1/4: y u}")
        assert dist_union(a, EMPTY) == a
        assert dist_union(a, b) == dist_union(b, a)
        assert dist_union(dist_union(a, b), c) == dist_union(a, dist_union(b, c))

    def test_scale_examples(self):
        d = P("{1/2: x, 1/4: y}")
        assert dist_scale(F(1, 2), P("x")) == P("{1/2: x}")
        assert dist_scale(F(0), d) == EMPTY
        assert dist_scale(F(1), d) == d

    def test_scale_distributes_over_union(self):
        a, b = P("{1/4: x, 1/4: \\z. z}"), P("{1/2: y}")
        p = F(2, 3)
        assert dist_scale(p, dist_union(a, b)) == dist_union(
            dist_scale(p, a), dist_scale(p, b)
        )

    def test_leq_normalization_pairs(self):
        assert dist_leq(P("{1/5: tt', 1/5: ff'}"), P("{1/5: tt', 3/10: ff'}"))
        assert not dist_leq(P("{1/2: tt', 1/2: ff'}"), P("{2/5: tt', 3/5: ff'}"))
        assert dist_leq(EMPTY, P("{1/2: x}"))

    def test_leq_partial_order(self):
        a, b = P("{1/4: x}"), P("{1/4: x, 1/4: y}")
        assert dist_leq(a, a)
        assert dist_leq(a, b) and not dist_leq(b, a)
        c = P("{1/2: x, 1/4: y}")
        assert dist_leq(b, c) and dist_leq(a, c)

    def test_way_below(self):
        assert dist_way_below(P("{1/4: x}"), P("{1/2: x}"))
        assert not dist_way_below(P("{1/2: x}"), P("{1/2: x}"))
        assert dist_way_below(EMPTY, P("{1/2: x}"))

    @given(dists(), dists())
    @settings(max_examples=100)
    def test_way_below_implies_leq(self, a, b):
        if dist_way_below(a, b):
            assert dist_leq(a, b)


class TestCanonicalization:
    def test_alpha_invariant_keys(self):
        assert P(r"\a. a") == P(r"\b. b")
        assert P(r"\a. \b. a") != P(r"\a. \b. b")
        assert hash(P(r"\a. a")) == hash(P(r"\b. b"))

    def test_idempotent(self):
        d = P(r"{1/2: \a. a y, 1/2: x}")
        assert parse(print_dist(d), prelude={}) == d
        assert d.canon() == parse(print_dist(d), prelude={}).canon()

    def test_shadowing(self):
        assert P(r"\a. \a. a") == P(r"\b. \c. c")
        assert P(r"\a. \a. a") != P(r"\b. \c. b")

    def test_free_names_not_captured_by_canonical_form(self):
        assert P(r"\a. a x") != P(r"\a. a y")


# Reference canonical form: plain nested tuples with Fraction weights, the
# representation keys had before DistKey.  Entry order must not change.


def ref_canon_term(t, env, depth, weight=lambda w: w):
    if isinstance(t, Var):
        lvl = env.get(t.name)
        return ("f", t.name) if lvl is None else ("b", lvl)
    if isinstance(t, Abs):
        inner = dict(env)
        inner[t.binder] = depth
        return ("l", ref_canon_dist(t.body, inner, depth + 1, weight))
    return (
        "a",
        ref_canon_dist(t.fun, env, depth, weight),
        ref_canon_dist(t.arg, env, depth, weight),
    )


def ref_canon_dist(d, env, depth, weight=lambda w: w):
    return ("d",) + tuple(
        sorted((ref_canon_term(t, env, depth, weight), weight(w)) for t, w in d.entries())
    )


# weights whose value order differs from their (numerator, denominator) order
KEY_WEIGHTS = (F(1, 2), F(1, 3), F(2, 5), F(1, 4), F(3, 8), F(2, 7))


def gen_key_dist(rng, depth, bound=()):
    pairs = []
    for _ in range(rng.choice((1, 2, 2, 3))):
        kind = rng.choice(("var", "abs", "app") if depth > 0 else ("var",))
        if kind == "var":
            t = Var(rng.choice(bound + ("u",)))
        elif kind == "abs":
            b = rng.choice(("a", "b"))
            t = Abs(b, gen_key_dist(rng, depth - 1, bound + (b,)))
        else:
            t = App(gen_key_dist(rng, depth - 1, bound), gen_key_dist(rng, depth - 1, bound))
        pairs.append((t, rng.choice(KEY_WEIGHTS)))
    total = sum(w for _, w in pairs)
    return Dist(pairs if total <= 1 else [(t, w / total) for t, w in pairs])


def sub_dists(d):
    yield d
    for t, _ in d.entries():
        if isinstance(t, Abs):
            yield from sub_dists(t.body)
        elif isinstance(t, App):
            yield from sub_dists(t.fun)
            yield from sub_dists(t.arg)


class TestDistKey:
    def test_nested_weights_order_by_value(self):
        d = P(r"{1/2: \x. {1/2: x}, 1/2: \x. {1/3: x}}")
        assert print_dist(d) == r"{1/2: \x. {1/3: x}, 1/2: \x. {1/2: x}}"
        assert print_dist(P(print_dist(d))) == print_dist(d)

    def test_entry_order_matches_fraction_tuples(self):
        def as_pair(w):
            return (w.numerator, w.denominator)

        rng = random.Random(20240)
        pair_order_differs = 0
        for _ in range(400):
            d = gen_key_dist(rng, 3)
            for sub in sub_dists(d):
                keys = [ref_canon_term(t, {}, 0) for t, _ in sub.entries()]
                assert keys == sorted(keys), sub
                pair_keys = [ref_canon_term(t, {}, 0, as_pair) for t, _ in sub.entries()]
                pair_order_differs += pair_keys != sorted(pair_keys)
        # the sample does separate value order from integer-pair order
        assert pair_order_differs > 0

    def test_alpha_equivalent_by_parse_subst_and_app(self):
        want = P(r"{1/3: \a. {1/2: a u}, 1/3: \b. b, 1/3: (\c. c) ({1/2: u})}")
        by_parse = P(r"{1/3: (\z. z) ({1/2: u}), 1/3: \q. q, 1/3: \p. {1/2: p u}}")
        by_subst = subst(
            P(r"{1/3: \a. {1/2: a v}, 1/3: \b. b, 1/3: (\c. c) ({1/2: v})}"),
            "v",
            unit(Var("u")),
        )
        by_app = Dist(
            [
                (Abs("r", Dist([(App(unit(Var("r")), P("u")), F(1, 2))])), F(1, 3)),
                (Abs("s", unit(Var("s"))), F(1, 3)),
                (App(P(r"\y. y"), P("{1/2: u}")), F(1, 3)),
            ]
        )
        for d in (by_parse, by_subst, by_app):
            assert d == want and hash(d) == hash(want)
            assert d.canon() == want.canon() and hash(d.canon()) == hash(want.canon())

    def test_capture_avoiding_subst_matches_parse(self):
        out = subst(P(r"\u. {1/2: x u}"), "x", P("u"))
        assert out == P(r"\z. {1/2: u z}")
        assert hash(out) == hash(P(r"\z. {1/2: u z}"))

    def test_application_key_reuses_operand_keys(self):
        f, a = P(r"\x. x"), P("{1/2: y}")
        key = App(f, a).canon()
        assert key == ("a", f.canon(), a.canon())
        assert key[1] is f.canon() and key[2] is a.canon()

    def test_key_under_binder_reuses_closed_operand_keys(self):
        lam = P(r"\a. a (f y)").point()
        app = lam.body.point()
        ((inner, _),) = lam.canon()[1].pairs
        # (f y) mentions no enclosing binder: its own key is held as it is
        assert inner[2] is app.arg.canon()
        assert inner[1] != app.fun.canon()
        # a sub-distribution mentioning a gets a key of its own
        lam = P(r"\a. a (f a)").point()
        app = lam.body.point()
        ((inner, _),) = lam.canon()[1].pairs
        assert inner[2] is not app.arg.canon() and inner[2] != app.arg.canon()
        # in a body that mentions a, the entries that do not keep their keys
        lam = P(r"\a. {1/2: a, 1/4: f y}").point()
        fy = lam.body.support()[0]
        assert fy.free_names() == {"f", "y"}
        assert lam.canon()[1].pairs[0][0] is fy.canon()
        # a body without its binder free is keyed by its own key
        lam = P(r"\a. \x. x").point()
        assert lam.canon()[1] is lam.body.canon()

    def test_bound_keys_are_depth_relative(self):
        # the binder one level up reads -1 wherever it sits
        assert P(r"\a. a").point().canon()[1].pairs[0][0] == ("b", -1)
        deep = P(r"\c. \d. \a. a").point()
        assert deep.canon() == P(r"\c. \d. \x. x").point().canon()
        assert deep.body.point().body.point().canon() == P(r"\a. a").point().canon()

    def test_free_name_sets_are_shared(self):
        lam = P(r"\a. f y").point()
        assert lam.free_names() is lam.body.free_names()
        app = P("f (f y)").point()
        assert app.free_names() is app.arg.free_names() == {"f", "y"}
        d = P(r"{1/2: f y, 1/4: y}")
        assert d.free_names() is d.support()[0].free_names()

    def test_key_repr_deterministic(self):
        assert repr(P("{1/2: x}").canon()) == "DistKey(((('f', 'x'), Fraction(1, 2)),))"
        assert isinstance(P(r"\x. x").canon(), DistKey)


def alpha_copy(t):
    """An alpha-equivalent copy of ``t``, every binder renamed."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Abs):
        b = t.binder + "r"
        return Abs(b, alpha_copy_dist(subst(t.body, t.binder, unit(Var(b)))))
    return App(alpha_copy_dist(t.fun), alpha_copy_dist(t.arg))


def alpha_copy_dist(d):
    return Dist([(alpha_copy(t), n) for t, n in d._ints], d._den)


def binder_distance(d, env=None, depth=0):
    """The most binders between a bound occurrence in ``d`` and its own."""
    env = env or {}
    far = 0
    for t in d.support():
        if isinstance(t, Var):
            far = max(far, depth - env.get(t.name, depth))
        elif isinstance(t, Abs):
            far = max(far, binder_distance(t.body, {**env, t.binder: depth}, depth + 1))
        else:
            far = max(far, binder_distance(t.fun, env, depth), binder_distance(t.arg, env, depth))
    return far


class TestMergePaths:
    """A distribution built from distinct terms in canonical order is
    merged in one pass; any other input goes through a dict and a sort.
    Both paths must build the same entries, display terms and key."""

    def samples(self, seed, n):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            out += sub_dists(gen_dist(rng, 4))
        return out

    def test_key_order_and_equality_match_reference(self):
        dists = self.samples(21, 60)
        # nested binders: some variable sits two or more binders below
        # the one that binds it
        assert max(binder_distance(d) for d in dists) >= 2
        rng = random.Random(22)
        for d in dists:
            keys = [ref_canon_term(t, {}, 0) for t in d.support()]
            assert keys == sorted(keys)
            copy = alpha_copy_dist(d)
            assert copy.canon() == d.canon() and hash(copy) == hash(d)
            for e in rng.sample(dists, 10):
                rd, re_ = ref_canon_dist(d, {}, 0), ref_canon_dist(e, {}, 0)
                assert (d.canon() < e.canon()) == (rd < re_)
                assert (d.canon() == e.canon()) == (rd == re_)

    def test_both_paths_build_the_same_distribution(self, monkeypatch):
        sorts = []

        def counting_sorted(xs):
            sorts.append(1)
            return sorted(xs)

        monkeypatch.setattr(syntax, "sorted", counting_sorted, raising=False)
        rng = random.Random(23)
        shuffled_runs = 0
        for d in self.samples(24, 60):
            pairs, den = list(d._ints), d._den
            copies = [(alpha_copy(t), n) for t, n in pairs]
            shuffled = pairs[:]
            while len(shuffled) > 1 and shuffled == pairs:
                rng.shuffle(shuffled)
            del sorts[:]
            in_order = Dist(pairs, den)
            assert not sorts
            built = [
                (Dist(shuffled, den), pairs),
                (Dist(shuffled + copies, 2 * den), pairs),
                (Dist(copies + shuffled, 2 * den), copies),
            ]
            shuffled_runs += len(sorts) == 3
            assert len(sorts) == (3 if len(pairs) > 1 else 2)
            for got, shown in [(in_order, pairs)] + built:
                assert len(got._ints) == len(shown)
                assert all(g is t for (g, _), (t, _) in zip(got._ints, shown))
                assert [n for _, n in got._ints] == [n for _, n in pairs]
                assert got.canon() == d.canon() and got.canon().den == den
                assert got.canon().pairs == d.canon().pairs
                assert [repr(t) for t in got.support()] == [repr(t) for t, _ in shown]
                assert got._key_index() == dict(d.canon().pairs)
        assert shuffled_runs > 50


class TestPointPaths:
    """``unit`` and the one-entry path of ``Distribution._merge`` build the
    same fields, key and hash as the general path, and keep its checks."""

    @staticmethod
    def general(cls, t, n, den):
        # a generator of pairs never takes the one-entry path
        return cls((p for p in [(t, n)]), den)

    @staticmethod
    def assert_same(got, want):
        assert [t for t, _ in got._ints] == [t for t, _ in want._ints]
        assert all(g is w for (g, _), (w, _) in zip(got._ints, want._ints))
        assert [n for _, n in got._ints] == [n for _, n in want._ints]
        assert (got._den, got._total) == (want._den, want._total)
        assert got.canon().pairs == want.canon().pairs
        assert got.canon().den == want.canon().den
        assert hash(got.canon()) == hash(want.canon()) and got == want

    def test_same_as_general_path(self):
        terms = [t for d in TestMergePaths().samples(31, 20) for t in d.support()]
        weights = [(1, 1), (1, 2), (2, 4), (3, 9), (4, 4), (5, 7), (0, 3), (2**70, 2**71 + 1)]
        for t in terms:
            self.assert_same(unit(t), self.general(Dist, t, 1, 1))
            for n, den in weights:
                want = self.general(Dist, t, n, den)
                self.assert_same(Dist([(t, n)], den), want)
                self.assert_same(Dist(((t, n),), den), want)
                self.assert_same(Dist([(t, F(n, den))]), want)
        omega = parse_fin("_|_").support()[0]
        for n, den in weights:
            want = self.general(FinDist, omega, n, den)
            self.assert_same(FinDist(((omega, n),), den), want)

    def test_checks_kept(self):
        t = Var("x")
        with pytest.raises(MassError, match="outside"):
            Dist([(t, -1)], 3)
        with pytest.raises(MassError, match="exceeds 1"):
            Dist([(t, 5)], 4)
        with pytest.raises(MassError, match="outside"):
            Dist([(t, F(3, 2))])
        for build in (lambda: Dist([("x", 1)], 1), lambda: unit("x")):
            with pytest.raises(syntax.LambError, match="must be a Term"):
                build()
        with pytest.raises(syntax.LambError, match="must be a FinTerm"):
            FinDist([(t, 1)], 1)
        empty = Dist([(t, 0)], 5)
        assert empty.is_empty() and empty == EMPTY and empty._den == 1


# Fraction reference of the integer representation: construction, step and
# subst recomputed with Fraction weights, merged in the Fraction-keyed
# reference order above and printed from those entries.  A Dist must show
# exactly these entries, weights, mass and bytes, over the least common
# denominator.


def ref_merge(pairs):
    merged, display = {}, {}
    for t, w in pairs:
        if w:
            k = ref_canon_term(t, {}, 0)
            display.setdefault(k, t)
            merged[k] = merged.get(k, F(0)) + w
    return [(display[k], merged[k]) for k in sorted(merged)]


def ref_step(entries):
    pairs = []
    for t, w in entries:
        if is_whnf(t):
            pairs.append((t, w))
        else:
            pairs += [(rt, w * rw) for rt, rw in head_step(t).entries()]
    return ref_merge(pairs)


def ref_subst(body, v, replacement):
    pairs = []
    for t, w in body.entries():
        if isinstance(t, Var) and t.name == v:
            pairs += [(rt, w * rw) for rt, rw in replacement.entries()]
        else:
            pairs.append((subst(unit(t), v, replacement).point(), w))
    return ref_merge(pairs)


def ref_print(entries):
    if not entries:
        return "{}"
    if len(entries) == 1 and entries[0][1] == 1:
        return repr(entries[0][0])
    return "{%s}" % ", ".join("%s: %r" % (w, t) for t, w in entries)


def assert_matches_ref(d, ref):
    assert [(repr(t), w) for t, w in d.entries()] == [(repr(t), w) for t, w in ref]
    assert all(type(w) is F for _, w in d.entries())
    assert d.mass() == sum((w for _, w in ref), F(0)) and type(d.mass()) is F
    for t, w in ref:
        assert d.weight_of(t) == w
    assert print_dist(d) == ref_print(ref)
    assert d.canon().den == math.lcm(*(w.denominator for _, w in ref))
    built = Dist(ref)
    assert d == built and hash(d) == hash(built)


# pairwise coprime; their product is above 2^64 and their reciprocals sum below 1
PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


class TestIntegerWeights:
    def test_samples_and_their_reducts_match_fraction_reference(self):
        rng = random.Random(11)
        for _ in range(150):
            d = gen_key_dist(rng, 3)
            for sub in sub_dists(d):
                assert_matches_ref(sub, ref_merge(sub.entries()))
            r = gen_key_dist(rng, 1)
            assert_matches_ref(subst(d, "u", r), ref_subst(d, "u", r))
            assert_matches_ref(step(d), ref_step(d.entries()))
            report = evolve(d, 6)
            cur = d.entries()
            for _ in range(report.steps_used):
                cur = ref_step(cur)
            values = [(t, w) for t, w in cur if is_whnf(t)]
            assert_matches_ref(report.values, values)
            assert report.residual == sum((w for t, w in cur if not is_whnf(t)), F(0))
            assert type(report.residual) is F

    def test_coprime_denominators_beyond_64_bits(self):
        lcm = math.prod(PRIMES)
        assert lcm > 2**64
        pairs = [(Var("x%d" % p), F(1, p)) for p in PRIMES]
        d = Dist(pairs)
        assert d.canon().den == lcm
        assert_matches_ref(d, ref_merge(pairs))
        by_ints = Dist([(Var("x%d" % p), lcm // p) for p in PRIMES], lcm)
        assert by_ints == d and hash(by_ints) == hash(d)

    def test_mass_exactly_one_accepted_one_above_refused(self):
        lcm = math.prod(PRIMES)
        pairs = [(Var("x%d" % p), F(1, p)) for p in PRIMES]
        rest = 1 - sum(w for _, w in pairs)
        assert Dist(pairs + [(Var("z"), rest)]).mass() == 1
        with pytest.raises(MassError, match="total mass .* exceeds 1"):
            Dist(pairs + [(Var("z"), rest + F(1, lcm))])
        ints = [(Var("x%d" % p), lcm // p) for p in PRIMES]
        left = lcm - sum(n for _, n in ints)
        assert Dist(ints + [(Var("z"), left)], lcm).mass() == 1
        with pytest.raises(MassError, match="total mass .* exceeds 1"):
            Dist(ints + [(Var("z"), left + 1)], lcm)

    def test_reducible_weights_reach_least_denominator(self):
        want = P("{1/2: x}")
        by_step = step(P(r"{1/4: (\z. z) x, 1/4: x}"))
        by_subst = subst(P("{1/4: v, 1/4: x}"), "v", P("x"))
        for d in (by_step, by_subst, Dist([(Var("x"), 2)], 4)):
            assert d == want and hash(d) == hash(want)
            assert d.canon().den == 2 and d.canon().pairs == want.canon().pairs

    def test_key_order_across_denominators_is_fraction_order(self):
        grid = sorted({F(n, d) for d in range(1, 13) for n in range(1, d // 2 + 1)})
        rng = random.Random(3)
        dists, dens = [], set()
        for _ in range(120):
            d = Dist([(Var("x"), rng.choice(grid)), (Var("y"), rng.choice(grid))])
            dists += [d, unit(Abs("a", d))]
            dens.add(d.canon().den)
        assert len(dens) > 10
        for a in dists:
            for b in rng.sample(dists, 20):
                ra, rb = ref_canon_dist(a, {}, 0), ref_canon_dist(b, {}, 0)
                assert (a.canon() < b.canon()) == (ra < rb)
                assert (a.canon() == b.canon()) == (ra == rb)
        by_key = [ref_canon_dist(d, {}, 0) for d in sorted(dists, key=Dist.canon)]
        assert by_key == sorted(ref_canon_dist(d, {}, 0) for d in dists)


class TestTermIdentity:
    """Terms are equal, and hash alike, exactly when they are of the same
    form and alpha-equivalent, as distributions already were."""

    def test_alpha_equivalent_abstractions(self):
        a, b = Abs("x", unit(Var("x"))), Abs("y", unit(Var("y")))
        assert a == b and hash(a) == hash(b)
        assert Abs("x", unit(Var("z"))) != Abs("y", unit(Var("y")))

    def test_alpha_equivalent_applications(self):
        a = App(P(r"\x. {1/2: x}"), P("u"))
        b = App(P(r"\y. {1/2: y}"), P("u"))
        assert a == b and hash(a) == hash(b)
        assert a != App(P(r"\y. {1/2: y}"), P("v"))

    def test_variables_by_name(self):
        assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
        assert Var("x") != Var("y")

    def test_form_decides_too(self):
        # an abstraction is not equal to the distribution or the
        # application that holds it, whatever the keys
        assert Abs("x", EMPTY) != unit(Abs("x", EMPTY))
        assert Var("x") != P("x")
        assert len({Abs("x", unit(Var("x"))), Abs("y", unit(Var("y"))), Var("x")}) == 2

    def test_support_compares_modulo_alpha(self):
        d = P(r"{1/2: \a. a, 1/4: y}")
        assert d.support() == (Var("y"), Abs("b", unit(Var("b"))))

