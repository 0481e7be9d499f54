import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import dists
from plamb.laws import roundtrip
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

    def test_key_repr_deterministic(self):
        assert repr(P("{1/2: x}").canon()) == "DistKey(((('f', 'x'), Fraction(1, 2)),))"
        assert isinstance(P(r"\x. x").canon(), DistKey)


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

