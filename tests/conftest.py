"""Shared term generators for the property and acceptance suites."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest

from plamb import syntax
from plamb.approximants import (
    FIN_BOTTOM, OMEGA, FinAbs, FinDist, FinSpine, FinTerm, Omega, parse_fin, print_fin_dist,
)
from plamb.prelude import DEFAULT_PRELUDE
from plamb.syntax import Abs, App, Dist, LambError, MassError, ParseError, ReservedNameError, Var
from plamb.reduction import evolve

GRID8 = [Fraction(i, 8) for i in range(1, 9)]
FREE_NAMES = ("u", "v", "w")
BINDERS = ("a", "b", "c")


def gen_term(rng, depth, bound=()):
    kinds = ["var"]
    if depth > 0:
        kinds += ["abs", "abs", "app", "app"]
    kind = rng.choice(kinds)
    if kind == "var":
        pool = tuple(bound) + FREE_NAMES
        return Var(rng.choice(pool))
    if kind == "abs":
        b = rng.choice(BINDERS)
        return Abs(b, gen_dist(rng, depth - 1, tuple(bound) + (b,)))
    return App(gen_dist(rng, depth - 1, bound), gen_dist(rng, depth - 1, bound))


def gen_dist(rng, depth, bound=()):
    n = rng.choice((1, 1, 1, 2, 2, 3))
    pairs = [(gen_term(rng, depth, bound), rng.choice(GRID8)) for _ in range(n)]
    total = sum(w for _, w in pairs)
    if total > 1:
        pairs = [(t, w / total) for t, w in pairs]
    return Dist(pairs)


def gen_terminating(rng, depth=3, fuel=32, tries=50):
    for _ in range(tries):
        d = gen_dist(rng, depth)
        if evolve(d, fuel).converged:
            return d
    raise AssertionError("could not generate a terminating distribution")


# Loops of one to three states: {0} and {1} are the weights of staying
# on the loop and of leaving it for the value v.
LOOP_TEMPLATES = (
    r"(\{b}. {b} {b}) (\{b}. {{{0}: {b} {b}, {1}: v}})",
    r"(\z. \f. f (z z f)) (\z. \f. f (z z f)) (\{b}. {{{0}: {b}, {1}: v}})",
    r"Y (\{b}. {{{1}: I, {0}: {b}}})",
)


def gen_loop_program(rng, depth=2):
    """Source of a program whose residual runs into a loop of one to three
    states, mixed with a part that converges: a loop from LOOP_TEMPLATES
    with random weights and binder, and a terminating distribution."""
    p = Fraction(rng.randint(1, 7), 8)
    loop = rng.choice(LOOP_TEMPLATES).format(p, 1 - p, b=rng.choice(BINDERS))
    w = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
    rest = gen_terminating(rng, depth)
    return syntax.print_dist(
        syntax.dist_union(syntax.dist_scale(w, syntax.parse(loop)), syntax.dist_scale(1 - w, rest))
    )


# hypothesis strategies built over the seeded generator: deterministic
# per-example and cheap, at the cost of weaker shrinking


@st.composite
def dists(draw, depth=3):
    seed = draw(st.integers(0, 2**32 - 1))
    return gen_dist(random.Random(seed), depth)


@pytest.fixture
def canonical_contract(monkeypatch):
    """``Distribution._canonical`` wrapped with its whole contract, on what
    it is given and on what it builds; the fixture is the list of the
    distributions built so far."""
    canonical = syntax.Distribution._canonical.__func__
    built = []

    def checked(cls, ints, keys, den, total):
        ints, keys = list(ints), list(keys)
        nums = [n for _, n in ints]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # each key is the one canon() computes for its term
        assert keys == [t._key({}, 0) for t, _ in ints]
        assert all(n > 0 for n in nums)
        assert total == sum(nums) <= den
        d = canonical(cls, ints, keys, den, total)
        got = [n for _, n in d._ints]
        assert [t for t, _ in d._ints] == [t for t, _ in ints]
        assert all(s is t for (s, _), (t, _) in zip(d._ints, ints))
        assert math.gcd(d._den, *got) == 1
        assert d._total == sum(got) <= d._den
        assert got == [n * d._den // den for n in nums]
        assert d._canon.pairs == tuple(zip(keys, got)) and d._canon.den == d._den
        built.append(d)
        return d

    monkeypatch.setattr(syntax.Distribution, "_canonical", classmethod(checked))
    return built


def expand_prelude(src, prelude):
    """The oracle for prelude resolution: each prelude name in ``src``
    replaced by its parenthesized definition, as text, until nothing
    changes (at most 16 rounds).  The result parses with ``prelude={}``
    to what ``parse(src, prelude)`` builds."""
    for _ in range(16):
        changed = False
        for name, body in prelude.items():
            pat = r"(?<![A-Za-z0-9_'#])%s(?![A-Za-z0-9_'#])" % re.escape(name)
            new = re.sub(pat, lambda _m: "(%s)" % body, src)
            if new != src:
                src = new
                changed = True
        if not changed:
            return src
    raise LambError("prelude expansion did not terminate (recursive definition?)")


def reachable(d):
    """Every distribution and term reachable from ``d``."""
    out, todo, seen = [], [d], set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        if isinstance(x, Dist):
            todo += x.support()
        elif isinstance(x, Abs):
            todo.append(x.body)
        elif isinstance(x, App):
            todo += [x.fun, x.arg]
    return out


def prelude_table(prelude):
    """The kept table of ``prelude``, which must be the last prelude
    parsed with, so that no table is built here."""
    hits = syntax._definitions_of.cache_info().hits
    defs = syntax._definitions_of(tuple(prelude.items()))
    assert syntax._definitions_of.cache_info().hits == hits + 1, "not the kept table"
    return defs


def stepped_in_table(prelude):
    """The nodes reachable from ``prelude``'s kept table that hold a
    reduction: an application with its head reduct or a distribution with
    its evolution.  Empty when no use tied the table to a reduction."""
    return [
        x
        for d, _ in prelude_table(prelude).parsed.values()
        for x in reachable(d)
        if isinstance(x, App) and x._step is not None
        or isinstance(x, Dist) and x._evolved is not None
    ]


# The oracle for the candidate reader: the second grammar that read
# candidates before ``parse_fin`` became the calculus parser plus the
# ``_|_`` atom.  Its tokens have ``|`` as punctuation, and a term or an
# atom that begins with the three tokens ``_`` ``|`` ``_`` is bottom.
_ORACLE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>--[^\n]*)
      | (?P<number>\d+\.\d+|\d+)
      | (?P<name>[A-Za-z_#][A-Za-z0-9_'#]*)
      | (?P<punct>[\\.(){},:/|])
    """,
    re.VERBOSE,
)


def _oracle_tokens(src):
    # (kind, text, offset) triples, as the calculus parser takes them; the
    # oracle decides acceptance and the result, not messages
    tokens, pos = [], 0
    while pos < len(src):
        m = _ORACLE_TOKEN_RE.match(src, pos)
        if m is None or m.group().startswith("#"):
            raise ParseError("unexpected input", 1, pos + 1)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _FinOracleParser(syntax._Parser):
    """term ::= _|_ | \\v. dist | v atom*;  atom ::= _|_ | v | (dist);
    dist as in the calculus, building ``FinDist``s."""

    def dist(self):
        if self.at("{"):
            pos = self.next()[2]
            if self.at("}"):
                self.next()
                return FinDist()
            pairs = []
            while True:
                w = Fraction(*self.weight())
                self.expect(":")
                pairs.append((self.term(), w))
                if self.at(","):
                    self.next()
                    continue
                self.expect("}")
                break
            try:
                return FinDist(pairs)
            except MassError:
                raise self.error("weights sum above 1", pos) from None
        return FinDist(((self.term(), 1),), 1)

    def term(self):
        if self._bottom_ahead():
            self.i += 3
            return OMEGA
        if self.at("\\"):
            self.next()
            if not self.at_kind("name"):
                self.fail("expected a binder name")
            name = self.next()[1]
            self.expect(".")
            return FinAbs(name, self.dist())
        if not self.at_kind("name"):
            self.fail("expected a finite term")
        head = self.next()[1]
        args = []
        while self.at_kind("name") or self.at("("):
            args.append(self.atom())
        return FinSpine(head, tuple(args))

    def atom(self):
        if self._bottom_ahead():
            self.i += 3
            return FIN_BOTTOM
        if self.at_kind("name"):
            name = self.next()[1]
            return FinDist(((FinSpine(name, ()), 1),), 1)
        return super().atom()

    def _bottom_ahead(self):
        return [t for _, t, _ in self.tokens[self.i:self.i + 3]] == ["_", "|", "_"]


def parse_fin_oracle(src):
    """``src`` read by the second grammar, or a LambError."""
    return _FinOracleParser(_oracle_tokens(src), src).whole()


def _calculus_only(src):
    """Whether ``src`` holds what only the calculus grammar reads: a
    parenthesised term or spine head (it has a parenthesis) or an entry
    of weight 0, which is dropped before the entries are checked."""
    return any(
        text == "(" or kind == "number" and not text.strip("0.")
        for kind, text, _ in _oracle_tokens(src)
    )


def check_candidate_reader(src):
    """``parse_fin`` against the oracle on ``src``: where the oracle reads
    a candidate, ``parse_fin`` reads an equal one that prints the same;
    where it refuses, ``parse_fin`` refuses too, or ``src`` is
    ``_calculus_only`` and the oracle reads the printed form of what
    ``parse_fin`` read to the same candidate."""
    try:
        want = parse_fin_oracle(src)
    except LambError:
        want = None
    try:
        got = parse_fin(src)
    except LambError:
        got = None
    if want is not None:
        assert got == want and print_fin_dist(got) == print_fin_dist(want)
    elif got is not None:
        assert _calculus_only(src)
        assert parse_fin_oracle(print_fin_dist(got)) == got


# The oracle for the tokenizer: the one that matched whitespace, comments
# and each token separately and counted lines and columns as it went.
_ORACLE_GAP = r"(?:\s|--[^\n]*\n)*"
_LAMBDA_ORACLE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>--[^\n]*)
      | (?P<number>\d+\.\d+|\d+)
      | (?P<bottom>_%s\|%s_(?![A-Za-z0-9_'#]))
      | (?P<name>[A-Za-z_#][A-Za-z0-9_'#]*)
      | (?P<punct>[\\.(){},:/])
    """ % (_ORACLE_GAP, _ORACLE_GAP),
    re.VERBOSE,
)


def tokenize_oracle(src):
    """(kind, text, line, col) tokens of ``src``, ending in ``eof``."""
    tokens = []
    line, col = 1, 1
    pos = 0
    n = len(src)
    while pos < n:
        m = _LAMBDA_ORACLE_TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError("unexpected character %r" % src[pos], line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "name" and text.startswith("#"):
            raise ReservedNameError(
                "names beginning with '#' are reserved", line, col
            )
        if kind not in ("ws", "comment"):
            tokens.append((kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def check_tokenizer(src):
    """``syntax._tokenize`` against the oracle on ``src``: tokens of the
    same kinds and texts at the same line and column, or a ParseError of
    the same type and text (position included)."""
    try:
        want = tokenize_oracle(src)
    except ParseError as exc:
        with pytest.raises(type(exc)) as got:
            syntax._tokenize(src)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = [(k, t, *syntax._line_col(src, pos)) for k, t, pos in syntax._tokenize(src)]
    assert got == want


# Short sources over the grammar's tokens, and over-long numerals
FUZZ_TOKENS = [
    "x", "y", "I", "tt", "ff", "xor", "omega", "Y", "_|_", "_", "#a", "\\", ".", "(", ")",
    "{", "}", ",", ":", "/", "|", "0", "1", "2", "1/2", "0.25", "3/4", "--c\n", "\n", "@",
] + ["\\%s." % name for name in DEFAULT_PRELUDE]
OVERLONG_NUMERALS = ["9" * 5000, "0." + "1" * 5000, "1/" + "3" * 5000]

fuzz_sources = st.one_of(
    st.builds(
        str.join,
        st.sampled_from([" ", ""]),
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=12),
    ),
    st.builds(
        str.__mod__,
        st.sampled_from(["%s", "{%s: x}", "\\x. {1/2: x, %s: y}"]),
        st.sampled_from(OVERLONG_NUMERALS),
    ),
)


# The oracle for the printer: the two printers that the term worlds had,
# one per world, each telling the term forms apart itself.
def print_dist_oracle(d, explicit=False):
    if d.is_empty():
        return "{}"
    t = d.point()
    if not explicit and t is not None:
        return print_term_oracle(t)
    return "{%s}" % ", ".join("%s: %s" % (w, print_term_oracle(t)) for t, w in d.entries())


def print_term_oracle(t):
    return _print_fin_term_oracle(t) if isinstance(t, FinTerm) else _print_term_oracle(t)


def _print_term_oracle(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return "\\%s. %s" % (t.binder, print_dist_oracle(t.body))
    parts = [_print_atom_oracle(t.arg)]
    fun = t.fun
    while True:
        inner = fun.point()
        if isinstance(inner, App):
            parts.append(_print_atom_oracle(inner.arg))
            fun = inner.fun
        else:
            parts.append(_print_atom_oracle(fun))
            break
    return " ".join(reversed(parts))


def _print_atom_oracle(d):
    t = d.point()
    if isinstance(t, Var):
        return t.name
    return "(%s)" % print_dist_oracle(d)


def _print_fin_term_oracle(t):
    if isinstance(t, Omega):
        return "_|_"
    if isinstance(t, FinAbs):
        return "\\%s. %s" % (t.binder, print_dist_oracle(t.body))
    return " ".join([t.head] + [_fin_atom_oracle(a) for a in t.args])


def _fin_atom_oracle(d):
    t = d.point()
    if isinstance(t, Omega):
        return "_|_"
    if isinstance(t, FinSpine) and not t.args:
        return t.head
    return "(%s)" % print_dist_oracle(d)
