"""Bundled corpus of terms used by the self-test battery and the test
suite: worked examples, prelude combinators under varied arguments, open
spines, weighted sums, and a few divergent and half-divergent programs."""

from __future__ import annotations

import functools

from .syntax import parse

CORPUS_SOURCES = [
    # values and plain combinators
    r"I",
    r"\x. x",
    r"\x. \y. x",
    r"\x. \y. y",
    r"\x. \y. x y",
    r"\f. \x. f (f x)",
    r"tt",
    r"ff",
    r"xor",
    r"\a. a a",
    # open spines
    r"y",
    r"x y",
    r"x y z",
    r"x (y z)",
    r"x tt ff",
    r"x ff tt",
    r"x I",
    r"w (x y) z",
    r"x ({1/2: y, 1/2: z})",
    r"x ({})",
    # immediate redexes
    r"(\x. x) y",
    r"(\x. x x) (\y. y)",
    r"(\x. \y. x) a b",
    r"(\x. \y. y) a b",
    r"I (I (I y))",
    r"(\f. f (f x)) I",
    r"(\x. x) (\y. z y)",
    r"xor tt tt",
    r"xor tt ff",
    r"xor ff tt",
    r"xor ff ff",
    r"tt a b",
    r"ff a b",
    # weighted sums
    r"{1/2: \x. x, 1/2: y}",
    r"{1/3: x, 1/3: y, 1/3: z}",
    r"{1/2: tt, 1/2: ff}",
    r"{1/5: tt, 1/5: ff}",
    r"{3/4: I, 1/4: omega}",
    r"{1/2: (\x. x) y, 1/2: z}",
    r"({1/2: \x. x, 1/2: y}) z",
    r"({1/4: \x. x x, 3/4: \x. x}) (\y. y)",
    r"\x. {1/2: x, 1/2: I}",
    r"{1/2: \x. {1/2: x, 1/2: y}, 1/2: \x. y}",
    # sub-unit operators leak mass
    r"({1/2: \x. x}) y",
    r"({2/3: y}) z",
    # divergence and partial divergence
    r"omega",
    r"\x. omega",
    r"{1/2: omega, 1/2: I}",
    r"(\x. x x) (\x. {1/2: x x, 1/2: I})",
    r"Y (\x. {1/2: I, 1/2: x})",
    r"Y (\x. {1/3: tt, 2/3: x})",
    r"Y (\f. \x. f)",
    r"Y I",
    r"x omega",
    r"\x. x omega",
    r"I omega",
    # a loop whose redex recurs under other binder names than it is met with
    r"(\x. \y. {1/2: y y x, 1/2: (\a. \p. p) u}) (\x. \y. {1/2: y y x, 1/2: (\a. \p. p) u})"
    r" (\y. \x. {2/3: x x y, 1/3: (\b. \q. q) u})",
    # a loop state met as a copy named a and p, recurring only as b and q
    r"{1/2: (\a. {1/2: a a, 1/2: \p. p}) (\a. {1/2: a a, 1/2: \p. p}),"
    r" 1/2: ({1/2: \b. {1/2: b b, 1/2: \q. q}, 1/2: u}) (\b. {1/2: b b, 1/2: \q. q})}",
]


@functools.cache
def corpus():
    """Parsed corpus distributions (cached)."""
    return [parse(src) for src in CORPUS_SOURCES]
