"""Terms, weighted term distributions, and the concrete syntax.

The calculus has three term forms: variables, abstractions whose body is a
distribution, and applications of a distribution to a distribution.  A
distribution (``Dist``) is a finite map from terms to exact rational weights
with total mass at most 1; missing mass stands for divergence.

Identity of terms and of distributions is alpha-equivalence: keys are
merged by a locally nameless canonical form while the originally written
binder names are kept for display.  A free variable is keyed by its name;
a bound one by its binder's level minus the depth of the occurrence (a
negated de Bruijn index), so the key of a sub-distribution in which no
enclosing binder occurs free is the same at every depth.  Such a key is
built once, by the sub-distribution itself, and every enclosing key holds
that object: the key of ``\\a. a (f y)`` holds ``(f y)``'s own ``canon()``,
and only entries that mention an enclosing binder are keyed anew.  Free
names are sets shared up the term wherever a union or a difference would
not change them.  ``Node`` and ``Distribution`` hold this identity once
for both term worlds, the calculus's and the approximants'
(``plamb.approximants``): a node defines only its key under binders and
its free names.

Weights are exact.  A distribution holds them as positive int numerators
over one int denominator, the least common denominator of its weights, so
equal distributions hold equal numbers; scaling and summing distributions
(``mixture``) is int arithmetic, and ``Fraction`` weights are built only
at the edge: ``entries()``, ``weight_of``, ``mass()``, parsing and
printing.  A distribution's canonical form is a ``DistKey``: its sorted
(term key, numerator) pairs and the denominator, with a hash computed once,
when the key is built (nested keys contribute their cached hash).  Keys
order weights by exact value, by cross-multiplication when denominators
differ.  Outside any binder a term's key reuses its operands' keys, so the
key of an application ``f a`` is ``("a", f.canon(), a.canon())`` and costs
O(1).  Most distributions are built from distinct terms already in
canonical order; construction checks that in one pass and merges through
a dict and a sort only when it fails.  Machine-generated names live in the
reserved ``#`` namespace, which the parser rejects.

All values are immutable after construction and safe to share between
threads; every function here is pure.  The cache slots (a node's key and
free names, a distribution's ``Fraction`` entries and key index, an
abstraction's last ``ret`` target, an application's head reduct, a
``Dist``'s last evolution, a ``FinDist``'s embedding) are written from the
object alone, and a given key always yields the same value, so writing one
is idempotent: concurrent threads at worst compute it twice.  A slot lives
as long as its object; an application's head reduct holds the terms it
reduces to, whose own slots hold theirs, so a term keeps alive the part of
its trajectory that has been stepped.  ``names_alike`` tells whether two
terms with equal keys also print the same, so that one may stand for the
other.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

Weight = Fraction

ZERO = Fraction(0)

_USER_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_MACHINE_NAME_RE = re.compile(r"#[A-Za-z0-9_'#]+\Z")


class LambError(Exception):
    """Base class for workbench errors."""


class MassError(LambError):
    """A distribution's total mass would exceed 1, or a weight is invalid."""


class ParseError(LambError):
    """Concrete-syntax error, with 1-based line/column position."""

    def __init__(self, message, line, col):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class ReservedNameError(ParseError):
    """A ``#``-prefixed identifier appeared in source text."""


def check_name(name):
    """Validate a variable name (user identifier or machine ``#`` symbol)."""
    if not isinstance(name, str) or not (
        _USER_NAME_RE.match(name) or _MACHINE_NAME_RE.match(name)
    ):
        raise LambError("invalid variable name: %r" % (name,))
    return name


def fresh_name(avoid):
    """Smallest ``#i`` symbol not in ``avoid``; deterministic."""
    i = 0
    while "#%d" % i in avoid:
        i += 1
    return "#%d" % i


def check_weight(w):
    if not isinstance(w, Fraction):
        w = Fraction(w)
    # a Fraction's denominator is positive, so 0 <= w <= 1 is 0 <= n <= d
    if not 0 <= w.numerator <= w.denominator:
        raise _mass_error("weight%s outside [0, 1]", w.numerator, w.denominator)
    return w


def _mass_error(template, n, den):
    """A MassError naming the weight n/den, or leaving it out where Python
    refuses to print its digits: the lcm of readable denominators can be
    too long to print."""
    try:
        text = " " + str(Fraction(n, den))
    except ValueError:
        text = ""
    return MassError(template % text)


# ---------------------------------------------------------------------------
# Terms


class Node:
    """Base class of the term forms of both term worlds: the calculus's
    ``Term`` and the approximants' ``FinTerm``.

    A node defines ``_key(env, depth)``, its canonical key under binders
    ``env`` (bound name -> binding depth), and ``_free()``, its free names;
    both are computed once here and cached.  Two nodes are equal when they
    are of the same concrete type and alpha-equivalent (equal ``canon()``).
    """

    __slots__ = ("_canon", "_fn")

    def canon(self):
        if self._canon is None:
            self._canon = self._key({}, 0)
        return self._canon

    def free_names(self):
        if self._fn is None:
            self._fn = self._free()
        return self._fn

    def __eq__(self, other):
        return type(other) is type(self) and other.canon() == self.canon()

    def __hash__(self):
        return hash(self.canon())


class Term(Node):
    """Base class of the three term forms; equality is alpha-equivalence."""

    __slots__ = ()

    def __repr__(self):
        return print_term(self)


def _name_key(name, env, depth):
    """Key of a variable occurrence at ``depth``: if bound, its binder's
    level minus ``depth`` (a negative int), else its name under a distinct
    tag, so keys sort without mixed-type comparisons.

    Keys are only compared between positions at equal depth, where the
    relative level orders and equates binders as the absolute one does.
    Being relative, the key of a bound variable does not depend on how deep
    its binder sits, so a sub-distribution in which no enclosing binder
    occurs free has the same key everywhere: ``_canon_dist`` reuses the
    one it built for itself.
    """
    lvl = env.get(name)
    return ("f", name) if lvl is None else ("b", lvl - depth)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = check_name(name)
        self._canon = self._fn = None

    def _key(self, env, depth):
        return _name_key(self.name, env, depth)

    def _free(self):
        return _name_set(self.name)


@functools.lru_cache(maxsize=1024)
def _name_set(name):
    """The free-name set ``{name}``, one object shared by the variables of
    that name (bounded, so hostile input cannot grow it without limit)."""
    return frozenset((name,))


class Abs(Term):
    # _ret caches (sym, ret target) for plamb.lts.ret_target
    __slots__ = ("binder", "body", "_ret")

    def __init__(self, binder, body):
        self.binder = check_name(binder)
        if not isinstance(body, Dist):
            raise LambError("abstraction body must be a Dist")
        self.body = body
        self._canon = self._fn = self._ret = None

    def _key(self, env, depth):
        inner = dict(env)
        inner[self.binder] = depth
        return ("l", _canon_dist(self.body, inner, depth + 1))

    def _free(self):
        fn = self.body.free_names()
        return fn - {self.binder} if self.binder in fn else fn


class App(Term):
    # _step caches the head reduct for plamb.reduction.head_step
    __slots__ = ("fun", "arg", "_step")

    def __init__(self, fun, arg):
        if not isinstance(fun, Dist) or not isinstance(arg, Dist):
            raise LambError("application operands must be Dists")
        self.fun = fun
        self.arg = arg
        self._canon = self._fn = self._step = None

    def _key(self, env, depth):
        return ("a", _canon_dist(self.fun, env, depth), _canon_dist(self.arg, env, depth))

    def _free(self):
        return _union(self.fun.free_names(), self.arg.free_names())


def names_alike(a, b):
    """Whether two terms with equal keys name every binder alike, which is
    when they print the same.  Equal keys align the two structures entry by
    entry, since a distribution's entries are in key order, and binders
    named alike keep them aligned below; a free or bound variable then has
    the same name on both sides.  Parts that are one object are not
    walked."""
    if a is b:
        return True
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Abs):
        return a.binder == b.binder and _dist_names_alike(a.body, b.body)
    return _dist_names_alike(a.fun, b.fun) and _dist_names_alike(a.arg, b.arg)


def _dist_names_alike(d, e):
    return d is e or all(
        names_alike(s, t) for (s, _), (t, _) in zip(d._ints, e._ints)
    )


def _union(a, b):
    """``a | b``, returning an operand itself when it already holds the
    other, so free-name sets are shared up the term rather than copied."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _canon_dist(d, env, depth):
    """Key of ``d`` under the binders ``env`` at ``depth``.  Bound keys are
    depth-relative, so where no name of ``env`` is free, the key is the one
    ``d`` (or an entry of it) built for itself; the entries that do mention
    a name of ``env`` are keyed anew, and the entries sorted again."""
    names = env.keys()
    if not names or names.isdisjoint(d.free_names()):
        return d._canon
    # building d computed every entry's own key
    pairs = [
        (t._canon if names.isdisjoint(t.free_names()) else t._key(env, depth), n)
        for t, n in d._ints
    ]
    pairs.sort()
    return DistKey(tuple(pairs), d._den)


class DistKey:
    """Canonical form of a distribution: its (term key, numerator) pairs in
    canonical order, over ``den``, the least common denominator of its
    weights.  Equal distributions have equal pairs and equal ``den``.

    The hash is computed once, at construction, from the pairs and ``den``;
    a nested key contributes its cached hash, so hashing a key costs
    O(width), not O(size).  Keys order by their entries, each by term key
    and then by exact weight: numerators compare directly when the two
    denominators agree and by cross-multiplication when they do not (never
    as (numerator, denominator) tuples, whose order is not the weights').
    The repr shows the weights as ``Fraction``s.
    """

    __slots__ = ("pairs", "den", "_hash")

    def __init__(self, pairs, den):
        self.pairs = pairs
        self.den = den
        self._hash = hash((pairs, den))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DistKey):
            return NotImplemented
        return self._hash == other._hash and self.den == other.den and self.pairs == other.pairs

    def __lt__(self, other):
        a, b = self.den, other.den
        if a == b:
            return self.pairs < other.pairs
        for (k, m), (l, n) in zip(self.pairs, other.pairs):
            if k != l:
                return k < l
            if m * b != n * a:
                return m * b < n * a
        return len(self.pairs) < len(other.pairs)

    def __repr__(self):
        return "DistKey(%r)" % (tuple((k, Fraction(n, self.den)) for k, n in self.pairs),)


# ---------------------------------------------------------------------------
# Distributions


class Distribution:
    """Base class of the distributions of both term worlds: ``Dist`` and
    the approximants' ``FinDist``.

    A distribution stores its entries as (term, numerator) pairs in
    canonical-key order (``_ints``) over one int denominator ``_den``, the
    least common denominator of its weights, so every weight is
    ``numerator / _den`` and equal distributions store equal numbers.
    The library's own layers read and build them as ints; ``Fraction``
    weights appear only at the edge: ``entries()``, ``weight_of``,
    ``mass()``, parsing and printing.  Alpha-equivalent keys are merged by
    weight addition at construction, zero-weight entries are dropped, and
    the canonical order makes iteration, printing and hashing deterministic
    and alpha-invariant.  The canonical form is a ``DistKey`` whose hash is
    computed once, so equality, hashing and use as a memo key are cheap.
    Two distributions are equal when they are of the same concrete type
    and have equal keys.
    """

    __slots__ = ("_ints", "_den", "_total", "_index", "_canon", "_entries", "_fn")

    def _merge(self, pairs, den, term_type, what):
        """Build this distribution from (term, numerator) pairs over the
        int ``den``, or, when ``den`` is None, from (term, weight) pairs
        read once over the lcm of the weights' denominators.

        Alpha-equivalent terms (equal ``canon()``) add their numerators,
        the first one seen is kept for display, and zero weights are
        dropped.  Most callers pass distinct terms already in canonical
        order; that is checked in the one pass over the pairs, and only
        when it fails are the keys merged through a dict and sorted.  One
        gcd of ``den`` and the numerators then reduces them to the least
        common denominator.  Raises MassError above total mass 1.

        A one-entry list or tuple of positive weight, the most common
        construction, is checked and reduced on its own, with the same
        result as the general path.
        """
        if den is None:
            if isinstance(pairs, dict):
                pairs = pairs.items()
            pairs = [(t, check_weight(w)) for t, w in pairs]
            den = math.lcm(*[w.denominator for _, w in pairs])
            pairs = [(t, w.numerator * (den // w.denominator)) for t, w in pairs]
        if type(pairs) in (tuple, list) and len(pairs) == 1 and pairs[0][1] > 0:
            (t, n), = pairs
            if not isinstance(t, term_type):
                raise LambError("%s key must be a %s: %r" % (what, term_type.__name__, t))
            if n > den:
                raise _mass_error("total mass%s exceeds 1", n, den)
            g = math.gcd(den, n)
            if g > 1:
                den //= g
                n //= g
            key = t._canon
            if key is None:
                key = t.canon()
            self._ints = ((t, n),)
            self._canon = DistKey(((key, n),), den)
            self._den = den
            self._total = n
            self._index = self._entries = self._fn = None
            return
        display, keys, nums = [], [], []
        # the empty tuple sorts below every key
        prev, ordered = (), True
        for t, n in pairs:
            if not isinstance(t, term_type):
                raise LambError("%s key must be a %s: %r" % (what, term_type.__name__, t))
            if n <= 0:
                if n < 0:
                    raise _mass_error("weight%s outside [0, 1]", n, den)
                continue
            key = t._canon
            if key is None:
                key = t.canon()
            if ordered:
                ordered = prev < key
                prev = key
            display.append(t)
            keys.append(key)
            nums.append(n)
        if not ordered:
            merged, shown = {}, {}
            for t, key, n in zip(display, keys, nums):
                old = merged.get(key)
                if old is None:
                    merged[key] = n
                    shown[key] = t
                else:
                    merged[key] = old + n
            keys = sorted(merged)
            display = [shown[k] for k in keys]
            nums = [merged[k] for k in keys]
        total = sum(nums)
        if total > den:
            raise _mass_error("total mass%s exceeds 1", total, den)
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            total //= g
            nums = [n // g for n in nums]
        self._ints = tuple(zip(display, nums))
        self._canon = DistKey(tuple(zip(keys, nums)), den)
        self._den = den
        self._total = total
        self._index = self._entries = self._fn = None

    def entries(self):
        """Entries as (term, weight) pairs in canonical order, with
        ``Fraction`` weights built on first use."""
        e = self._entries
        if e is None:
            den = self._den
            e = self._entries = tuple([(t, Fraction(n, den)) for t, n in self._ints])
        return e

    def point(self):
        """The term ``t`` if this is the point distribution {1: t}, else None."""
        e = self._ints
        return e[0][0] if len(e) == 1 and e[0][1] == self._den else None

    def support(self):
        return tuple(t for t, _ in self._ints)

    def mass(self):
        return Fraction(self._total, self._den)

    def canon(self):
        return self._canon

    def _key_index(self):
        """Canonical key -> numerator, built on first use."""
        idx = self._index
        if idx is None:
            idx = self._index = dict(self._canon.pairs)
        return idx

    def weight_of(self, t):
        """Weight of the alpha-equivalence class of ``t`` (0 if absent)."""
        n = self._key_index().get(t.canon())
        return ZERO if n is None else Fraction(n, self._den)

    def free_names(self):
        if self._fn is None:
            fn = frozenset()
            for t, _ in self._ints:
                fn = _union(fn, t.free_names())
            self._fn = fn
        return self._fn

    def is_empty(self):
        return not self._ints

    def __iter__(self):
        return iter(self.entries())

    def __len__(self):
        return len(self._ints)

    def __eq__(self, other):
        return type(other) is type(self) and other._canon == self._canon

    def __hash__(self):
        return self._canon._hash

    def __repr__(self):
        return print_dist(self)


class Dist(Distribution):
    """Finite subprobability distribution over terms.

    ``Dist(pairs)`` reads (term, weight) pairs with ``Fraction`` or int
    weights; ``Dist(pairs, den)`` reads (term, int numerator) pairs over
    the positive int denominator ``den``, as the library's own layers build
    them.
    """

    # _evolved caches (fuel, report) for plamb.reduction.evolve
    __slots__ = ("_evolved",)

    def __init__(self, pairs=(), den=None):
        self._merge(pairs, den, Term, "distribution")
        self._evolved = None


EMPTY = Dist()


def unit(t):
    """The point distribution {1: t}.  Weight 1 over denominator 1 takes
    ``Distribution._merge``'s one-entry path: the term check and the key,
    with no lists, order check or sum."""
    return Dist(((t, 1),), 1)


def free_names(d):
    """Free names of a distribution or term."""
    return d.free_names()


def mixture(parts, den):
    """The sum of n/den times p over the (n, p) pairs of ``parts``, where p
    is a ``Dist`` or a term standing for its point distribution, built on
    ints over one common denominator.  An alpha-class is displayed by its
    first-seen term; raises MassError above total mass 1."""
    lcm = math.lcm(*[p._den for _, p in parts if isinstance(p, Dist)])
    pairs = []
    for n, p in parts:
        if isinstance(p, Dist):
            s = n * (lcm // p._den)
            pairs += [(t, s * m) for t, m in p._ints]
        else:
            pairs.append((p, n * lcm))
    return Dist(pairs, den * lcm)


def dist_union(a, b):
    """Pointwise weight addition; raises MassError above total mass 1."""
    return mixture(((1, a), (1, b)), 1)


def dist_scale(p, d):
    """Scale every weight by ``p``, dropping entries that become zero."""
    p = check_weight(p)
    if p == 0:
        return EMPTY
    return mixture(((p.numerator, d),), p.denominator)


def dist_leq(a, b):
    """True iff ``b`` extends ``a``: pointwise weight of a <= weight in b."""
    bidx, da, db = b._key_index(), a._den, b._den
    for k, n in a._canon.pairs:
        if n * db > bidx.get(k, 0) * da:
            return False
    return True


def dist_way_below(a, b):
    """Strict pointwise domination: every entry of ``a`` weighs strictly
    less than its class does in ``b``.  Vacuously true for empty ``a``."""
    bidx, da, db = b._key_index(), a._den, b._den
    for k, n in a._canon.pairs:
        if n * db >= bidx.get(k, 0) * da:
            return False
    return True


# ---------------------------------------------------------------------------
# Substitution

def subst(body, v, replacement):
    """Capture-avoiding substitution of ``replacement`` (a Dist) for the
    free variable ``v`` throughout ``body``.

    A standalone occurrence of ``v`` with weight q splices q * replacement
    into the enclosing distribution; occurrences in operator/operand
    position receive the whole distribution, so argument choices are
    resolved independently at each use site.

    Where ``v`` is not free, nothing is rebuilt: ``subst`` returns ``body``
    itself, and a term without ``v`` free is kept as it is, so the result
    shares those parts (and their display names) with ``body``.
    """
    if not isinstance(replacement, Dist):
        raise LambError("replacement must be a Dist")
    if v not in body.free_names():
        return body
    parts = []
    for t, n in body._ints:
        if isinstance(t, Var) and t.name == v:
            parts.append((n, replacement))
        else:
            parts.append((n, _subst_term(t, v, replacement)))
    return mixture(parts, body._den)


def _subst_term(t, v, replacement):
    # A free occurrence of v in term position only happens at the
    # distribution level, which subst() splices; a binder of v or a term
    # without v free is unchanged.
    if v not in t.free_names():
        return t
    if isinstance(t, App):
        return App(subst(t.fun, v, replacement), subst(t.arg, v, replacement))
    if isinstance(t, Abs):
        if t.binder in replacement.free_names():
            avoid = set(replacement.free_names())
            avoid |= t.body.free_names()
            avoid.add(v)
            b = fresh_name(avoid)
            renamed = subst(t.body, t.binder, unit(Var(b)))
            return Abs(b, subst(renamed, v, replacement))
        return Abs(t.binder, subst(t.body, v, replacement))
    raise LambError("not a term: %r" % (t,))


# ---------------------------------------------------------------------------
# Printer

def print_term(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return "\\%s. %s" % (t.binder, print_dist(t.body))
    if isinstance(t, App):
        # flatten the left-associated spine for display
        parts = [_print_atom(t.arg)]
        fun = t.fun
        while True:
            inner = fun.point()
            if isinstance(inner, App):
                parts.append(_print_atom(inner.arg))
                fun = inner.fun
            else:
                parts.append(_print_atom(fun))
                break
        return " ".join(reversed(parts))
    raise LambError("not a term: %r" % (t,))


def _print_atom(d):
    t = d.point()
    if isinstance(t, Var):
        return t.name
    return "(%s)" % print_dist(d)


def print_weight(w):
    """``str(w)`` for a weight.  Python refuses to print an int of more
    digits than ``sys.get_int_max_str_digits()`` (4300 by default), and
    exact arithmetic can build such a numerator or denominator from short
    input: that is a LambError, not a fault of the workbench."""
    try:
        return str(w)
    except ValueError as exc:
        raise LambError("number out of range: a weight too long to print") from exc


def print_dist(d, explicit=False):
    """Deterministic concrete syntax for a distribution of either term
    world; its terms print through their ``repr`` (``print_term`` here).

    A one-entry distribution of weight 1 prints as the bare term unless
    ``explicit`` is set, in which case the braced form with weights is
    always used.  Output round-trips through ``parse`` (``parse_fin`` for
    the approximants' ``FinDist``).
    """
    if d.is_empty():
        return "{}"
    t = d.point()
    if not explicit and t is not None:
        return repr(t)
    return "{%s}" % ", ".join("%s: %r" % (print_weight(w), t) for t, w in d.entries())


# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>--[^\n]*)
      | (?P<number>\d+\.\d+|\d+)
      | (?P<name>[A-Za-z_#][A-Za-z0-9_'#]*)
      | (?P<punct>[\\.(){},:/|])
    """,
    re.VERBOSE,
)


def _tokenize(src):
    tokens = []
    line, col = 1, 1
    pos = 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
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


class _Parser:
    # the distribution type that the weighted-sum rule builds
    dist_type = Dist

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg):
        _, text, line, col = self.peek()
        raise ParseError(msg + (" (got %r)" % text if text else " (got end of input)"), line, col)

    def expect(self, text):
        kind, t, line, col = self.peek()
        if t != text:
            self.fail("expected %r" % text)
        return self.next()

    def at(self, text):
        return self.peek()[1] == text

    def at_kind(self, kind):
        return self.peek()[0] == kind

    def parse_nested(self, rule):
        """Run the recursive ``rule``; input nested deeper than the
        interpreter's recursion limit is a ParseError, not a crash."""
        try:
            return rule()
        except RecursionError:
            _, _, line, col = self.peek()
            raise ParseError("nesting too deep", line, col) from None

    # dist ::= term | '{' weight ':' term (',' weight ':' term)* '}' | '{}'
    def dist(self):
        if self.at("{"):
            _, _, line, col = self.next()
            if self.at("}"):
                self.next()
                return self.dist_type()
            pairs = []
            while True:
                w = self.weight()
                self.expect(":")
                t = self.term()
                pairs.append((t, w))
                if self.at(","):
                    self.next()
                    continue
                self.expect("}")
                break
            try:
                return self.dist_type(pairs)
            except MassError:
                # weight() already refused every weight outside [0, 1]
                raise ParseError("weights sum above 1", line, col) from None
        return self.dist_type(((self.term(), 1),), 1)

    # weight ::= INT '/' INT | DECIMAL | INT
    def weight(self):
        if not self.at_kind("number"):
            self.fail("expected a weight")
        _, text, line, col = self.next()
        try:
            if "." in text:
                w = Fraction(text)
            elif self.at("/"):
                self.next()
                if not self.at_kind("number"):
                    self.fail("expected a denominator")
                _, den, _, _ = self.next()
                if "." in den or int(den) == 0:
                    raise ParseError("bad denominator %r" % den, line, col)
                w = Fraction(int(text), int(den))
            else:
                w = Fraction(int(text))
        except ValueError:
            # int() refuses a numeral longer than sys.get_int_max_str_digits()
            raise ParseError("number out of range", line, col) from None
        if w > 1:
            raise ParseError("weight %s exceeds 1" % w, line, col)
        return w

    # term ::= '\' var '.' dist | atom atom+ | var
    def term(self):
        if self.at("\\"):
            self.next()
            if not self.at_kind("name"):
                self.fail("expected a binder name")
            _, name, _, _ = self.next()
            self.expect(".")
            return Abs(name, self.dist())
        atoms = [self.atom()]
        while self.at_kind("name") or self.at("("):
            atoms.append(self.atom())
        if len(atoms) == 1:
            t = atoms[0].point()
            if t is not None:
                return t
            self.fail("a parenthesized distribution is not a term by itself")
        t = App(atoms[0], atoms[1])
        for a in atoms[2:]:
            t = App(unit(t), a)
        return t

    # atom ::= var | '(' dist ')'
    def atom(self):
        if self.at_kind("name"):
            _, name, _, _ = self.next()
            return unit(Var(name))
        if self.at("("):
            self.next()
            d = self.dist()
            self.expect(")")
            return d
        self.fail("expected a variable or '('")


_PRELUDE_GUARD = 16


def expand_prelude(src, prelude):
    """Textually substitute prelude names (parenthesized) before parsing.

    Definitions may refer to other prelude names; expansion iterates to a
    fixpoint with a small guard against recursive definitions.
    """
    for _ in range(_PRELUDE_GUARD):
        changed = False
        for name, body in prelude.items():
            pat = r"(?<![A-Za-z0-9_'#])%s(?![A-Za-z0-9_'#])" % re.escape(name)
            repl = "(%s)" % body
            new = re.sub(pat, lambda _m: repl, src)
            if new != src:
                src = new
                changed = True
        if not changed:
            return src
    raise LambError("prelude expansion did not terminate (recursive definition?)")


def parse(src, prelude=None):
    """Parse concrete syntax into a canonical distribution.

    ``prelude`` maps names to replacement source text; pass an empty dict
    to disable prelude resolution.  Defaults to the bundled prelude.
    """
    if prelude is None:
        from .prelude import DEFAULT_PRELUDE

        prelude = DEFAULT_PRELUDE
    if prelude:
        src = expand_prelude(src, prelude)
    p = _Parser(_tokenize(src))
    d = p.parse_nested(p.dist)
    if not p.at_kind("eof"):
        p.fail("trailing input after distribution")
    return d
