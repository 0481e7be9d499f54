"""Terms, weighted term distributions, and the concrete syntax.

The calculus has three term forms: variables, abstractions whose body is a
distribution, and applications of a distribution to a distribution.  A
distribution (``Dist``) is a finite map from terms to exact rational weights
with total mass at most 1; missing mass stands for divergence.

Identity of terms and of distributions is alpha-equivalence: keys are
merged by a de-Bruijn-style canonical form while the originally written
binder names are kept for display.  ``Node`` and ``Distribution`` hold this
identity once for both term worlds, the calculus's and the approximants'
(``plamb.approximants``): a node defines only its key under binders and
its free names.  A distribution's canonical form is a ``DistKey``: its
sorted (term key, weight) pairs with a hash computed once, when the key is
built, from the term keys (nested keys contribute their cached hash) and
each weight's numerator and denominator.  Outside any binder a term's key
reuses its operands' keys, so the key of an application ``f a`` is
``("a", f.canon(), a.canon())`` and costs O(1).  Machine-generated names
live in the reserved ``#`` namespace, which the parser rejects.

All values are immutable after construction and safe to share between
threads; every function here is pure.  The cache slots (a node's key and
free names, an abstraction's last ``ret`` target, a ``Dist``'s last
evolution, a ``FinDist``'s embedding) are written from the object alone,
and a given key always yields the same value, so writing one is
idempotent: concurrent threads at worst compute it twice.
"""

from __future__ import annotations

import re
from fractions import Fraction

Weight = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

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
        raise MassError("weight %s outside [0, 1]" % w)
    return w


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


def _name_key(name, env):
    """Key of a variable occurrence: its binding depth if bound, else its
    name under a distinct tag, so keys sort without mixed-type comparisons."""
    lvl = env.get(name)
    return ("f", name) if lvl is None else ("b", lvl)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = check_name(name)
        self._canon = self._fn = None

    def _key(self, env, depth):
        return _name_key(self.name, env)

    def _free(self):
        return frozenset((self.name,))


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
        return self.body.free_names() - {self.binder}


class App(Term):
    __slots__ = ("fun", "arg")

    def __init__(self, fun, arg):
        if not isinstance(fun, Dist) or not isinstance(arg, Dist):
            raise LambError("application operands must be Dists")
        self.fun = fun
        self.arg = arg
        self._canon = self._fn = None

    def _key(self, env, depth):
        return ("a", _canon_dist(self.fun, env, depth), _canon_dist(self.arg, env, depth))

    def _free(self):
        return self.fun.free_names() | self.arg.free_names()


def _canon_dist(d, env, depth):
    if not env:
        # outside any binder the key is the one d built for itself
        return d._canon
    return DistKey(
        tuple(sorted((t._key(env, depth), w) for t, w in d.entries()))
    )


class DistKey:
    """Canonical form of a distribution: its (term key, weight) pairs in
    canonical order.

    The hash is computed once, at construction, from the term keys and
    each weight's (numerator, denominator); a nested key contributes its
    cached hash, so hashing a key costs O(width), not O(size).  Keys order
    by their pairs, so weights compare by exact value.
    """

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs):
        self.pairs = pairs
        self._hash = hash(tuple([(k, w.numerator, w.denominator) for k, w in pairs]))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DistKey):
            return NotImplemented
        return self._hash == other._hash and self.pairs == other.pairs

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __repr__(self):
        return "DistKey(%r)" % (self.pairs,)


def merge_entries(pairs, term_type, what):
    """Merge weighted terms into a distribution's parts.

    Alpha-equivalent terms (equal ``canon()``) add their weights, the first
    one seen is kept for display, and zero weights are dropped.  Returns
    ``(entries, index, key, mass)``: the (term, weight) entries in
    canonical order, the map from term key to weight, the ``DistKey`` and
    the total mass.  Raises MassError above total mass 1.
    """
    if isinstance(pairs, dict):
        pairs = pairs.items()
    merged = {}
    display = []
    for t, w in pairs:
        if not isinstance(t, term_type):
            raise LambError("%s key must be a %s: %r" % (what, term_type.__name__, t))
        w = check_weight(w)
        if w.numerator == 0:
            continue
        key = t.canon()
        old = merged.get(key)
        if old is None:
            merged[key] = w
            display.append(t)
        else:
            merged[key] = old + w
    mass = sum(merged.values(), ZERO)
    if mass.numerator > mass.denominator:
        raise MassError("total mass %s exceeds 1" % mass)
    keys = list(merged)
    weights = list(merged.values())
    order = sorted(range(len(keys)), key=keys.__getitem__)
    entries = tuple((display[i], weights[i]) for i in order)
    key = DistKey(tuple((keys[i], weights[i]) for i in order))
    return entries, merged, key, mass


# ---------------------------------------------------------------------------
# Distributions


class Distribution:
    """Base class of the distributions of both term worlds: ``Dist`` and
    the approximants' ``FinDist``.

    Alpha-equivalent keys are merged by weight addition at construction,
    zero-weight entries are dropped, and entries are kept in canonical-key
    order, so iteration, printing and hashing are deterministic and
    alpha-invariant.  The canonical form is a ``DistKey`` whose hash is
    computed once, so equality, hashing and use as a memo key are cheap.
    Two distributions are equal when they are of the same concrete type
    and have equal keys.
    """

    __slots__ = ("_entries", "_index", "_canon", "_mass", "_fn")

    def entries(self):
        """Entries as (term, weight) pairs in canonical order."""
        return self._entries

    def support(self):
        return tuple(t for t, _ in self._entries)

    def mass(self):
        return self._mass

    def canon(self):
        return self._canon

    def weight_of(self, t):
        """Weight of the alpha-equivalence class of ``t`` (0 if absent)."""
        return self._index.get(t.canon(), ZERO)

    def free_names(self):
        if self._fn is None:
            fn = frozenset()
            for t, _ in self._entries:
                fn |= t.free_names()
            self._fn = fn
        return self._fn

    def is_empty(self):
        return not self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        return type(other) is type(self) and other._canon == self._canon

    def __hash__(self):
        return self._canon._hash

    def __repr__(self):
        return print_dist(self)


class Dist(Distribution):
    """Finite subprobability distribution over terms."""

    # _evolved caches (fuel, report) for plamb.reduction.evolve
    __slots__ = ("_evolved",)

    def __init__(self, pairs=()):
        self._entries, self._index, self._canon, self._mass = merge_entries(
            pairs, Term, "distribution"
        )
        self._fn = self._evolved = None


EMPTY = Dist()


def unit(t):
    """The point distribution {1: t}."""
    return Dist(((t, ONE),))


def free_names(d):
    """Free names of a distribution or term."""
    return d.free_names()


def dist_union(a, b):
    """Pointwise weight addition; raises MassError above total mass 1."""
    return Dist(tuple(a.entries()) + tuple(b.entries()))


def dist_scale(p, d):
    """Scale every weight by ``p``, dropping entries that become zero."""
    p = check_weight(p)
    if p == 0:
        return EMPTY
    return Dist(tuple((t, p * w) for t, w in d.entries()))


def dist_leq(a, b):
    """True iff ``b`` extends ``a``: pointwise weight of a <= weight in b."""
    bidx = b._index
    for k, w in a._index.items():
        if w > bidx.get(k, ZERO):
            return False
    return True


def dist_way_below(a, b):
    """Strict pointwise domination: every entry of ``a`` weighs strictly
    less than its class does in ``b``.  Vacuously true for empty ``a``."""
    bidx = b._index
    for k, w in a._index.items():
        if w >= bidx.get(k, ZERO):
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
    pairs = []
    for t, w in body.entries():
        if isinstance(t, Var) and t.name == v:
            for rt, rw in replacement.entries():
                pairs.append((rt, w * rw))
        else:
            pairs.append((_subst_term(t, v, replacement), w))
    return Dist(pairs)


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
            e = fun.entries()
            if len(e) == 1 and e[0][1] == 1 and isinstance(e[0][0], App):
                inner = e[0][0]
                parts.append(_print_atom(inner.arg))
                fun = inner.fun
            else:
                parts.append(_print_atom(fun))
                break
        return " ".join(reversed(parts))
    raise LambError("not a term: %r" % (t,))


def _print_atom(d):
    e = d.entries()
    if len(e) == 1 and e[0][1] == 1 and isinstance(e[0][0], Var):
        return e[0][0].name
    return "(%s)" % print_dist(d)


def print_dist(d, explicit=False):
    """Deterministic concrete syntax for a distribution of either term
    world; its terms print through their ``repr`` (``print_term`` here).

    A one-entry distribution of weight 1 prints as the bare term unless
    ``explicit`` is set, in which case the braced form with weights is
    always used.  Output round-trips through ``parse`` (``parse_fin`` for
    the approximants' ``FinDist``).
    """
    e = d.entries()
    if not e:
        return "{}"
    if not explicit and len(e) == 1 and e[0][1] == 1:
        return repr(e[0][0])
    return "{%s}" % ", ".join("%s: %r" % (w, t) for t, w in e)


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
            if sum(w for _, w in pairs) > 1:
                raise ParseError("weights sum above 1", line, col)
            return self.dist_type(pairs)
        return self.dist_type(((self.term(), ONE),))

    # weight ::= INT '/' INT | DECIMAL | INT
    def weight(self):
        if not self.at_kind("number"):
            self.fail("expected a weight")
        _, text, line, col = self.next()
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
        d = atoms[0]
        if len(atoms) == 1:
            e = d.entries()
            if len(e) == 1 and e[0][1] == 1:
                return e[0][0]
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
