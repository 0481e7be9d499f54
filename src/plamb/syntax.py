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
(``plamb.approximants``): a node defines only its key under binders, its
free names and its text.

Weights are exact.  A distribution holds them as positive int numerators
over one int denominator, the least common denominator of its weights, so
equal distributions hold equal numbers; scaling and summing distributions
(``mixture``) is int arithmetic, and ``Fraction`` weights are built only at
the edge, when asked, and never stored: ``entries()``, ``weight_of``,
``mass()``, parsing and printing.  A distribution's canonical form is a
``DistKey``: its sorted (term key, numerator) pairs and the denominator,
with a hash computed once, when the key is built (nested keys contribute
their cached hash).  Keys order weights by exact value, by
cross-multiplication when denominators differ.  Outside any binder a term's
key reuses its operands' keys, so the key of an application ``f a`` is
``("a", f.canon(), a.canon())`` and costs O(1).  Most distributions are
built from distinct terms already in canonical order: construction checks
that in one pass, or skips it where the library builds them in that order.
Machine-generated names live in the reserved ``#`` namespace, which the
parser rejects.

All values are immutable after construction and safe to share between
threads; every function here is pure.  The cache slots (a node's key and
free names, a distribution's free names, an application's head reduct, a
variable's or application's whnf view, a ``Dist``'s last evolution, its
value split and its last ``ret`` block, a ``FinDist``'s embedding) are
written from the object alone, and a given key always yields the same
value, so writing one is idempotent: concurrent threads at worst compute it
twice.  A slot lives as long as its object; an application's head reduct
holds the terms it reduces to, whose own slots hold theirs, so a term keeps
alive the part of its trajectory that has been stepped.  ``names_alike``
tells whether two terms with equal keys also print the same, so that one
may stand for the other.

``parse`` resolves a prelude name to its definition: the prelude's table,
``_Definitions``, keeps each definition's parse and whether a use needs
fresh parts of it.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

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
    if not isinstance(name, str) or not _valid_name(name):
        raise LambError("invalid variable name: %r" % (name,))
    return name


@functools.lru_cache(maxsize=1024)
def _valid_name(name):
    """Whether the string ``name`` is a user identifier or a machine symbol,
    remembered for the names met most recently (bounded, like
    ``_name_set``, so hostile input cannot grow it without limit)."""
    return bool(_USER_NAME_RE.match(name) or _MACHINE_NAME_RE.match(name))


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
    ``_text()`` is its concrete syntax, uncached.
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

    def __repr__(self):
        return self._text()


class Term(Node):
    """Base class of the three term forms; equality is alpha-equivalence."""

    __slots__ = ()


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
    # _view caches plamb.reduction.whnf_view's answer; False until then
    __slots__ = ("name", "_view")

    def __init__(self, name):
        self.name = check_name(name)
        self._canon = self._fn = None
        self._view = False

    def _key(self, env, depth):
        return _name_key(self.name, env, depth)

    def _free(self):
        return _name_set(self.name)

    def _text(self):
        return self.name


@functools.lru_cache(maxsize=1024)
def _name_set(name):
    """The free-name set ``{name}``, one object shared by the variables of
    that name (bounded, so hostile input cannot grow it without limit)."""
    return frozenset((name,))


class Abs(Term):
    __slots__ = ("binder", "body")

    def __init__(self, binder, body):
        self.binder = check_name(binder)
        if not isinstance(body, Dist):
            raise LambError("abstraction body must be a Dist")
        self.body = body
        self._canon = self._fn = None

    def _key(self, env, depth):
        inner = dict(env)
        inner[self.binder] = depth
        return ("l", _canon_dist(self.body, inner, depth + 1))

    def _free(self):
        fn = self.body.free_names()
        return fn - {self.binder} if self.binder in fn else fn

    def _text(self):
        return "\\%s. %s" % (self.binder, print_dist(self.body))


class App(Term):
    # _step caches the head reduct for plamb.reduction.head_step, _view
    # whnf_view's answer (a spine, or None when reducible; False until then)
    __slots__ = ("fun", "arg", "_step", "_view")

    def __init__(self, fun, arg):
        if not isinstance(fun, Dist) or not isinstance(arg, Dist):
            raise LambError("application operands must be Dists")
        self.fun = fun
        self.arg = arg
        self._canon = self._fn = self._step = None
        self._view = False

    def _key(self, env, depth):
        return ("a", _canon_dist(self.fun, env, depth), _canon_dist(self.arg, env, depth))

    def _free(self):
        return _union(self.fun.free_names(), self.arg.free_names())

    def _text(self):
        # flatten the left-associated spine for display
        parts, t = [], self
        while isinstance(t, App):
            parts.append(_print_atom(t.arg))
            fun = t.fun
            t = fun.point()
        parts.append(_print_atom(fun))
        return " ".join(reversed(parts))


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
    weights are built on each call, only at the edge: ``entries()``,
    ``weight_of``, ``mass()``, parsing and printing.  Alpha-equivalent keys
    are merged by weight addition at construction, zero-weight entries are
    dropped, and the canonical order makes iteration, printing and hashing
    deterministic and alpha-invariant.  The canonical form is a
    ``DistKey`` whose hash is computed once, so equality, hashing and use
    as a memo key are cheap.  Two distributions are equal when they are of
    the same concrete type and have equal keys.

    Two ways in: ``_merge``, behind the constructors, checks and orders any
    input; ``_canonical`` takes entries in canonical order, unchecked.
    """

    __slots__ = ("_ints", "_den", "_total", "_canon", "_fn")

    def _merge(self, pairs, den, term_type, what):
        """Build this distribution, checked, from (term, numerator) pairs
        over the int ``den``, or, when ``den`` is None, from (term, weight)
        pairs read once over the lcm of the weights' denominators.

        Alpha-equivalent terms (equal ``canon()``) add their numerators,
        the first one seen is kept for display, and zero weights are
        dropped.  Most callers pass distinct terms already in canonical
        order; that is checked in the one pass over the pairs, and only
        when it fails are the entries sorted once, by a stable sort of
        their positions on the keys, and equal neighbours added up.  One
        gcd of ``den`` and the numerators then reduces them to the least
        common denominator.  Raises MassError above total mass 1.

        A one-entry list or tuple of positive weight is checked and reduced
        on its own, with the same result as the general path.  The way in
        for outside input and unordered builds; see ``_canonical``.
        """
        if den is None:
            if isinstance(pairs, dict):
                pairs = pairs.items()
            # one pass checks each weight as check_weight does and builds
            # the lcm; a second scales the numerators to it
            read, den = [], 1
            for t, w in pairs:
                if not isinstance(w, Fraction):
                    w = Fraction(w)
                n, d = w.numerator, w.denominator
                if not 0 <= n <= d:
                    raise _mass_error("weight%s outside [0, 1]", n, d)
                read.append((t, n, d))
                if den % d:
                    den = math.lcm(den, d)
            pairs = [(t, n * (den // d)) for t, n, d in read]
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
            self._fn = None
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
            # one stable sort puts a class's terms side by side in the
            # order seen; they add up under the first
            shown, seen, ns = display, keys, nums
            display, keys, nums, prev = [], [], [], ()
            for i in sorted(range(len(seen)), key=seen.__getitem__):
                key = seen[i]
                if key == prev:
                    nums[-1] += ns[i]
                else:
                    display.append(shown[i])
                    keys.append(key)
                    nums.append(ns[i])
                    prev = key
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
        self._fn = None

    @classmethod
    def _canonical(cls, ints, keys, den, total):
        """A distribution of entries known to be canonical, unchecked:
        (term, positive int numerator) pairs ``ints`` of distinct classes in
        strictly increasing key order, their class ``keys``, and ``total``,
        the numerators' sum, at most ``den``.  Only the common factor of
        ``den`` and the numerators is taken out; subclass caches start unset."""
        g = math.gcd(den, total)
        if g > 1:
            # a factor of every numerator divides their sum
            g = math.gcd(g, *[n for _, n in ints])
            if g > 1:
                den //= g
                total //= g
                ints = [(t, n // g) for t, n in ints]
        d = cls.__new__(cls)
        d._ints = ints = tuple(ints)
        d._canon = DistKey(tuple([(k, n) for k, (_, n) in zip(keys, ints)]), den)
        d._den = den
        d._total = total
        d._fn = None
        for name in cls.__slots__:
            setattr(d, name, None)
        return d

    def entries(self):
        """Entries as (term, weight) pairs in canonical order, with
        ``Fraction`` weights built on each call."""
        den = self._den
        return tuple([(t, Fraction(n, den)) for t, n in self._ints])

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

    def weight_of(self, t):
        """Weight of the alpha-equivalence class of ``t`` (0 if absent)."""
        n = dict(self._canon.pairs).get(t.canon())
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

    # _evolved caches (fuel, report) for plamb.reduction.evolve, _split
    # the value split of plamb.lts.split_values, _ret (sym, ret block) for
    # plamb.lts.ret_block
    __slots__ = ("_evolved", "_split", "_ret")

    def __init__(self, pairs=(), den=None):
        self._merge(pairs, den, Term, "distribution")
        self._evolved = self._split = self._ret = None


EMPTY = Dist()


def unit(t):
    """The point distribution {1: t}: the term check, then its one entry,
    of weight 1 over denominator 1, filled directly."""
    if not isinstance(t, Term):
        raise LambError("distribution key must be a Term: %r" % (t,))
    d = Dist.__new__(Dist)
    d._ints = ((t, 1),)
    d._canon = DistKey(((t.canon(), 1),), 1)
    d._den = d._total = 1
    d._fn = d._evolved = d._split = d._ret = None
    return d


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
    """Scale every weight by ``p``, dropping entries that become zero; a
    term stands for its point distribution.  ``d`` is scaled in its own key
    order (``Distribution._canonical``)."""
    p = check_weight(p)
    if p == 0:
        return EMPTY
    if not isinstance(d, Dist):
        d = unit(d)
    a = p.numerator
    return Dist._canonical([(t, a * n) for t, n in d._ints], [k for k, _ in d._canon.pairs],
                           d._den * p.denominator, d._total * a)


def dist_leq(a, b):
    """True iff ``b`` extends ``a``: pointwise weight of a <= weight in b."""
    bidx, da, db = dict(b._canon.pairs), a._den, b._den
    for k, n in a._canon.pairs:
        if n * db > bidx.get(k, 0) * da:
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
        # an occurrence of v in term position is spliced here, at the
        # distribution level; a term without v free is unchanged
        if isinstance(t, Var):
            if t.name == v:
                t = replacement
        elif v not in t.free_names():
            pass
        elif isinstance(t, App):
            t = App(subst(t.fun, v, replacement), subst(t.arg, v, replacement))
        elif isinstance(t, Abs):
            if t.binder in replacement.free_names():
                avoid = set(replacement.free_names())
                avoid |= t.body.free_names()
                avoid.add(v)
                b = fresh_name(avoid)
                renamed = subst(t.body, t.binder, unit(Var(b)))
                t = Abs(b, subst(renamed, v, replacement))
            else:
                t = Abs(t.binder, subst(t.body, v, replacement))
        else:
            raise LambError("not a term: %r" % (t,))
        parts.append((n, t))
    return mixture(parts, body._den)


# ---------------------------------------------------------------------------
# Printer

def print_term(t):
    """Concrete syntax of a term of either world."""
    return t._text()


def _print_atom(d):
    """``d`` as a spine atom: bare when a weight-1 point whose text is one
    token (a variable, ``_|_``, an argumentless spine), else in parentheses."""
    t = d.point()
    if t is None:
        return "(%s)" % print_dist(d)
    # not through print_dist, so that a nesting level costs two frames
    text = t._text()
    return text if " " not in text else "(%s)" % text


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
    world; each of its terms prints its own text.

    A one-entry distribution of weight 1 prints as the bare term unless
    ``explicit`` is set, in which case the braced form with weights is
    always used.  Output round-trips through ``parse`` (``parse_fin`` for
    the approximants' ``FinDist``).
    """
    if d.is_empty():
        return "{}"
    t = d.point()
    if not explicit and t is not None:
        return t._text()
    return "{%s}" % ", ".join("%s: %s" % (print_weight(w), t._text()) for t, w in d.entries())


# ---------------------------------------------------------------------------
# Lexer / parser

# A match is a token and the gap before it, whose comments end in a newline
# or at the end, so it never backtracks into one; ``_|_`` may hold gaps.  An
# error token takes the rest of the text, so it comes last before ``eof``;
# an ``eof`` that takes a gap is followed by an empty one, dropped here.
_GAP = r"\s*(?:--[^\n]*(?:\n|\Z)\s*)*"
_TOKEN_RE = re.compile(
    r"""%s(?:
        (?P<number>\d+\.\d+|\d+)
      | (?P<bottom>_%s\|%s_(?![A-Za-z0-9_'#]))
      | (?P<name>[A-Za-z_][A-Za-z0-9_'#]*)
      | (?P<punct>[\\.(){},:/])
      | (?P<eof>\Z)
      | (?P<reserved>\#[\s\S]*)
      | (?P<bad>[\s\S]+))
    """ % (_GAP, _GAP, _GAP),
    re.VERBOSE,
)


def _tokenize(src):
    """The tokens of ``src`` as (kind, text, offset) triples, the last of
    kind ``eof``; an offset becomes a line and a column only for an error
    (``_line_col``)."""
    tokens = [(k := m.lastgroup, m[k], m.start(k)) for m in _TOKEN_RE.finditer(src)]
    if len(tokens) > 1:
        kind, text, pos = tokens[-2]
        if kind == "eof":
            tokens.pop()
        elif kind == "reserved":
            raise ReservedNameError("names beginning with '#' are reserved", *_line_col(src, pos))
        elif kind == "bad":
            raise ParseError("unexpected character %r" % text[0], *_line_col(src, pos))
    return tokens


def _line_col(src, pos):
    """The 1-based line and column of offset ``pos`` in ``src``."""
    return src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)


class _Parser:
    def __init__(self, tokens, src, definitions=None, resolving=(), bottom=None):
        self.tokens = tokens
        self.src = src
        self.i = 0
        # the prelude's _Definitions, or None, and the names whose
        # definitions are being parsed
        self.definitions = definitions
        self.resolving = resolving
        # what the atom _|_ stands for; None when the grammar has no bottom
        self.bottom = bottom

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg, pos):
        return ParseError(msg, *_line_col(self.src, pos))

    def fail(self, msg):
        _, text, pos = self.peek()
        raise self.error(msg + (" (got %r)" % text if text else " (got end of input)"), pos)

    def expect(self, text):
        if self.peek()[1] != text:
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
            raise self.error("nesting too deep", self.peek()[2]) from None

    def whole(self):
        """The distribution that is the whole of the input."""
        d = self.parse_nested(self.dist)
        if not self.at_kind("eof"):
            self.fail("trailing input after distribution")
        return d

    def defined(self, name):
        return self.definitions is not None and name in self.definitions.source

    # dist ::= term | '{' weight ':' term (',' weight ':' term)* '}' | '{}'
    def dist(self):
        if self.at("{"):
            pos = self.next()[2]
            if self.at("}"):
                self.next()
                return Dist()
            entries = []
            while True:
                n, d = self.weight()
                self.expect(":")
                entries.append((self.term(), n, d))
                if self.at(","):
                    self.next()
                    continue
                self.expect("}")
                break
            den = math.lcm(*[d for _, _, d in entries])
            try:
                return Dist([(t, n * (den // d)) for t, n, d in entries], den)
            except MassError:
                # weight() already refused every weight outside [0, 1]
                raise self.error("weights sum above 1", pos) from None
        return Dist(((self.term(), 1),), 1)

    # weight ::= INT '/' INT | DECIMAL | INT, as (numerator, denominator)
    def weight(self):
        if not self.at_kind("number"):
            self.fail("expected a weight")
        _, text, pos = self.next()
        try:
            if "." in text:
                # as Fraction reads a decimal: one int() a side
                whole, _, frac = text.partition(".")
                den = 10 ** len(frac)
                num = int(whole) * den + int(frac)
            elif self.at("/"):
                self.next()
                if not self.at_kind("number"):
                    self.fail("expected a denominator")
                den = self.next()[1]
                if "." in den or int(den) == 0:
                    raise self.error("bad denominator %r" % den, pos)
                num, den = int(text), int(den)
            else:
                num, den = int(text), 1
            if num > den:
                # str() refuses a weight of too many digits: out of range
                raise self.error("weight %s exceeds 1" % Fraction(num, den), pos)
        except ValueError:
            # int() refuses a numeral longer than sys.get_int_max_str_digits()
            raise self.error("number out of range", pos) from None
        return num, den

    # term ::= '\' var '.' dist | atom atom+ | var
    def term(self):
        if self.at("\\"):
            self.next()
            if not self.at_kind("name") or self.defined(self.peek()[1]):
                self.fail("expected a binder name")
            name = self.next()[1]
            self.expect(".")
            return Abs(name, self.dist())
        atoms = [self.atom()]
        while self.peek()[0] in ("name", "bottom") or self.at("("):
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

    # atom ::= var | '(' dist ')' | '_|_' (when the grammar has bottom)
    def atom(self):
        if self.at_kind("name"):
            _, name, pos = self.next()
            if self.defined(name):
                return self.definitions.use(name, self.resolving, self.src, pos)
            return unit(Var(name))
        if self.at("("):
            self.next()
            d = self.dist()
            self.expect(")")
            return d
        if self.at_kind("bottom") and self.bottom is not None:
            self.next()
            return self.bottom
        self.fail("expected a variable or '('")


def parse(src, prelude=None):
    """Parse concrete syntax into a canonical distribution.

    ``prelude`` maps names to definitions, as source text; pass an empty
    dict to disable prelude resolution.  Defaults to the bundled prelude.
    A prelude name written as an atom stands for its definition (see
    ``_Definitions``) and may not be bound.  Error positions refer to the
    text as written.
    """
    if prelude is None:
        from .prelude import DEFAULT_PRELUDE

        prelude = DEFAULT_PRELUDE
    tokens = _tokenize(src)
    defs = _definitions_of(tuple(prelude.items())) if prelude else None
    return _Parser(tokens, src, defs).whole()


class _Definitions:
    """The definitions of one prelude, all parsed when the table is built.
    The table keeps each definition's parse and whether a use needs fresh
    parts of it.  The last prelude's table is kept (``_definitions_of``),
    and ``parse`` fetches it before reading its source, so a table is built
    at the bottom of the stack of the first parse that uses its prelude:
    how deep a program may nest does not depend on earlier parses.  A
    definition that does not parse breaks nothing until a source names it;
    each use then reports its error at the use.

    A use shares the parsed definition, except for every application in
    it that mentions no binder of the definition, which is built afresh at
    each use together with every node above it (``_fresh``).  Weak-head
    reduction can reach such an application in place (``subst`` keeps a
    part in which the substituted name is not free), and an application
    keeps its head reduct, so a shared one would tie the program's reducts
    to this table; an application that mentions a binder of the definition
    is rebuilt by the substitution for that binder before reduction reaches
    it.  A definition that holds no such application is returned itself.
    For the bundled prelude only the top-level applications of ``Y`` and
    ``omega`` are built afresh.  Entries are only ever added, each from its
    source text alone, so concurrent parses at worst parse a definition
    twice.
    """

    __slots__ = ("source", "parsed")

    def __init__(self, pairs):
        self.source = dict(pairs)
        # name -> (parsed definition, whether a use needs fresh parts)
        self.parsed = {}
        for name in self.source:
            try:
                self.use(name, (), "", 0)
            except LambError:
                pass

    def use(self, name, resolving, src, pos):
        """The definition of ``name``, used at offset ``pos`` of ``src``
        while the definitions named in ``resolving`` are being parsed."""
        entry = self.parsed.get(name)
        if entry is None:
            if name in resolving:
                raise LambError("prelude expansion did not terminate (recursive definition?)")
            text = self.source[name]
            try:
                d = _Parser(_tokenize(text), text, self, resolving + (name,)).whole()
            except ParseError as exc:
                msg = "in the definition of %s: %s" % (name, exc)
                raise ParseError(msg, *_line_col(src, pos)) from None
            entry = self.parsed[name] = (d, _fresh(d, frozenset()) is not d)
        d, fresh = entry
        return _fresh(d, frozenset()) if fresh else d


@functools.lru_cache(maxsize=1)
def _definitions_of(pairs):
    """The table of the prelude with these (name, source) pairs."""
    return _Definitions(pairs)


def _fresh(d, bound):
    """``d`` with every application that mentions no name of ``bound`` (the
    definition's binders around ``d``) built afresh, together with every
    node above it; ``d`` itself when it holds no such application."""
    pairs, copied = [], False
    for t, n in d._ints:
        if isinstance(t, Abs):
            body = _fresh(t.body, bound | {t.binder})
            if body is not t.body:
                t = Abs(t.binder, body)
                copied = True
        elif isinstance(t, App):
            fun, arg = _fresh(t.fun, bound), _fresh(t.arg, bound)
            if fun is not t.fun or arg is not t.arg or bound.isdisjoint(t.free_names()):
                t = App(fun, arg)
                copied = True
        pairs.append((t, n))
    return Dist(pairs, d._den) if copied else d
