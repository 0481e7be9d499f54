"""Bundled prelude: definitions that the parser resolves by name.

A prelude name written as an atom stands for its definition;
``plamb.syntax._Definitions`` states when definitions are parsed and what
a use shares.  Error positions refer to the text as written, and an error
inside a definition names it.

The fixpoint combinator is Turing's: its unfolding ``Y t -> t (Y t)`` is
literal (two head reductions), so unfolding counts are predictable.  Prelude
names shadow plain variables of the same spelling and may not be bound;
programs that want a free variable should pick a name outside this list or
parse with ``prelude={}``.
"""

from __future__ import annotations

import re

from .syntax import LambError

# Order is cosmetic: definitions may refer to each other in any order as
# long as there is no cycle.
DEFAULT_PRELUDE = {
    "I": r"\x. x",
    "omega": r"(\x. x x) (\x. x x)",
    "Y": r"(\z. \f. f (z z f)) (\z. \f. f (z z f))",
    "tt": r"\t. \f. t",
    "ff": r"\t. \f. f",
    "xor": r"\a. \b. a (b ff tt) b",
}

_LINE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\s*=\s*(.+)")


def parse_prelude(text, source):
    """Parse prelude text: one ``name = source-text`` per line, ``--``
    comments and blank lines ignored; ``source`` names the text in error
    messages."""
    prelude = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.fullmatch(line)
        if not m:
            raise LambError("%s:%d: bad prelude line" % (source, lineno))
        prelude[m.group(1)] = m.group(2).strip()
    return prelude
