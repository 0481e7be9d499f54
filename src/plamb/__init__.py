"""Workbench for a probabilistic lazy lambda calculus.

Evaluate weighted terms under a lazy reduction strategy, decide
probabilistic lifting of relations by exact max-flow, check bounded open
simulation and bisimulation with counterexample witnesses, and generate
finite approximants of program behavior.
"""

from .syntax import (
    Abs,
    App,
    Dist,
    EMPTY,
    LambError,
    MassError,
    ParseError,
    ReservedNameError,
    Term,
    Var,
    dist_leq,
    dist_scale,
    dist_union,
    free_names,
    parse,
    print_dist,
    print_term,
    subst,
    unit,
)

__all__ = [
    "Abs",
    "App",
    "Dist",
    "EMPTY",
    "LambError",
    "MassError",
    "ParseError",
    "ReservedNameError",
    "Term",
    "Var",
    "dist_leq",
    "dist_scale",
    "dist_union",
    "free_names",
    "parse",
    "print_dist",
    "print_term",
    "subst",
    "unit",
]

__version__ = "0.1.0"
