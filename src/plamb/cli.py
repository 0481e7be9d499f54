"""Command-line front end.

Subcommands: eval, trace, lts, sim, bisim, lift, approx, normalize,
selftest.  Operands are inline expressions unless they name an existing
file (or end in ``.lam``), in which case the file's contents are parsed.
``selftest`` runs the laws of ``plamb.laws.battery`` and prints one PASS or
FAIL line per law.  Exit codes: 0 success / no counterexample, 1 refuted or
failed data condition (or a failed law), 2 usage, file, parse or
malformed-input errors, numbers out of range, and terms nested too deeply
for the recursion limit, 3 an internal error (any other exception, reported
on one ``error: internal error:`` line without a traceback).

The environment variable ``PLAMB_PRELUDE`` points at an alternative prelude
file (``name = source`` lines).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import laws
from .approximants import approx_check, approx_generate, parse_fin, print_fin_dist
from .approximants import embed  # unused here; perfbench/tracing.py rebinds it
from .lifting import FinSupportDist, lift_check_flow, lift_check_subsets
from .lts import available_labels, fresh_symbol, split_values, weak_max_transition
from .prelude import DEFAULT_PRELUDE, parse_prelude
from .reduction import evolve, step, vals
from .simulation import SimParams, bisim_check, sim_check
from .syntax import (
    Dist,
    LambError,
    parse,
    print_dist,
    print_weight,
)

TV_EPSILON = Fraction(1, 1024)


def _read_file(path):
    """The UTF-8 text of the file at ``path``; a file that cannot be read
    or decoded is a LambError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise LambError("cannot read %s: %s" % (path, exc.strerror or exc)) from exc
    except UnicodeDecodeError as exc:
        raise LambError("cannot read %s: not UTF-8 (%s)" % (path, exc.reason)) from exc


def _prelude():
    path = os.environ.get("PLAMB_PRELUDE")
    if path:
        return parse_prelude(_read_file(path), path)
    return DEFAULT_PRELUDE


def _load_operands(*texts):
    """The programs of ``texts``, each a file or inline source, parsed
    against one reading of the prelude, made when the first needs it."""
    prelude = functools.cache(_prelude)
    out = []
    for text in texts:
        if os.path.exists(text):
            text = _read_file(text)
        elif text.endswith(".lam"):
            raise LambError("file not found: %s" % text)
        out.append(parse(text, prelude=prelude()))
    return out


# the longest numeral read from outside: int() refuses a string of more
# than 4300 digits, and a longer number is no weight anyone writes
MAX_NUMERAL = 1000


def _check_numeral(text, what):
    """Refuse a numeral longer than MAX_NUMERAL characters, or with an
    exponent beyond 1000: expanding 1e-N takes time and memory that grow
    with N."""
    if len(text) > MAX_NUMERAL:
        raise LambError("%s: number out of range: %d characters" % (what, len(text)))
    if abs(int(text.lower().partition("e")[2] or 0)) > 1000:
        raise LambError("%s: number out of range: %s" % (what, text))


def _fraction(text, what):
    """An exact rational from command-line or JSON input, or a LambError.
    Every number from outside is read here or, for a JSON integer, checked
    by the same ``_check_numeral``.  A plain ``n`` or ``n/d`` of ASCII
    digits is read by ``int``, anything else by ``Fraction``'s parser."""
    if isinstance(text, bool):
        raise LambError("%s: not a rational number: %s" % (what, json.dumps(text)))
    try:
        if isinstance(text, str):
            _check_numeral(text, what)
            n, slash, d = text.partition("/")
            if text.isascii() and n.isdigit() and (d.isdigit() or not slash):
                return Fraction(int(n), int(d or 1))
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise LambError("%s: not a rational number: %r" % (what, text)) from exc


def _json_decimal(text):
    """A JSON decimal or constant read exactly from its text, never through
    a binary float, so that 0.3 is 3/10 and Infinity and NaN are refused."""
    return _fraction(text, "lift instance")


def _json_integer(text):
    """A JSON integer, refused when too long like any other numeral."""
    _check_numeral(text, "lift instance")
    return int(text)


def _dist_json(d):
    return {repr(t): print_weight(w) for t, w in d.entries()}


# ---------------------------------------------------------------------------
# Normalization report


class NormalizationReport:
    """Per-step normalized value distributions and their total-variation
    drift; convergence is flagged after three consecutive steps whose drift
    stays under 1/1024, and ``converged_at`` is the step at which the final
    normalized distribution first appeared."""

    __slots__ = ("rows", "converged", "converged_at")

    def __init__(self, rows, converged, converged_at):
        self.rows = rows
        self.converged = converged
        self.converged_at = converged_at


def total_variation(a, b):
    """Half the pointwise absolute weight difference over the union of the
    canonical supports, summed on the int numerators of both keys."""
    ka, kb = a.canon(), b.canon()
    da, db = ka.den, kb.den
    rest = dict(kb.pairs)
    total = sum([abs(n * db - rest.pop(k, 0) * da) for k, n in ka.pairs])
    total += sum(rest.values()) * da
    return Fraction(total, 2 * da * db)


def normalize(m, fuel):
    """Evolve step by step, renormalizing the value mass at each fuel step;
    raises on programs whose value mass stays zero throughout.

    Only the current distribution is held: each step replaces ``m``, since
    a term keeps its head reduct and a kept start would keep every step
    taken from it."""
    rows = []
    small_run = 0
    for s in range(1, fuel + 1):
        m = step(m)
        v = vals(m)
        mass = v.mass()
        if mass == 0:
            continue
        normalized = Dist((t, w / mass) for t, w in v.entries())
        tvd = total_variation(normalized, rows[-1][1]) if rows else None
        rows.append((s, normalized, tvd))
        if tvd is not None and tvd < TV_EPSILON:
            small_run += 1
            if small_run >= 3:
                break
        elif tvd is not None:
            small_run = 0
    if not rows:
        raise LambError("no value mass within %d steps" % fuel)
    final = rows[-1][1]
    converged = small_run >= 3
    converged_at = rows[-1][0]
    for s, d, _ in reversed(rows):
        if d == final:
            converged_at = s
        else:
            break
    return NormalizationReport(rows, converged, converged_at)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eval(args):
    d, = _load_operands(args.expr)
    report = evolve(d, args.fuel)
    if args.format == "json":
        print(json.dumps({
            "values": _dist_json(report.values),
            "mass": print_weight(report.values.mass()),
            "residual": print_weight(report.residual),
            "steps_used": report.steps_used,
            "converged": report.converged,
        }))
    else:
        print(print_dist(report.values, explicit=True))
    return 0


def _cmd_trace(args):
    # only the current distribution is held: a term keeps its head reduct,
    # so holding the parsed program would keep every step printed so far
    cur, = _load_operands(args.expr)
    for i in range(args.fuel + 1):
        v = vals(cur)
        print("%d\t%s\tvalue=%s\tresidual=%s" % (
            i, print_dist(cur), print_weight(v.mass()), print_weight(cur.mass() - v.mass())
        ))
        if v.mass() == cur.mass():
            break
        cur = step(cur)
    return 0


def _cmd_lts(args):
    d, = _load_operands(args.expr)
    report = evolve(d, args.fuel)
    print("tau\t%s\tresidual=%s" % (
        print_dist(report.values, explicit=True), print_weight(report.residual)
    ))
    sym = fresh_symbol(*split_values(report.values))
    for label in available_labels(report.values, sym):
        r = weak_max_transition(report.values, label, args.fuel)
        print("%s\t%s\tresidual=%s" % (
            label, print_dist(r.values, explicit=True), print_weight(r.residual)
        ))
    return 0


def _verdict_exit(verdicts):
    return 0 if all(v.holds for v in verdicts) else 1


def _cmd_sim(args):
    m, n = _load_operands(args.left, args.right)
    params = SimParams(args.depth, args.fuel, not args.no_slack)
    v = sim_check(m, n, params)
    if args.format == "json":
        print(json.dumps(v.to_dict()))
    else:
        print(repr(v))
    return _verdict_exit([v])


def _cmd_bisim(args):
    m, n = _load_operands(args.left, args.right)
    params = SimParams(args.depth, args.fuel, not args.no_slack)
    fwd, bwd = bisim_check(m, n, params)
    if args.format == "json":
        print(json.dumps({
            "holds_at_bound": fwd.holds and bwd.holds,
            "forward": fwd.to_dict(),
            "backward": bwd.to_dict(),
        }))
    else:
        print("forward:  %r" % fwd)
        print("backward: %r" % bwd)
    return _verdict_exit([fwd, bwd])


def _lift_instance(text, default_slack):
    """The lift instance as (source, target, relation, slack)."""
    try:
        if os.path.exists(text):
            text = _read_file(text)
        obj = json.loads(
            text,
            parse_float=_json_decimal,
            parse_int=_json_integer,
            parse_constant=_json_decimal,
        )
    except ValueError as exc:
        raise LambError("lift instance is not JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise LambError("lift instance must be a JSON object")
    try:
        d = _lift_dist(obj, "source")
        e = _lift_dist(obj, "target")
        relation = set()
        for pair in _json_array(obj.get("relation", []), "relation"):
            if not isinstance(pair, list) or len(pair) != 2:
                _json_array(pair, "relation entry", 2)
            relation.add(tuple(pair))
    except (TypeError, ValueError) as exc:
        raise LambError("malformed lift instance: %s" % exc) from exc
    return d, e, relation, _fraction(obj.get("slack", default_slack), "slack")


def _json_array(value, what, length=None):
    # a string or an object is iterable too, and would be read elementwise
    if not isinstance(value, list) or length not in (None, len(value)):
        raise TypeError("%s must be an array%s" % (what, " of %s" % length if length else ""))
    return value


def _lift_dist(obj, side):
    try:
        points, weights = (
            _json_array(obj[side][k], "%s.%s" % (side, k)) for k in ("points", "weights")
        )
    except KeyError as exc:
        raise LambError("lift instance missing %s.%s" % (side, exc)) from exc
    what = "%s weight" % side
    return FinSupportDist(points, [_fraction(w, what) for w in weights])


def _cmd_lift(args):
    d, e, relation, slack = _lift_instance(args.instance, args.slack)
    flow = lift_check_flow(d, e, relation, slack)
    subsets = None
    if len(d) <= 12 and slack == 0:
        subsets = lift_check_subsets(d, e, relation)
    if args.format == "json":
        out = {"flow": flow.to_dict()}
        if subsets is not None:
            out["subsets"] = subsets.to_dict()
        print(json.dumps(out))
    else:
        print("flow:    %r" % flow)
        if subsets is not None:
            print("subsets: %r" % subsets)
    return 0 if flow.holds else 1


def _cmd_approx(args):
    grain = _fraction(args.grain, "--grain")
    m, = _load_operands(args.expr)
    if args.check:
        candidate = parse_fin(_read_file(args.check))
        ok = approx_check(candidate, m, args.depth, args.fuel)
        print("true" if ok else "false")
        return 0 if ok else 1
    out = approx_generate(m, args.depth, args.fuel, grain)
    for c in sorted(out, key=lambda c: c.canon()):
        print(print_fin_dist(c))
    return 0


def _cmd_normalize(args):
    # the program is not held here: normalize steps from it alone
    report = normalize(_load_operands(args.expr)[0], args.fuel)
    if args.format == "json":
        print(json.dumps({
            "rows": [
                {
                    "step": s,
                    "normalized": _dist_json(d),
                    "tv_distance": None if tvd is None else print_weight(tvd),
                }
                for s, d, tvd in report.rows
            ],
            "converged": report.converged,
            "converged_at": report.converged_at,
        }))
    else:
        for s, d, tvd in report.rows:
            tv = "-" if tvd is None else print_weight(tvd)
            print("%d\t%s\ttv=%s" % (s, print_dist(d, explicit=True), tv))
        print("converged=%s at=%s" % (report.converged, report.converged_at))
    return 0


# ---------------------------------------------------------------------------
# Self-test battery


def _cmd_selftest(args):
    checks = laws.battery(args.seed)
    failures = 0
    for name, check in checks:
        bad = check()
        if bad:
            failures += 1
            print("FAIL %s (%d violations)" % (name, len(bad)))
        else:
            print("PASS %s" % name)
    print("%d passed, %d failed" % (len(checks) - failures, failures))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Entry point


def _nonnegative_int(text):
    """A step or depth bound: a nonnegative int, or an argparse usage
    error (exit 2)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if n < 0:
        raise argparse.ArgumentTypeError("must not be negative: %r" % text)
    return n


@functools.cache
def _build_parser():
    """The top-level parser and the subcommands' parsers by name, built once."""
    ap = argparse.ArgumentParser(
        prog="plamb",
        description="Probabilistic lazy lambda calculus workbench",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fuel=True, fmt=False, depth=False, grain=False, slack=False, seed=False):
        if fuel:
            p.add_argument("--fuel", type=_nonnegative_int, default=64, help="parallel reduction steps per evolution")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if depth:
            p.add_argument("--depth", type=_nonnegative_int, default=4)
        if grain:
            p.add_argument("--grain", default="1/16", help="granularity grid, a unit fraction")
        if slack:
            p.add_argument("--no-slack", action="store_true", help="disable residual-mass refutation slack")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="evolve and print the value distribution")
    p.add_argument("expr")
    common(p, fmt=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("trace", help="print one line per parallel step")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("lts", help="print the weak transition fan-out")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_lts)

    p = sub.add_parser("sim", help="bounded simulation check")
    p.add_argument("left")
    p.add_argument("right")
    common(p, fmt=True, depth=True, slack=True)
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("bisim", help="bounded bisimulation check")
    p.add_argument("left")
    p.add_argument("right")
    common(p, fmt=True, depth=True, slack=True)
    p.set_defaults(fn=_cmd_bisim)

    p = sub.add_parser("lift", help="debug a lifting instance (JSON)")
    p.add_argument("instance", help="JSON text or file: {source, target, relation, slack?}")
    p.add_argument("--slack", default="0")
    common(p, fuel=False, fmt=True)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("approx", help="generate or check finite approximants")
    p.add_argument("expr")
    p.add_argument("--check", help="file with a candidate approximant (`_|_` for bottom)")
    common(p, depth=True, grain=True)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("normalize", help="report normalized value distributions per step")
    p.add_argument("expr")
    common(p, fmt=True)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("selftest", help="run the bundled invariant battery")
    common(p, fuel=False, seed=True)
    p.set_defaults(fn=_cmd_selftest)

    return ap, sub.choices


def _parse_args(argv):
    """``_build_parser()[0].parse_args(argv)``, cheaper: after a subcommand
    its parser reads the rest alone, and anything left over goes back to
    the top-level parser, which is where argparse reports it."""
    ap, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    try:
        return args.fn(args)
    except LambError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        limit = sys.getrecursionlimit()
        print("error: %s: nesting too deep (recursion limit %d)" % (args.command, limit), file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the workbench itself, never a verdict: one line, whose
        # repr keeps a multi-line message on it, and no traceback
        print("error: internal error: %r" % (exc,), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
