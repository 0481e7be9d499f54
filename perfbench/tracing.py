"""Tracing for the traced run: spans at layer boundaries, aggregate
counters for hot calls, and the per-layer metrics derived from them.

``Tracer.install`` rebinds each layer's public functions at the module
attributes through which the other layers (and the benchmark's ops) call
them, for example ``plamb.simulation.evolve`` and
``plamb.approximants.approx_check``; the latter also catches its own
recursion.  A span records its name, start, end, parent span and op id;
self time is a span's duration minus the time its child spans cover.
``Dist.__init__``, ``subst``, ``step``, parsing and printing are too hot
or too small for a span each, so they are counted and timed in aggregate.
"""

from __future__ import annotations

import json
from time import perf_counter

from plamb import approximants, cli, lifting, lts, reduction, simulation, syntax

# name -> (defining module, attribute, modules that call through it)
SPANS = {
    "reduction.evolve": (reduction, "evolve", (reduction, simulation, approximants, lts, cli)),
    "lifting.flow": (lifting, "lift_check_flow", (lifting, simulation, cli)),
    "lifting.subsets": (lifting, "lift_check_subsets", (lifting, cli)),
    "lts.weak_max_transition": (lts, "weak_max_transition", (lts, cli)),
    "simulation.sim_check": (simulation, "sim_check", (simulation, cli)),
    "approximants.generate": (approximants, "approx_generate", (approximants, cli)),
    "approximants.check": (approximants, "approx_check", (approximants, cli)),
    "approximants.embed": (approximants, "embed", (approximants, cli)),
    "cli.main": (cli, "main", (cli,)),
}

# name -> list of (module, attribute) bound to the same function
AGGREGATES = {
    "syntax.subst": [(syntax, "subst"), (reduction, "subst"), (simulation, "subst")],
    "syntax.parse": [(syntax, "parse"), (cli, "parse"), (approximants, "_parse_lambda")],
    "syntax.print": [
        (syntax, "print_dist"),
        (cli, "print_dist"),
        (approximants, "print_fin_dist"),
        (cli, "print_fin_dist"),
    ],
    "reduction.step": [(reduction, "step"), (cli, "step")],
}

WIDTH_TOP = 1 << 30
WIDTH_BINS = ((0, 0), (1, 3), (4, 9), (10, 12), (13, WIDTH_TOP))


class Tracer:
    def __init__(self):
        self.on = False
        self.op = None
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.agg = {}  # name -> [calls, seconds, nesting depth]
        self.seen_evolve = set()
        self.n = {
            "evolve_repeat": 0, "evolve_unconverged": 0, "evolve_steps": 0,
            "peak_support": 0, "peak_den_bits": 0,
            "flow_refuted": 0, "flow_points": 0, "peak_points": 0,
            "sim_refuted": 0, "sim_exact": 0,
            "check_accept": 0, "peak_entries": 0, "output_bytes": 0,
        }
        self.widths = [0] * len(WIDTH_BINS)
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        observers = {
            "reduction.evolve": self._see_evolve,
            "lifting.flow": self._see_flow,
            "simulation.sim_check": self._see_sim,
            "approximants.generate": self._see_generate,
            "approximants.check": self._see_check,
        }
        for name, (home, attr, users) in SPANS.items():
            wrapped = self._span(name, getattr(home, attr), observers.get(name))
            for mod in users:
                self._set(mod, attr, wrapped)
        for name, sites in AGGREGATES.items():
            by_orig = {}
            for mod, attr in sites:
                orig = getattr(mod, attr)
                if orig not in by_orig:
                    by_orig[orig] = self._aggregate(name, orig)
                self._set(mod, attr, by_orig[orig])
        self._set(syntax.Dist, "__init__", self._aggregate("syntax.dist", syntax.Dist.__init__))

    def uninstall(self):
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved = []

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _span(self, name, fn, observe):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            idx = len(tr.spans)
            rec = [name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1, tr.op]
            tr.spans.append(rec)
            tr.stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tr.stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _aggregate(self, name, fn):
        slot = self.agg.setdefault(name, [0, 0.0, 0])
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.on or slot[2]:
                return fn(*args, **kwargs)
            slot[2] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += perf_counter() - t0
                slot[0] += 1
                slot[2] = 0

        return wrapper

    # -- observers ----------------------------------------------------------

    def _see_evolve(self, args, report):
        d, fuel = args[0], args[1]
        n = self.n
        key = (d, fuel)
        if key in self.seen_evolve:
            n["evolve_repeat"] += 1
        else:
            self.seen_evolve.add(key)
        n["evolve_unconverged"] += not report.converged
        n["evolve_steps"] += report.steps_used
        n["peak_support"] = max(n["peak_support"], len(d), len(report.values))
        bits = max([w.denominator.bit_length() for _, w in report.values.entries()]
                   + [report.residual.denominator.bit_length()])
        n["peak_den_bits"] = max(n["peak_den_bits"], bits)

    def _see_flow(self, args, verdict):
        points = len(args[0]) + len(args[1])
        self.n["flow_refuted"] += not verdict.holds
        self.n["flow_points"] += points
        self.n["peak_points"] = max(self.n["peak_points"], points)

    def _see_sim(self, args, verdict):
        self.n["sim_refuted"] += not verdict.holds
        self.n["sim_exact"] += bool(getattr(verdict, "exact", False))

    def _see_generate(self, args, cands):
        for c in cands:
            width = _width(c)
            for i, (lo, hi) in enumerate(WIDTH_BINS):
                if lo <= width <= hi:
                    self.widths[i] += 1

    def _see_check(self, args, ok):
        self.n["check_accept"] += bool(ok)
        self.n["peak_entries"] = max(self.n["peak_entries"], _width(args[0]))

    # -- results ------------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics; counts and times are per completed op."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = dict.fromkeys(SPANS, 0)
        self_s = dict.fromkeys(SPANS, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += t1 - t0 - child[i]
        ops = max(ops, 1)
        n = self.n

        def ratio(a, b):
            return (a / b if b else 0.0), "ratio"

        out = {}
        for name, (count, seconds, _) in self.agg.items():
            out[name + (".constructions" if name == "syntax.dist" else ".calls")] = (count / ops, "count/op")
            out[name + ".s"] = (seconds / ops, "s/op")
        for name in SPANS:
            out[name + ".calls"] = (calls[name] / ops, "count/op")
            out[name + ".self_s"] = (self_s[name] / ops, "s/op")
        ev, fl, sc = calls["reduction.evolve"], calls["lifting.flow"], calls["simulation.sim_check"]
        out["reduction.evolve.steps"] = (n["evolve_steps"] / ops, "count/op")
        out["reduction.evolve.unconverged_ratio"] = ratio(n["evolve_unconverged"], ev)
        out["reduction.evolve.repeat_ratio"] = ratio(n["evolve_repeat"], ev)
        out["reduction.evolve.peak_support"] = (n["peak_support"], "count")
        out["reduction.evolve.peak_den_bits"] = (n["peak_den_bits"], "bits")
        out["lifting.flow.mean_points"] = (ratio(n["flow_points"], fl)[0], "count")
        out["lifting.flow.peak_points"] = (n["peak_points"], "count")
        out["lifting.flow.refuted_ratio"] = ratio(n["flow_refuted"], fl)
        out["simulation.refuted_ratio"] = ratio(n["sim_refuted"], sc)
        out["simulation.exact_ratio"] = ratio(n["sim_exact"], sc)
        out["approximants.check.peak_entries"] = (n["peak_entries"], "count")
        out["approximants.check.accept_ratio"] = ratio(n["check_accept"], calls["approximants.check"])
        for (lo, hi), count in zip(WIDTH_BINS, self.widths):
            label = str(lo) if lo == hi else ("%d_%d" % (lo, hi) if hi < WIDTH_TOP else "%d_up" % lo)
            out["approximants.width.%s_ratio" % label] = ratio(count, sum(self.widths))
        out["cli.output_bytes"] = (n["output_bytes"] / ops, "bytes/op")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _width(c):
    return sum(1 for t, _ in c.entries() if not isinstance(t, approximants.Omega))
