import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import hypothesis.strategies as st
import plamb
import pytest
from hypothesis import given, settings

from conftest import (
    check_candidate_reader, expand_prelude, fuzz_sources, prelude_table, stepped_in_table,
)
from plamb import cli, laws
from plamb.cli import MAX_NUMERAL, main, normalize, total_variation
from plamb.approximants import parse_fin
from plamb.corpus import CORPUS_SOURCES
from plamb.prelude import DEFAULT_PRELUDE
from plamb.reduction import step, vals
from plamb.syntax import Dist, LambError, Var, parse, print_dist

YT_SRC = r"Y (\x. {1/2: I, 1/2: x})"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "eval", "I")
        assert code == 0
        assert out == "{1: \\x. x}\n"

    def test_fixpoint_mass_table(self, capsys):
        code, out, _ = run(capsys, "eval", YT_SRC, "--fuel", "9")
        assert code == 0
        assert out == "{7/8: \\x. x}\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "eval", YT_SRC, "--fuel", "9", "--format", "json")
        obj = json.loads(out)
        assert obj["residual"] == "1/8"
        assert obj["values"] == {"\\x. x": "7/8"}
        assert obj["converged"] is False

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "{1/2: x,,}")
        assert code == 2
        assert "1:" in err

    def test_reserved_name_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "#0")
        assert code == 2
        assert "reserved" in err

    def test_bottom_is_not_a_program(self, capsys):
        code, out, err = run(capsys, "eval", "_|_")
        assert code == 2 and out == ""
        assert err.startswith("error: 1:1: ") and err.count("\n") == 1

    def test_deep_nesting_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "(" * 400 + "x" + ")" * 400)
        assert code == 2 and out == ""
        assert err.startswith("error: 1:") and "nesting too deep" in err

    def test_moderate_nesting_parses(self, capsys):
        code, out, _ = run(capsys, "eval", "(" * 50 + "x" + ")" * 50)
        assert code == 0 and out == "{1: x}\n"
        code, out, _ = run(capsys, "eval", "y (" * 50 + "x" + ")" * 50)
        assert code == 0 and out.startswith("{1: y (y (y")


class TestFiles:
    def test_file_operand(self, capsys, tmp_path):
        f = tmp_path / "prog.lam"
        f.write_text("xor tt ff -- boolean test\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", str(f))
        assert code == 0
        assert out == "{1: \\t. \\f. t}\n"

    def test_missing_lam_file(self, capsys):
        code, _, err = run(capsys, "eval", "nosuch.lam")
        assert code == 2
        assert "not found" in err

    def test_prelude_override(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "prelude.txt"
        f.write_text("K = \\a. \\b. a -- projection\n", encoding="utf-8")
        monkeypatch.setenv("PLAMB_PRELUDE", str(f))
        code, out, _ = run(capsys, "eval", "K x y", "--fuel", "4")
        assert code == 0
        assert out == "{1: x}\n"


class TestTraceAndLts:
    def test_trace_lines(self, capsys):
        code, out, _ = run(capsys, "trace", r"(\x. x) ((\y. y) z)", "--fuel", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("0\t")
        assert lines[-1].split("\t")[1] == "z"

    def test_lts_fanout(self, capsys):
        code, out, _ = run(capsys, "lts", r"{1/2: \x. x, 1/2: y tt}", "--fuel", "4")
        assert code == 0
        assert "conv\t" in out
        assert "ret #0\t" in out
        assert "call y 0/1" in out and "call y 1/1" in out


class TestSimBisim:
    def test_sim_exit_codes(self, capsys):
        code, _, _ = run(capsys, "sim", "I", YT_SRC, "--depth", "3", "--fuel", "9")
        assert code == 0
        code, _, _ = run(capsys, "sim", r"\x. omega", "omega", "--depth", "2", "--fuel", "4")
        assert code == 1

    def test_sim_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "sim", "I", YT_SRC,
            "--depth", "3", "--fuel", "9", "--no-slack", "--format", "json",
        )
        assert code == 1
        obj = json.loads(out)
        assert set(obj) == {"holds_at_bound", "exact", "depth", "fuel", "witness"}
        assert obj["holds_at_bound"] is False
        w = obj["witness"]
        assert w["kind"] == "ConvergeDeficit"
        assert w["deficit"] == "1/8"
        assert w["path"] == []
        assert w["cut"] == ["\\x. x"]

    def test_bisim_xor_pair(self, capsys):
        code, out, _ = run(
            capsys, "bisim",
            "{1/2: x tt ff, 1/2: x ff tt}",
            "{1/2: x ff ff, 1/2: x tt tt}",
            "--depth", "3", "--fuel", "8", "--format", "json",
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["holds_at_bound"] is False
        assert obj["forward"]["witness"]["kind"] == "FlowDeficit"
        assert obj["backward"]["witness"]["kind"] == "FlowDeficit"
        assert out == (
            '{"holds_at_bound": false, '
            '"forward": {"holds_at_bound": false, "exact": false, "depth": 3, "fuel": 8, "witness": '
            '{"path": [], "kind": "FlowDeficit", "deficit": "1", '
            '"cut": ["x (\\\\t. \\\\f. t) (\\\\t. \\\\f. f)", "x (\\\\t. \\\\f. f) (\\\\t. \\\\f. t)"]}}, '
            '"backward": {"holds_at_bound": false, "exact": false, "depth": 3, "fuel": 8, "witness": '
            '{"path": [], "kind": "FlowDeficit", "deficit": "1", '
            '"cut": ["x (\\\\t. \\\\f. t) (\\\\t. \\\\f. t)", "x (\\\\t. \\\\f. f) (\\\\t. \\\\f. f)"]}}}\n'
        )

    def test_bisim_text(self, capsys):
        code, out, _ = run(capsys, "bisim", "I", "I", "--depth", "2", "--fuel", "4")
        assert code == 0
        assert "forward:" in out and "backward:" in out


class TestLift:
    INSTANCE = json.dumps({
        "source": {"points": ["t", "f"], "weights": ["1/2", "1/2"]},
        "target": {"points": ["t", "f"], "weights": ["2/5", "3/5"]},
        "relation": [["t", "t"], ["f", "f"]],
    })

    def test_inline_instance(self, capsys):
        code, out, _ = run(capsys, "lift", self.INSTANCE, "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["flow"]["deficit"] == "1/10"
        assert obj["flow"]["witness_cut"] == ["t"]
        assert obj["subsets"]["deficit"] == "1/10"

    def test_instance_file_with_slack(self, capsys, tmp_path):
        f = tmp_path / "inst.json"
        obj = json.loads(self.INSTANCE)
        obj["slack"] = "1/10"
        f.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = run(capsys, "lift", str(f), "--format", "json")
        assert code == 0

    def test_text_cut_independent_of_hash_seed(self):
        points = list("abcdefgh")
        inst = json.dumps({
            "source": {"points": points, "weights": ["1/8"] * 8},
            "target": {"points": ["t"], "weights": ["1/2"]},
            "relation": [[a, "t"] for a in points],
        })
        src = os.path.dirname(os.path.dirname(plamb.__file__))
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "plamb.cli", "lift", inst],
                env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 1, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        cut = "cut={'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'})"
        assert outs[0].decode().count(cut) == 2

    @staticmethod
    def instance(source, target, slack=None):
        """A one-point lift instance; the weights and slack are JSON text."""
        return (
            '{"source": {"points": ["a"], "weights": [%s]}, '
            '"target": {"points": ["b"], "weights": [%s]}, '
            '"relation": [["a", "b"]]%s}'
            % (source, target, "" if slack is None else ', "slack": %s' % slack)
        )

    def test_json_decimals_are_exact(self, capsys):
        code, out, _ = run(capsys, "lift", self.instance('"3/10"', "0.3"))
        assert code == 0 and "deficit" not in out
        code, out, _ = run(capsys, "lift", self.instance("1e-1", '"1/20"'), "--format", "json")
        assert code == 1 and json.loads(out)["flow"]["deficit"] == "1/20"
        code, _, _ = run(capsys, "lift", self.instance("1e-1", '"1/10"'))
        assert code == 0

    def test_boolean_weight_exit_2(self, capsys):
        code, out, err = run(capsys, "lift", self.instance("true", '"1"'))
        assert code == 2 and out == ""
        assert err == "error: source weight: not a rational number: true\n"
        inline = dict(json.loads(self.instance('"1"', '"1"')), slack=False)
        code, _, err = run(capsys, "lift", json.dumps(inline))
        assert code == 2 and err.startswith("error: slack: ")

    def test_huge_exponent_exit_2(self, capsys):
        code, out, err = run(capsys, "lift", self.instance("1e-999999999", '"1"'))
        assert code == 2 and out == ""
        assert err == "error: lift instance: number out of range: 1e-999999999\n"

    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_constant_exit_2(self, capsys, constant):
        for text in (self.instance(constant, '"1"'), self.instance('"1"', '"1"', constant)):
            code, out, err = run(capsys, "lift", text)
            assert code == 2 and out == ""
            assert err == "error: lift instance: not a rational number: %r\n" % constant


class TestApprox:
    def test_generate_output(self, capsys):
        code, out, _ = run(
            capsys, "approx", YT_SRC, "--depth", "2", "--fuel", "6", "--grain", "1/8"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "{5/8: \\x. _|_}" in lines
        assert "_|_" in lines

    def test_check_file(self, capsys, tmp_path):
        f = tmp_path / "cand.fin"
        f.write_text("{5/8: \\x. _|_}\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "approx", YT_SRC, "--check", str(f),
            "--depth", "2", "--fuel", "6",
        )
        assert code == 0 and out.strip() == "true"
        f.write_text("{1: \\x. _|_}\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "approx", YT_SRC, "--check", str(f),
            "--depth", "2", "--fuel", "6",
        )
        assert code == 1 and out.strip() == "false"

    def test_check_compares_abstractions_as_one_block(self, capsys, tmp_path):
        # a member of {1/2: \x. y, 1/2: \x. z}, which is exactly bisimilar
        f = tmp_path / "cand.fin"
        f.write_text("{1/4: \\x. {1/2: y}}\n", encoding="utf-8")
        code, out, _ = run(capsys, "approx", r"\x. {1/2: y, 1/2: z}", "--check", str(f))
        assert code == 0 and out == "true\n"

    @pytest.mark.parametrize("src", [r"(\x. x) y", "_|_ y", r"\x. (\y. y) x"])
    def test_check_file_with_a_redex_exit_2(self, capsys, tmp_path, src):
        f = tmp_path / "cand.fin"
        f.write_text(src + "\n", encoding="utf-8")
        code, out, err = run(capsys, "approx", "I", "--check", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: not a finite approximant") and err.count("\n") == 1

    def test_check_file_nested_too_deep(self, capsys, tmp_path):
        f = tmp_path / "cand.fin"
        f.write_text("y (" * 1000 + "_|_" + ")" * 1000, encoding="utf-8")
        code, out, err = run(capsys, "approx", "y", "--check", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: 1:") and "nesting too deep" in err
        f.write_text("y (" * 50 + "_|_" + ")" * 50, encoding="utf-8")
        code, out, _ = run(capsys, "approx", "y", "--check", str(f))
        assert code == 1 and out.strip() == "false"


class TestNormalize:
    def test_converges_at_step_one(self, capsys):
        code, out, _ = run(capsys, "normalize", "{1/5: tt, 1/5: ff}", "--fuel", "8")
        assert code == 0
        assert "converged=True at=1" in out
        assert "{1/2: \\t. \\f. t, 1/2: \\t. \\f. f}" in out

    def test_fixpoint_normalizes_to_identity(self, capsys):
        code, out, _ = run(
            capsys, "normalize", YT_SRC, "--fuel", "16", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["converged"] is True
        assert obj["converged_at"] == 3
        for row in obj["rows"]:
            assert row["normalized"] == {"\\x. x": "1"}

    def test_all_mass_divergent(self, capsys):
        code, _, err = run(capsys, "normalize", "omega", "--fuel", "8")
        assert code == 2
        assert err == "error: no value mass within 8 steps\n"

    @pytest.mark.parametrize("expr, fuel", [("I", "0"), (YT_SRC, "2")])
    def test_no_value_mass_yet_is_not_divergence(self, capsys, expr, fuel):
        code, out, err = run(capsys, "normalize", expr, "--fuel", fuel)
        assert code == 2 and out == ""
        assert err == "error: no value mass within %s steps\n" % fuel
        assert "divergent" not in err

    def test_value_mass_after_more_fuel(self, capsys):
        code, out, _ = run(capsys, "normalize", YT_SRC, "--fuel", "3")
        assert code == 0 and out.startswith("3\t{1: \\x. x}\t")

    def test_rows_sum_to_one(self):
        report = normalize(parse(r"({1/2: \x. x, 1/4: y}) z"), 8)
        for _, d, _ in report.rows:
            assert d.mass() == 1

    @staticmethod
    def two_pass(m, fuel):
        """The rows (step, printed distribution, TV distance), ``converged``
        and ``converged_at`` as two passes find them: each step's value
        mass divided out weight by weight, then a backward scan over the
        rows for the first step of the final distribution; None when no
        step has value mass."""
        rows, dists, small_run = [], [], 0
        for s in range(1, fuel + 1):
            m = step(m)
            v = vals(m)
            mass = v.mass()
            if mass == 0:
                continue
            d = Dist((t, w / mass) for t, w in v.entries())
            tvd = None
            if dists:
                a, b = ({t.canon(): w for t, w in e.entries()} for e in (d, dists[-1]))
                tvd = sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()) / 2
            rows.append((s, print_dist(d, explicit=True), tvd))
            dists.append(d)
            if tvd is not None and tvd < F(1, 1024):
                small_run += 1
                if small_run >= 3:
                    break
            elif tvd is not None:
                small_run = 0
        if not rows:
            return None
        converged_at = rows[-1][0]
        for (s, _, _), d in zip(reversed(rows), reversed(dists)):
            if d != dists[-1]:
                break
            converged_at = s
        return rows, small_run >= 3, converged_at

    @pytest.mark.parametrize("src", list(CORPUS_SOURCES) + [
        # geometric convergence; stable from step 1; no value before step 2
        YT_SRC, "I", r"{1/2: (\x. x) ((\y. y) tt), 1/4: omega}",
    ])
    def test_one_pass_matches_the_two_pass_oracle(self, src):
        for fuel in range(1, 25):
            want = self.two_pass(parse(src), fuel)
            try:
                report = normalize(parse(src), fuel)
            except LambError:
                assert want is None, (src, fuel)
                continue
            got = [(s, print_dist(d, explicit=True), tvd) for s, d, tvd in report.rows]
            assert (got, report.converged, report.converged_at) == want, (src, fuel)


class TestNormalizeMemory:
    """``normalize`` holds only the current step: a term keeps its head
    reduct, so a held start would keep every step taken from it."""

    @staticmethod
    def peak(src, fuel):
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(["normalize", src, "--fuel", str(fuel)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("src", ["omega", r"Y (\x. x)"])
    def test_peak_does_not_grow_with_fuel(self, src):
        self.peak(src, 10)
        # holding the start costs about 1 kB a step: 1.1 MB more at 1000
        assert self.peak(src, 1000) < self.peak(src, 100) + 100_000


class TestPreludeNames:
    def test_error_positions_refer_to_the_text_as_written(self, capsys):
        for src, err in [
            ("Y Y {", "error: 1:5: trailing input after distribution (got '{')\n"),
            ("I )", "error: 1:3: trailing input after distribution (got ')')\n"),
            (r"\I. x", "error: 1:2: expected a binder name (got 'I')\n"),
        ]:
            assert run(capsys, "eval", src) == (2, "", err)

    def test_broken_definition_in_use_exits_2(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "prelude.txt"
        f.write_text("B = \\x. {\nC = \\x. x\n", encoding="utf-8")
        monkeypatch.setenv("PLAMB_PRELUDE", str(f))
        assert run(capsys, "eval", "C y") == (0, "{1: y}\n", "")
        code, out, err = run(capsys, "eval", "C B")
        assert code == 2 and out == ""
        assert err == "error: 1:3: in the definition of B: 1:6: expected a weight (got end of input)\n"

    def test_cycle_exits_2(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "prelude.txt"
        f.write_text("A = \\x. B\nB = x A\n", encoding="utf-8")
        monkeypatch.setenv("PLAMB_PRELUDE", str(f))
        assert run(capsys, "eval", "A") == (
            2, "", "error: prelude expansion did not terminate (recursive definition?)\n"
        )

    def test_definitions_follow_the_prelude_file(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "prelude.txt"
        monkeypatch.setenv("PLAMB_PRELUDE", str(f))
        f.write_text("K = a\n", encoding="utf-8")
        assert run(capsys, "eval", "K") == (0, "{1: a}\n", "")
        f.write_text("K = b\n", encoding="utf-8")
        assert run(capsys, "eval", "K") == (0, "{1: b}\n", "")
        monkeypatch.delenv("PLAMB_PRELUDE")
        assert run(capsys, "eval", "K") == (0, "{1: K}\n", "")
        assert run(capsys, "eval", "I") == (0, "{1: \\x. x}\n", "")

    @pytest.mark.parametrize("command", ["sim", "bisim"])
    def test_prelude_file_read_once_per_command(self, capsys, tmp_path, monkeypatch, command):
        f = tmp_path / "prelude.txt"
        f.write_text("K = a\n", encoding="utf-8")
        monkeypatch.setenv("PLAMB_PRELUDE", str(f))
        reads = []
        read = cli._read_file

        def counted(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(cli, "_read_file", counted)
        assert run(capsys, command, "K", "K")[0] == 0
        assert reads == [str(f)]

    def test_commands_leave_the_definitions_unreduced(self, capsys):
        prog = r"{1/4: xor tt ff, 1/4: Y (\x. {1/2: I, 1/2: x}), 1/4: x omega, 1/4: omega}"
        other = r"{1/2: Y (\x. {1/2: tt, 1/2: x}), 1/4: I, 1/4: y ff}"
        for argv in (
            ["eval", prog], ["trace", prog, "--fuel", "12"], ["normalize", prog],
            ["lts", prog], ["approx", prog, "--depth", "2", "--fuel", "8"],
            ["sim", prog, other, "--depth", "3", "--fuel", "12"],
            ["bisim", other, prog, "--depth", "3", "--fuel", "12"],
            ["eval", "Y (xor tt)"], ["lts", r"Y (\x. {1/2: x, 1/2: z omega})"],
        ):
            assert run(capsys, *argv)[0] in (0, 1), argv
        assert set(prelude_table(DEFAULT_PRELUDE).parsed) == set(DEFAULT_PRELUDE)
        assert not stepped_in_table(DEFAULT_PRELUDE)


class TestMalformedInput:
    LIFT_TARGET = {"points": ["a"], "weights": ["1"]}

    def lift(self, source):
        return json.dumps({
            "source": source, "target": self.LIFT_TARGET, "relation": [["a", "a"]],
        })

    @pytest.mark.parametrize("argv, message", [
        (["approx", "I", "--grain", "abc"], "--grain: not a rational number: 'abc'"),
        (["approx", "I", "--grain", "1/0"], "--grain: not a rational number: '1/0'"),
        (["lift", "{bad"], "lift instance is not JSON"),
        (["lift", "[1]"], "lift instance must be a JSON object"),
        (["lift", '{"source": [], "target": []}'], "malformed lift instance"),
        (["approx", "I", "--grain", "1e-999999999"], "--grain: number out of range"),
        (["lift", TestLift.instance("1", "1"), "--slack", "1e-999999999"],
         "slack: number out of range"),
        (["lift", TestLift.instance('"1e-999999999"', "1")], "source weight: number out of range"),
        (["lift", TestLift.instance("1", "1", '"1e-999999999"')], "slack: number out of range"),
    ])
    def test_exit_2_with_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    LONG_INT = "1" * 5000
    LONG_DECIMAL = "0." + "1" * 4998

    @pytest.mark.parametrize("argv, message", [
        (["lift", TestLift.instance("1", "1", LONG_INT)], "lift instance"),
        (["lift", TestLift.instance(LONG_INT, "1")], "lift instance"),
        (["lift", TestLift.instance('"%s"' % LONG_DECIMAL, "1")], "source weight"),
        (["lift", TestLift.instance("1", "1"), "--slack", LONG_DECIMAL], "slack"),
    ])
    def test_overlong_numeral_exit_2(self, capsys, argv, message):
        # int() refuses strings of more than 4300 digits; the message must
        # name the number, not blame the JSON or the syntax
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: %s: number out of range: 5000 characters\n" % message

    @pytest.mark.parametrize("weight", ["1/" + "7" * 5000, "0." + "7" * 5001],
                             ids=["denominator", "decimal"])
    def test_overlong_numeral_in_program_exit_2(self, capsys, tmp_path, weight):
        src = "{%s: x}" % weight
        f = tmp_path / "cand.fin"
        f.write_text(src, encoding="utf-8")
        for argv in (["eval", src], ["approx", "I", "--check", str(f)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith("1:2: number out of range\n") and "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ["eval"], ["eval", "--format", "json"], ["lts"], ["sim", "--format", "json"],
    ], ids=["eval", "eval-json", "lts", "sim-json"])
    def test_weight_too_long_to_print_exit_2(self, capsys, argv):
        # each weight reads within int()'s digit limit, but the product
        # that one step builds has twice the digits and cannot be printed
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter prints ints of any length")
        n = "9" * limit
        src = "{1/%s: (\\x. x) ({1/%s: y})}" % (n, n)
        code, out, err = run(capsys, *argv, src, *(["{}"] if argv[0] == "sim" else []))
        assert code == 2 and out == ""
        assert err == "error: number out of range: a weight too long to print\n"
        # (N-1)/N + (M-1)/M for coprime N, M of 3001 and 3000 digits sums
        # above 1 over an lcm too long to print; the mass error leaves the
        # sum out of its message
        n, m = 10 ** 3000, 10 ** 3000 - 1
        src = "{%d/%d: x, %d/%d: y}" % (n - 1, n, m - 1, m)
        code, out, err = run(capsys, *argv, src, *(["{}"] if argv[0] == "sim" else []))
        assert code == 2 and out == ""
        assert err == "error: 1:1: weights sum above 1\n"

    def test_longest_numeral_is_read(self, capsys):
        weight = '"0.%s"' % ("0" * (MAX_NUMERAL - 3) + "1")
        code, out, err = run(capsys, "lift", TestLift.instance(weight, "1"))
        assert code == 0 and err == ""

    def test_lift_weight_and_slack(self, capsys):
        bad_weight = self.lift({"points": ["a"], "weights": ["x"]})
        code, out, err = run(capsys, "lift", bad_weight)
        assert code == 2 and out == ""
        assert err == "error: source weight: not a rational number: 'x'\n"
        good = self.lift(self.LIFT_TARGET)
        code, out, err = run(capsys, "lift", good, "--slack", "x")
        assert code == 2 and out == ""
        assert err == "error: slack: not a rational number: 'x'\n"
        inline = json.dumps(dict(json.loads(good), slack="x"))
        code, _, err = run(capsys, "lift", inline)
        assert code == 2 and "slack: not a rational number" in err
        assert run(capsys, "lift", good, "--slack", "-1") == (
            2, "", "error: slack must be nonnegative\n"
        )
        code, _, _ = run(capsys, "lift", good)
        assert code == 0

    @staticmethod
    def fraction_reference(text, what):
        """``cli._fraction`` with every string read by ``Fraction``."""
        if isinstance(text, bool):
            raise LambError("%s: not a rational number: %s" % (what, json.dumps(text)))
        try:
            if isinstance(text, str):
                cli._check_numeral(text, what)
            return F(text)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise LambError("%s: not a rational number: %r" % (what, text)) from exc

    @staticmethod
    def outcome(read, text):
        try:
            got = read(text, "weight")
        except LambError as exc:
            return "error", str(exc)
        return type(got), got

    NUMERALS = [
        "0", "1", "3", "007", "1/2", "0/5", "6/4", "010/020", "1/0", "0/0", "00/000",
        "1/", "/2", "/", "", "1/2/3", "1//2", "-1/2", "+3", "-0", " 1/2", "1/2 ",
        "1 /2", "1_0/2", "1/2_0", "1.5", ".5", "1.", "1e3", "1E-2", "1/2e3", "1e",
        "\u0661/\u0662", "\u00b2/3", "1/\u00b2", "\uff11/2", "0x10", "inf", "nan", "1/2\n", "9" * 999 + "/7",
        "1" * MAX_NUMERAL, "1" * (MAX_NUMERAL + 1), "1/" + "3" * (MAX_NUMERAL - 2),
        "1/" + "3" * (MAX_NUMERAL - 1), 3, F(1, 3), None, True, [1],
    ]

    def test_fast_numerals_read_as_fraction_does(self):
        plain = 0
        for text in self.NUMERALS:
            want = self.outcome(self.fraction_reference, text)
            assert self.outcome(cli._fraction, text) == want, text
            plain += isinstance(text, str) and bool(re.fullmatch(r"[0-9]+(/0*[1-9][0-9]*)?", text))
        assert plain >= 10

    @pytest.mark.parametrize("relation, message", [
        ([["a"]], "relation entry must be an array of 2"),
        (["aa"], "relation entry must be an array of 2"),
        ([None], "relation entry must be an array of 2"),
        ([["a", "a"], ["a", "a", "a"]], "relation entry must be an array of 2"),
        ([[["a"], "a"]], "unhashable type: 'list'"),
        ("aa", "relation must be an array"),
    ])
    def test_relation_errors_name_the_entry(self, capsys, relation, message):
        inst = dict(json.loads(self.lift(self.LIFT_TARGET)), relation=relation)
        code, out, err = run(capsys, "lift", json.dumps(inst))
        assert (code, out) == (2, "")
        assert err == "error: malformed lift instance: %s\n" % message

    REMOVED_OPTIONS = [
        ["trace", "I", "--format", "json"],
        ["lts", "I", "--format", "json"],
        ["approx", "I", "--format", "json"],
        ["selftest", "--format", "json"],
        ["lift", '{"source": {}}', "--fuel", "8"],
        ["selftest", "--fuel", "8"],
    ]

    @pytest.mark.parametrize("argv", REMOVED_OPTIONS)
    def test_removed_options_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: %s" % argv[-2] in err

    @pytest.mark.parametrize("argv", [
        ["approx", "x", "--depth", "-1"],
        ["approx", "x", "--fuel", "-1"],
        ["trace", "x", "--fuel", "-1"],
        ["eval", "x", "--fuel", "-1"],
        ["lts", "x", "--fuel", "-1"],
        ["normalize", "x", "--fuel", "-1"],
        ["sim", "x", "x", "--depth", "-1"],
        ["bisim", "x", "x", "--fuel", "-1"],
        ["eval", "x", "--fuel", "abc"],
    ])
    def test_bad_bound_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument %s: " % argv[-2] in out.err

    def test_relation_pairs(self, capsys):
        inst = dict(json.loads(self.lift(self.LIFT_TARGET)), relation=[["a"]])
        code, _, err = run(capsys, "lift", json.dumps(inst))
        assert code == 2 and "malformed lift instance" in err

    @pytest.mark.parametrize("relation", [
        ["aa"], "aa", [["a", "a", "a"]], [{"a": 1, "b": 2}], {"a": "a"}, [None],
    ])
    def test_relation_must_be_array_of_pairs(self, capsys, relation):
        # a two-character string or a two-key object must not read as a pair
        inst = dict(json.loads(self.lift(self.LIFT_TARGET)), relation=relation)
        code, out, err = run(capsys, "lift", json.dumps(inst))
        assert code == 2 and out == ""
        assert err.startswith("error: malformed lift instance: ")

    @pytest.mark.parametrize("side", [
        {"points": "a", "weights": ["1"]},
        {"points": ["a"], "weights": "1"},
        {"points": "a", "weights": "1"},
        {"points": {"a": 1}, "weights": ["1"]},
        {"points": ["a"], "weights": 1},
    ])
    def test_points_and_weights_must_be_arrays(self, capsys, side):
        code, out, err = run(capsys, "lift", self.lift(side))
        assert code == 2 and out == ""
        assert err.startswith("error: malformed lift instance: ")


FUZZ_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


class TestInputContract:
    """Short sources over the grammar's tokens, and over-long numerals:
    the parsers raise nothing but ``LambError``, and the commands that read
    a program end in a verdict or a usage error, never an internal one."""

    @FUZZ_SETTINGS
    @given(fuzz_sources)
    def test_parsers_raise_only_lamb_errors(self, src):
        for read in (parse, parse_fin):
            try:
                read(src)
            except LambError:
                pass

    @FUZZ_SETTINGS
    @given(fuzz_sources)
    def test_parse_agrees_with_textual_expansion(self, src):
        # the same programs parse, to the same distributions, as through
        # the textual oracle; only error messages may differ
        try:
            want = parse(expand_prelude(src, DEFAULT_PRELUDE), prelude={})
        except LambError:
            want = None
        try:
            got = parse(src)
        except LambError:
            got = None
        assert got == want
        if got is not None:
            assert print_dist(got) == print_dist(want)

    @FUZZ_SETTINGS
    @given(fuzz_sources)
    def test_parse_fin_agrees_with_second_grammar(self, src):
        # the candidates read as by the grammar of finite terms that read
        # them before parse_fin was the calculus parser plus the _|_ atom
        check_candidate_reader(src)

    @FUZZ_SETTINGS
    @given(fuzz_sources, st.sampled_from([
        ["eval", "--fuel", "4"], ["approx", "--depth", "1", "--fuel", "4"], ["lts", "--fuel", "4"],
    ]))
    def test_commands_exit_0_1_or_2(self, src, command):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main([command[0], src, *command[1:]])
            except SystemExit as exc:  # argparse: a source that reads as an option
                code = exc.code
        assert code in (0, 1, 2)


class TestUnreadableFiles:
    """A file that cannot be read or decoded is an error line naming the
    path and exit code 2, never a traceback and exit 1 ("refuted")."""

    def check(self, capsys, argv, path, reason):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read %s: " % path) and reason in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["eval"], ["lift"], ["approx", "I", "--check"]])
    def test_directory(self, capsys, tmp_path, command):
        self.check(capsys, command + [str(tmp_path)], tmp_path, "directory")

    def test_missing_check_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.fin"
        self.check(capsys, ["approx", "I", "--check", str(missing)], missing, "No such file")

    @pytest.mark.parametrize("name, command", [
        ("prog.lam", ["eval"]),
        ("inst.json", ["lift"]),
        ("cand.fin", ["approx", "I", "--check"]),
    ])
    def test_not_utf8(self, capsys, tmp_path, name, command):
        f = tmp_path / name
        f.write_bytes(b"\xff\xfe x")
        self.check(capsys, command + [str(f)], f, "not UTF-8")

    def test_missing_prelude(self, capsys, tmp_path, monkeypatch):
        missing = tmp_path / "prelude.txt"
        monkeypatch.setenv("PLAMB_PRELUDE", str(missing))
        self.check(capsys, ["eval", "x"], missing, "No such file")

    def test_prelude_is_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PLAMB_PRELUDE", str(tmp_path))
        self.check(capsys, ["eval", "x"], tmp_path, "directory")


def _stack_depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


class TestRecursionLimit:
    def test_deep_term_from_reduction_exit_2(self, capsys):
        # the program parses shallowly, but each unfolding nests one more
        # abstraction; under a lowered limit, evolving it overflows the
        # stack outside the parser
        prog = r"Y (\f. \x. {1/2: x, 1/2: f (\y. x)}) z"
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            shallow = run(capsys, "eval", prog, "--fuel", "40")
            deep = run(capsys, "eval", prog, "--fuel", "200")
        finally:
            sys.setrecursionlimit(old)
        assert shallow[0] == 0
        code, out, err = deep
        assert code == 2 and out == ""
        assert err.startswith("error: eval: nesting too deep")

    def test_deepest_parsed_programs_print_at_the_default_limit(self):
        # the deepest abstraction chain and the deepest parenthesised spine
        # that the parser accepts evaluate and print as written
        shapes = [("\\x. ", "x", ""), ("x (", "x y", ")")]
        for depth, prog, (code, out, err) in _deepest(shapes, ["eval", "{}"]):
            assert depth > 100
            assert (code, out, err) == (0, "{1: %s}\n" % prog, "")

    def test_nested_spines_simulate_at_the_default_limit(self):
        # the spine-argument recursion of sim_check, two frames per nesting
        # level, follows the deepest spine that the parser accepts
        argv = ["sim", "{}", "{}", "--depth", "1", "--fuel", "4"]
        (depth, _, result), = _deepest([("x (", "y", ")")], argv)
        assert depth > 300
        assert result == [0, "NoCounterexample(SimParams(depth=1, fuel=4, slack_enabled=True), "
                          "exact=True)\n", ""]


def _deepest(shapes, argv):
    """In a process of its own, at the default recursion limit: for each
    (prefix, core, suffix) shape, the deepest program ``prefix * n + core
    + suffix * n`` that the parser accepts when ``plamb`` runs ``argv``
    with each ``{}`` replaced by it, with that program and (exit code,
    stdout, stderr) of the run."""
    src = os.path.dirname(os.path.dirname(plamb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _DEEPEST_SCRIPT, json.dumps(shapes), json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


# bisects n for the deepest program whose error, if any, is not the
# parser's positioned "nesting too deep"
_DEEPEST_SCRIPT = r"""
import contextlib, io, json, re, sys
from plamb.cli import main

shapes, argv = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def run(src):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([src if a == "{}" else a for a in argv])
    return code, out.getvalue(), err.getvalue()

results = []
for prefix, core, suffix in shapes:
    make = lambda n: prefix * n + core + suffix * n
    lo, hi = 0, sys.getrecursionlimit()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if re.match(r"error: 1:\d+: nesting too deep", run(make(mid))[2]):
            hi = mid
        else:
            lo = mid
    results.append((lo, make(lo), run(make(lo))))
print(json.dumps(results))
"""


class TestErrorExits:
    """Error paths with their messages and exit codes."""

    @pytest.mark.parametrize("src, msg", [
        ("{1/0: x}", "1:2: bad denominator '0'"),
        ("{1/: x}", "1:4: expected a denominator (got ':')"),
        ("{1: ({1/2: x})}", "1:15: a parenthesized distribution is not a term by itself (got '}')"),
    ])
    def test_parse_errors(self, capsys, src, msg):
        assert run(capsys, "eval", src) == (2, "", "error: %s\n" % msg)

    def test_bad_prelude_line(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "prelude.txt"
        f.write_text("bad line\n", encoding="utf-8")
        monkeypatch.setenv("PLAMB_PRELUDE", str(f))
        assert run(capsys, "eval", "x") == (2, "", "error: %s:1: bad prelude line\n" % f)


class TestInternalError:
    def test_other_exception_exits_3_on_one_line(self, capsys, monkeypatch):
        def broken(d, fuel):
            raise ValueError("boom\nsecond line")

        monkeypatch.setattr(cli, "evolve", broken)
        code, out, err = run(capsys, "eval", "x")
        assert code == 3 and out == ""
        assert err == "error: internal error: ValueError('boom\\nsecond line')\n"

    def test_usage_errors_keep_their_codes(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "evolve", lambda d, fuel: 1 / 0)
        assert run(capsys, "eval", "(")[0] == 2
        assert run(capsys, "eval", "x")[0] == 3


def _parsed(parse, argv):
    """Exit code (None when parsing succeeds), namespace, stdout and
    stderr of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = ns = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, ns, out.getvalue(), err.getvalue()


SIM_OPTIONS = [["--fuel", "3"], ["--format", "json"], ["--depth", "2"], ["--no-slack"]]
# subcommand -> (positionals, one argv tail per option)
COMMANDS = {
    "eval": (["I"], [["--fuel", "3"], ["--format", "json"]]),
    "trace": (["I"], [["--fuel", "3"]]),
    "lts": (["I"], [["--fuel", "3"]]),
    "sim": (["I", "I"], SIM_OPTIONS),
    "bisim": (["I", "I"], SIM_OPTIONS),
    "lift": (["{}"], [["--slack", "1/2"], ["--format", "json"]]),
    "approx": (["I"], [["--fuel", "3"], ["--depth", "2"], ["--grain", "1/4"], ["--check", "c"]]),
    "normalize": (["I"], [["--fuel", "3"], ["--format", "json"]]),
    "selftest": ([], [["--seed", "3"]]),
}


def dispatch_argvs():
    argvs = [[], ["-h"], ["nosuch"], ["--fuel", "3", "eval", "I"]]
    for cmd, (pos, options) in COMMANDS.items():
        argvs.append([cmd, *pos])
        argvs += [[cmd, *pos, *o] for o in options]
        argvs.append([cmd, *sum(options, []), *pos])
        argvs += [
            [cmd, *pos, "--fuel=3"], [cmd, *pos, "--fu", "3"], [cmd, *pos, "--format", "xml"],
            [cmd, *pos, "--fuel", "-1"], [cmd, "-h"], [cmd, *pos, "--help"], [cmd, *pos, "--bogus"],
            [cmd, *pos, "extra"], [cmd, "--", *pos],
        ]
        if pos:
            argvs.append([cmd, *pos[:-1]])
    return argvs + TestMalformedInput.REMOVED_OPTIONS


class TestDispatch:
    """``main`` parses a command with its subcommand's parser; in result,
    output and exit code that is the top-level parser's work."""

    @pytest.mark.parametrize("argv", dispatch_argvs(), ids=" ".join)
    def test_direct_matches_top_level(self, argv):
        top, _ = cli._build_parser()
        assert _parsed(cli._parse_args, argv) == _parsed(top.parse_args, argv)

    def test_subcommand_skips_the_top_level_parser(self, monkeypatch):
        top, _ = cli._build_parser()
        monkeypatch.setattr(top, "parse_args", None)
        args = cli._parse_args(["sim", "I", "I", "--fuel", "3"])
        assert (args.command, args.fuel, args.fn) == ("sim", 3, cli._cmd_sim)


class TestParserReuse:
    """``main`` builds its parser once per process; options of one call
    must not leak into the next."""

    LOOP = r"{1/2: I, 1/2: (\x. x x x) (\x. x x x)}"

    @staticmethod
    def fresh(argv):
        src = os.path.dirname(os.path.dirname(plamb.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "plamb.cli", *argv],
            env=env, capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout.decode()

    def test_consecutive_calls_match_fresh_processes(self, capsys, tmp_path):
        f = tmp_path / "cand.fin"
        f.write_text("{5/8: \\x. _|_}\n", encoding="utf-8")
        approx = ["approx", YT_SRC, "--depth", "2", "--fuel", "6"]
        calls = [
            ["sim", "I", self.LOOP, "--fuel", "4", "--no-slack"],
            ["sim", "I", self.LOOP, "--fuel", "4"],
            ["sim", "I", "I", "--format", "json"],
            ["sim", "I", "I"],
            approx + ["--check", str(f)],
            approx,
        ]
        outs = [run(capsys, *argv)[:2] for argv in calls]
        assert outs[0] != outs[1] and outs[2] != outs[3] and outs[4] != outs[5]
        for argv, got in zip(calls, outs):
            assert got == self.fresh(argv), argv


# every line of output is built from sorted or canonical orders, never
# from set or dict iteration over hashed names
HASH_SEED_SCRIPT = r"""
import json
from plamb import cli
from plamb.corpus import CORPUS_SOURCES as C

lift = json.dumps({
    "source": {"points": ["a", "b", "c"], "weights": ["1/4", "1/4", "1/4"]},
    "target": {"points": ["x", "y", "z"], "weights": ["1/4", "1/8", "1/8"]},
    "relation": [["a", "x"], ["b", "x"], ["c", "y"], ["c", "z"]],
})
calls = [
    ["bisim", "{1/2: x tt ff, 1/2: x ff tt}", "{1/2: x ff ff, 1/2: x tt tt}",
     "--depth", "3", "--fuel", "8"],
    ["lift", lift],
    ["lift", lift, "--format", "json"],
]
calls += [[cmd, src, "--fuel", "8"] for src in C for cmd in ("approx", "lts")]
calls += [["sim", a, b, "--depth", "2", "--fuel", "6"] for a in C[::4] for b in C[1::4]]
for argv in calls:
    print(argv, cli.main(argv))
"""


class TestHashSeed:
    def test_output_independent_of_hash_seed(self):
        src = os.path.dirname(os.path.dirname(plamb.__file__))
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", HASH_SEED_SCRIPT],
                env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert b"cut={'a', 'b'}" in outs[0] and b"Refuted" in outs[0]


class TestSelftest:
    def test_deterministic_and_green(self, capsys):
        code1, out1, _ = run(capsys, "selftest", "--seed", "5")
        code2, out2, _ = run(capsys, "selftest", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "0 failed" in out1

    def test_violations_fail(self, capsys, monkeypatch):
        checks = [("holds", lambda: []), ("broken", lambda: ["a", "b"])]
        monkeypatch.setattr(laws, "battery", lambda seed: checks)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out == "PASS holds\nFAIL broken (2 violations)\n1 passed, 1 failed\n"


class TestTotalVariation:
    def test_half_l1(self):
        a = parse("{1/2: x, 1/2: y}")
        b = parse("{1/4: x, 3/4: y}")
        assert total_variation(a, b) == parse("{1/4: x}").mass()
        assert total_variation(parse(r"\x. x"), parse(r"\y. y")) == 0

    def test_wide_distributions_with_partly_shared_supports(self):
        # about 300 entries a side, 150 of them shared, over different
        # denominators; the reference sums Fraction weights from entries()
        def wide(names, den):
            return Dist([(Var(v), F(i % 7 + 1, den)) for i, v in enumerate(names)])

        names = ["v%d" % i for i in range(450)]
        a, b = wide(names[:300], 2400), wide(names[150:], 3000)
        wa, wb = dict(a.entries()), dict(b.entries())
        ref = sum(abs(wa.get(t, 0) - wb.get(t, 0)) for t in set(wa) | set(wb)) / 2
        assert total_variation(a, b) == total_variation(b, a) == ref
        assert total_variation(a, a) == 0
        assert total_variation(a, Dist()) == a.mass() / 2
