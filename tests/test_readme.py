"""The README's examples, run as shown: the three ``$ plamb`` commands
through ``cli.main`` and the library quick start through the API."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from plamb.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README, re.S)


def _cli_examples():
    """(argv, shown output) for each ``$ plamb`` example."""
    block, = [b for b in _blocks("sh") if "$ plamb" in b]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.split("\n")
        assert command.startswith("$ plamb ")
        examples.append((shlex.split(command[2:])[1:], "\n".join(shown)))
    return examples


def _run(argv, capsys):
    capsys.readouterr()
    main(argv)
    return capsys.readouterr().out


def test_three_cli_examples_are_shown():
    assert [argv[0] for argv, _ in _cli_examples()] == ["eval", "sim", "bisim"]


def test_cli_examples(capsys):
    for argv, shown in _cli_examples():
        out = _run(argv, capsys)
        if argv[0] == "eval":
            assert out == shown + "\n"
        elif argv[0] == "sim":
            assert json.loads(out) == json.loads(shown)
        else:
            # the README elides the witness after "..."
            lines = out.splitlines()
            assert len(lines) == len(shown.splitlines())
            for line, text in zip(lines, shown.splitlines()):
                assert line.startswith(text.split("...")[0]), (line, text)


def test_library_quick_start():
    block, = [b for b in _blocks("python") if "approx_generate" in b]
    comments = re.findall(r"# (.*)", block)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == comments[0]
    # "True (slack absorbs 1/8)": the note in parentheses is not printed
    assert lines[1] == comments[1].split(" (")[0]
    # the approximants, in canonical order
    assert lines[2:] == comments[2:]
