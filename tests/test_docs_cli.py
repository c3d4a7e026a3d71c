"""The CLI the docs quote is the CLI that exists.

Every ``repro <subcommand> ... --flag`` quoted in README.md or
docs/*.md (fenced blocks and inline code spans) must name a subcommand
of :func:`repro.cli.build_parser` and a flag that subcommand accepts,
and every subcommand must appear in README.md — so deleting or
renaming a command or flag fails here until the docs follow.  The
``repro health`` samples carry the rate header line ``render_rates``
prints, so adding or dropping a column fails here too.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.obs.health import render_rates

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_INLINE = re.compile(r"`([^`\n]+)`")
_COMMAND = re.compile(r"\brepro\s+([a-z][\w-]*)(.*)")
#: where a quoted command line stops: a comment, a pipe, a redirect,
#: the next shell command
_END = re.compile(r"[#|;&`]|\s>|\$\(")
_FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _quoted_commands(path):
    """(subcommand, flags) for every ``repro <word>`` in ``path``'s
    code, with ``\\``-continued lines joined."""
    text = path.read_text(encoding="utf-8")
    code = [m.group(0) for m in _FENCE.finditer(text)]
    code += _INLINE.findall(_FENCE.sub("", text))
    for chunk in code:
        for line in chunk.replace("\\\n", " ").splitlines():
            for m in _COMMAND.finditer(line):
                tail = _END.split(m.group(2))[0]
                yield m.group(1), _FLAG.findall(tail)


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_quoted_commands_and_flags_exist(path):
    commands = _subcommands()
    problems = []
    for name, flags in _quoted_commands(path):
        if name not in commands:
            problems.append(f"repro {name}: no such subcommand")
            continue
        known = {opt for action in commands[name]._actions
                 for opt in action.option_strings}
        problems += [f"repro {name} {flag}: no such flag"
                     for flag in flags if flag not in known]
    assert not problems, f"{path.name}: " + "; ".join(sorted(set(problems)))


def test_quoted_commands_are_found():
    """The scan itself works: README quotes several subcommands."""
    names = {name for name, _ in _quoted_commands(ROOT / "README.md")}
    assert {"pagerank", "stats", "cluster", "health"} <= names


def test_every_subcommand_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in _subcommands()
               if f"`{name}`" not in readme
               and not re.search(rf"\brepro\s+{name}\b", readme)]
    assert not missing, f"README.md never mentions: {missing}"


@pytest.mark.parametrize("name", ["NET.md", "OBSERVABILITY.md"])
def test_health_samples_match_render_rates(name):
    text = (ROOT / "docs" / name).read_text(encoding="utf-8")
    # a sample is a fence holding health's output, not just the command
    samples = [m.group(0) for m in _FENCE.finditer(text)
               if "$ python -m repro health" in m.group(0)]
    assert samples, f"{name} has no repro health sample"
    header = render_rates({})
    for sample in samples:
        assert header in sample.splitlines(), (
            f"{name}: a repro health sample's header is not {header!r}")
