"""Documented command lines must parse.

Every ``python -m repro ...`` line in the docs, the CI workflow and the
verify skill is fed to the real argument parser (nothing is executed),
so a flag the generated CLI renames or drops fails here instead of in a
reader's terminal.  The override reference table in EXPERIMENTS.md is
checked against the override table the flags are generated from.
"""

import glob
import os
import re
import shlex

import pytest

from repro.cli import build_parser
from repro.harness import OVERRIDES

ROOT = os.path.join(os.path.dirname(__file__), "..")
DOCUMENTS = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    *sorted(
        os.path.relpath(path, ROOT)
        for path in glob.glob(os.path.join(ROOT, "docs", "*.md"))
    ),
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
]

#: A command runs to the end of its line (or its inline-code span, or a
#: trailing ``# comment``); a following line that opens with ``[`` is
#: the rest of an optional-flag synopsis.
COMMAND = re.compile(r"python -m repro\b((?:[^`#\n]|\n(?=\[))*)")

#: Synopsis placeholders -> a value the parser can take.
PLACEHOLDERS = {
    "<name|all>": "all",
    "<exp>": "scaling",
    "<scenario>": "ring",
    "--rollback/--no-rollback": "--rollback",
    "N": "1",
    "S": "1.1",
    "SCOPE": "all",
    "SPEC": "v1",
}


def documented_commands():
    for document in DOCUMENTS:
        with open(os.path.join(ROOT, document)) as fh:
            text = fh.read()
        for match in COMMAND.finditer(text):
            command = match.group(1).replace("[", " ").replace("]", " ")
            # "python -m repro {a,b,c}" / "<cmd>" name the command set,
            # not one command line.
            if not command.strip() or "{" in command or "<cmd>" in command:
                continue
            line = text.count("\n", 0, match.start()) + 1
            argv = [PLACEHOLDERS.get(a, a) for a in shlex.split(command)]
            yield pytest.param(argv, id=f"{document}:{line}")


COMMANDS = list(documented_commands())


def test_the_documents_still_carry_their_commands():
    assert len(COMMANDS) >= 40
    assert {param.id.split(":")[0] for param in COMMANDS} >= {
        "README.md", "EXPERIMENTS.md", "docs/perf.md",
        ".github/workflows/ci.yml",
    }


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_line_parses(argv, capsys):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(
            f"python -m repro {' '.join(argv)}: {capsys.readouterr().err}"
        )
    assert callable(args.fn)


def test_override_reference_matches_the_override_table():
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as fh:
        text = " ".join(fh.read().split())
    for row in OVERRIDES:
        assert f"| `{row.flag}` | {row.axis} | {row.help} |" in text, row.flag
