"""README's command-line examples print what README says they print."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from netmansim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def shell_examples() -> list[tuple[str, str]]:
    """Each ``$ netmansim ...`` command in README and the lines shown after it."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text("utf-8"), re.M | re.S)
    return [
        (command, output)
        for command, output in (block.split("\n", 1) for block in blocks)
        if command.startswith("$ netmansim ")
    ]


EXAMPLES = shell_examples()


def test_readme_has_its_three_examples():
    assert [shlex.split(command)[2] for command, _ in EXAMPLES] == [
        "simulate",
        "validate",
        "explain",
    ]


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_readme_shows(command, expected):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(shlex.split(command)[2:])
    assert code == 0
    assert stdout.getvalue() == expected
