"""The README's examples run as written: its library block and every
``localmass ...`` command line of its shell blocks."""

import re
from pathlib import Path

import pytest

import localmass.cli as cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


COMMANDS = [
    line.split()[1:]
    for block in blocks("sh")
    for line in block.splitlines()
    if line.startswith("localmass ")
]


def test_readme_has_examples():
    assert len(blocks("python")) == 1
    assert len(COMMANDS) == 11


def test_library_example_runs():
    exec(compile(blocks("python")[0], "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_example_runs(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
