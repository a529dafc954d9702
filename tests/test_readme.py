"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from fractal_forest import cli

README = (Path(__file__).parents[1] / "README.md").read_text()
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in re.findall(r"^fractal-forest .*$", README, flags=re.MULTILINE)
]


def test_readme_has_commands_and_one_library_block():
    assert COMMANDS
    assert README.count("```python\n") == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_readme_library_block_runs(capsys):
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "524880" in capsys.readouterr().out
