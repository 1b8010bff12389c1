"""The README's command-line examples run and exit as documented.

Every ``otlab ...`` line of the last fenced block of the README's "Command
line" section runs through ``cli.main`` in a temporary directory, its inline
comment stripped.  A line whose comment says ``exits 2`` must exit 2; every
other line must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from otlab import cli

_README = Path(__file__).resolve().parents[1] / "README.md"


def _example_lines() -> list:
    section = _README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.findall(r"```bash\n(.*?)```", section, re.S)[-1]
    return [line for line in block.splitlines() if line.startswith("otlab ")]


_LINES = _example_lines()


def test_the_examples_include_both_exit_codes():
    assert sum("# exits 2" in line for line in _LINES) == 2
    assert len(_LINES) > 2


@pytest.mark.parametrize("line", _LINES, ids=range(len(_LINES)))
def test_readme_example_exits_as_documented(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OTLAB_SEED", raising=False)
    argv = shlex.split(line, comments=True)
    assert cli.main(argv[1:]) == (2 if "# exits 2" in line else 0), capsys.readouterr().err
