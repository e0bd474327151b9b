"""The README's examples run and succeed.

Every ``ring-spectra`` line of the "Command line" block (backslash
continuations joined) goes through ``cli.main`` in a scratch directory,
and the "Library quickstart" block is executed as it stands, so an
example that stops working fails here instead of for a reader.
"""

import re
import shlex
from pathlib import Path

import pytest

from ring_spectra.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def command_line_examples() -> list[str]:
    lines = readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("ring-spectra ")]


EXAMPLES = command_line_examples()


def test_the_block_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("line", EXAMPLES, ids=[f"{i}-{e.split()[1]}" for i, e in enumerate(EXAMPLES)])
def test_readme_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    err = capsys.readouterr().err
    assert code == 0, err


def test_library_quickstart_runs(capsys):
    namespace = {}
    exec(readme_block("Library quickstart", "python"), namespace)
    out = capsys.readouterr().out
    # the loop over s.roots prints one line per root of the last slice
    assert out.count(" multiplicity ") == len(namespace["s"].roots) > 0
