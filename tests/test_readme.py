"""README.md stays honest: its command lines parse and its library quick
start runs against the current API."""

import re
import shlex
from pathlib import Path

import pytest

from qest.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def qest_command_lines() -> list:
    """The arguments of every `qest ...` line of README's shell blocks, with
    backslash continuations joined."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["qest"]:
                lines.append(words[1:])
    return lines


def test_every_command_line_parses():
    lines = qest_command_lines()
    assert len(lines) == 7
    parser = build_parser()
    for words in lines:
        parser.parse_args(words)


@pytest.mark.slow
def test_library_quick_start_runs(monkeypatch, capsys):
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", README, flags=re.S)
    monkeypatch.setenv("QEST_THREADS", "1")
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0.0
