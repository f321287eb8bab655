"""The README's library example and command lines run as written, so a
deleted or renamed public name or verb cannot stay in the docs."""

import re
import shlex
from pathlib import Path

from opcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# verbs whose README comment quotes the start of the first output line
QUOTED = ("apply", "d-expand", "normal-order", "counterexample")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_run(capsys, monkeypatch):
    monkeypatch.delenv("OPCALC_FORMAT", raising=False)
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("opcalc ")]
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, line
        first = capsys.readouterr().out.splitlines()[0]
        if argv[0] in QUOTED:
            assert first.startswith(comment.strip()), (line, first)
