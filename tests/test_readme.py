"""The README's examples: its fault schedule parses, and the command
lines whose output it shows in full print exactly that output."""

import re
import shlex
from pathlib import Path

from wpec.cli import main
from wpec.protocol import parse_schedule

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_BLOCKS = re.findall(r"^```[^\n]*\n(.*?)^```", README, flags=re.M | re.S)


def _filter(pipe: str, lines: list[str]) -> list[str]:
    """Apply one shell filter of the README's pipelines to output lines."""
    cmd, *arg = pipe.split()
    if cmd == "head":
        return lines[: int(arg[0][1:])]
    if cmd == "tail":
        return lines[-int(arg[0][1:]) :]
    assert (cmd, arg) == ("wc", ["-l"]), pipe
    return [str(len(lines))]


def _examples():
    """(command, shown output lines) for every ``$`` line of the README."""
    for block in _BLOCKS:
        parts = re.split(r"^\$ ", block, flags=re.M)[1:]
        for part in parts:
            command, *output = part.rstrip("\n").split("\n")
            yield command, output


def test_schedule_block_parses():
    block = next(b for b in _BLOCKS if b.startswith("0 gate "))
    schedule = parse_schedule(block)
    assert len(schedule) == len(block.splitlines())
    assert schedule[-1].circuit == "x1#"


def test_command_examples_print_what_the_readme_shows(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    compared = 0
    for command, shown in _examples():
        if command.startswith("cat "):  # a file the later examples read
            (tmp_path / command[4:]).write_text("\n".join(shown) + "\n")
            continue
        if any("..." in line for line in shown):  # output elided
            continue
        wpec, *pipes = command.split(" | ")
        argv = shlex.split(wpec)
        assert argv[0] == "wpec", command
        assert main(argv[1:]) == 0, command
        lines = capsys.readouterr().out.splitlines()
        for pipe in pipes:
            lines = _filter(pipe, lines)
        assert lines == shown, command
        compared += 1
    assert compared == 5
