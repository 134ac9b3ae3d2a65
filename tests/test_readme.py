"""The README's examples: its fault schedule parses, its library example
runs and prints the correction it implies, and the command lines whose
output it shows in full print exactly that output."""

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


def test_library_block_decodes_its_input_error(capsys):
    # the README's python example: a Z input on qubit 15 is decoded back
    (block,) = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "I" * 14 + "Z" + "I" * 34 + "\n"


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


def test_bundle_comments_follow_the_schedule_rule(tmp_path, capsys):
    # the README bundle with a trailing comment decodes to the README's
    # correction; a '#' inside a word starts no comment
    shown = dict(_examples())
    bundle, correction = shown["cat bundle.txt"], shown["wpec decode bundle.txt"]
    path = tmp_path / "bundle.txt"
    path.write_text("\n".join([bundle[0] + "  # block 3", *bundle[1:]]) + "\n")
    assert main(["decode", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == correction
    path.write_text("\n".join([bundle[0] + "#3", *bundle[1:]]) + "\n")
    assert main(["decode", str(path)]) == 2
    assert "field s_x needs 21 bits" in capsys.readouterr().err
