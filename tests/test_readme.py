"""The README's code runs as written.

Every fenced ``python`` block runs, in order, in one namespace.  Every
``pcattack`` line of its ``sh`` blocks runs through ``cli.main`` in a scratch
directory and exits 0, on inputs written there first: each ``ini`` block
whose first line is ``# <file name>``, a matrix CSV ``x.csv`` and a feature
CSV ``spectra.csv``.  The README's exit-code sentence names the codes of
the ``cli`` module docstring.
"""

import re
import shlex
from pathlib import Path

import numpy as np

from pcattack import cli, synth_gaussian, synthetic_collinear, write_matrix_csv

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# a fence may be indented, as in a list item; its body is dedented by as much
FENCE = re.compile(r"^( *)```(\w*)\n(.*?)^\1```$", re.M | re.S)
BLOCKS = [(lang, "".join(line[len(indent):] for line in body.splitlines(keepends=True)))
          for indent, lang, body in FENCE.findall(README)]


def test_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks
    namespace = {}
    for body in blocks:
        exec(compile(body, "README.md", "exec"), namespace)


def _commands() -> list[list[str]]:
    """The arguments of each ``pcattack`` line of the ``sh`` blocks, with
    continuation lines joined and comments dropped."""
    commands = []
    for lang, body in BLOCKS:
        if lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["pcattack"]:
                    commands.append(argv[1:])
    return commands


def test_commands_exit_0(tmp_path, monkeypatch):
    commands = _commands()
    assert {argv[0] for argv in commands} == {"attack", "sweep", "pcr", "verify"}
    for lang, body in BLOCKS:
        name = re.match(r"# (\S+)\n", body)
        if lang == "ini" and name:
            (tmp_path / name.group(1)).write_text(body)
    write_matrix_csv(tmp_path / "x.csv", synth_gaussian(8, 6, seed=0))
    features, targets = synthetic_collinear(seed=0)
    np.savetxt(tmp_path / "spectra.csv", np.column_stack([features.T, targets]), delimiter=",")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv


def _exit_codes(text: str) -> set[int]:
    """The one-digit numbers of the sentence that starts with ``Exit codes:``."""
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", text, re.S).group(1)
    return {int(code) for code in re.findall(r"\b\d\b", sentence)}


def test_exit_codes_match_the_cli():
    assert _exit_codes(README) == _exit_codes(cli.__doc__) == {0, 2, 3, 4}
