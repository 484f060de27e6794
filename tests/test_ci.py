"""The CI workflow against the commands and versions it must run.

The workflow is read as text, with no YAML parser, so these checks need
nothing beyond the standard library and catch drift without running CI.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def run_commands(text: str) -> list[str]:
    """The command lines of the workflow's ``run`` steps, in order: the value
    of a one-line ``run:``, or each line of a ``run: |`` block."""
    commands, block = [], None
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        if block is not None and (not line.strip() or indent > block):
            if line.strip():
                commands.append(line.strip())
            continue
        block = None
        match = re.match(r"\s*(?:- )?run:\s*(.*)$", line)
        if match:
            if match.group(1) in ("|", ">"):
                block = indent
            else:
                commands.append(match.group(1).strip())
    return commands


def tier1_command() -> str:
    match = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$",
                      (ROOT / "ROADMAP.md").read_text(), re.MULTILINE)
    assert match, "ROADMAP.md has no Tier-1 verify line"
    return match.group(1)


def test_runs_tier1_then_the_bench_self_test():
    commands = run_commands(WORKFLOW)
    assert tier1_command() in commands
    assert "python3 perfbench/selftest.py" in commands
    assert (commands.index(tier1_command())
            < commands.index("python3 perfbench/selftest.py"))


def test_token_reads_contents_only():
    assert re.search(r"^permissions:\n\s+contents: read\s*$", WORKFLOW, re.MULTILINE)


def test_matrix_has_the_requires_python_floor():
    floor = re.search(r'^requires-python\s*=\s*">=\s*([0-9.]+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", WORKFLOW)
    assert floor and matrix
    versions = [v.strip().strip("\"'") for v in matrix.group(1).split(",")]
    assert floor.group(1) in versions


def test_reader_finds_block_and_inline_commands():
    text = ("steps:\n"
            "  - run: echo one\n"
            "  - name: two\n"
            "    run: |\n"
            "      echo two\n"
            "\n"
            "      echo three\n"
            "  - run: echo four\n")
    assert run_commands(text) == ["echo one", "echo two", "echo three", "echo four"]
