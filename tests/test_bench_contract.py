"""Every benchmark workload runs against the program at toy size, and every
output passes the benchmark's own checks.

``perfbench/`` reads names and fields of the program: the attack results and
reports, sweep rows, PCR reports and the CLI's output.  A change that breaks
one fails here instead of showing up only as failed operations in a
benchmark run.  perfbench is imported as it is and never written to.
"""

import json
import sys
from pathlib import Path

import pytest

from pcattack.cli import main

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported without writing bytecode there."""
    path, dont_write = str(ROOT / "perfbench"), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(path)
    return workloads


def test_workloads_match_benchmark_json(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_one_cycle_and_cli_call_pass_their_checks(workloads, name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name](7, tmp_path, True)
    workload.setup()
    calls = [call for request in workload.cycle(0) for call in request]
    assert calls
    for call in calls:
        assert call.check(call.fn()) == [], call.kind
    cli = workload.cli_calls()[0]
    capsys.readouterr()
    assert main(cli.argv) == 0
    assert cli.check(capsys.readouterr().out) == []
