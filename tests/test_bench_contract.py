"""Every benchmark workload runs against the program at toy size, and every
output passes the benchmark's own checks.

``perfbench/`` reads names and fields of the program: the attack results and
reports, sweep rows, PCR reports and the CLI's output.  A change that breaks
one fails here instead of showing up only as failed operations in a
benchmark run.  perfbench is imported as it is and never written to.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pcattack import oracle
from pcattack.cli import main

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


# The wrapped import sites that the program no longer has.  A site that goes
# missing reads 0 in its per-layer metric instead of failing the benchmark, so
# the list may shrink but not grow.
ABSENT_SPAN_SITES = {
    "pcattack.rank_one.full_svd", "pcattack.unconstrained.full_svd",
    "pcattack.experiments.full_svd", "pcattack.rank_one.attack_k_lt_rank",
    "pcattack.rank_one.attack_full_rank", "pcattack.rank_one.attack_low_rank",
    "pcattack.rank_one.predicted_theta", "pcattack.experiments.eta_scale",
    "pcattack.pcr.eta_scale", "pcattack.pcr.attack_rank_one",
    "pcattack.pcr.attack_unconstrained",
}


def _import_perfbench(name):
    """A module of ``perfbench/``, imported without writing bytecode there."""
    path, dont_write = str(ROOT / "perfbench"), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(path)


@pytest.fixture(scope="module")
def workloads():
    return _import_perfbench("workloads")


def test_no_more_span_sites_are_absent():
    tracer = _import_perfbench("spans").Tracer()
    with tracer.installed():
        pass
    assert set(tracer.absent) <= ABSENT_SPAN_SITES, sorted(set(tracer.absent) - ABSENT_SPAN_SITES)


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


def test_sliced_scoring_keeps_one_span_per_chunk(monkeypatch):
    # The benchmark's toy oracle calls are too small to be sliced across
    # threads; 5000 trials in chunks of 1700 are, on two workers.
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 8 * 5 ** 2 * 1700)
    tracer = _import_perfbench("spans").Tracer()
    x = np.random.default_rng(1).standard_normal((5, 5))
    with tracer.installed(), tracer.span("operation") as operation:
        oracle.random_unconstrained(x, 3, 0.1, oracle.SearchConfig(trials=5000, seed=1))
    scored = [s for s in tracer.spans if s["name"] == "oracle.batched_theta"]
    assert len(scored) == 3
    assert all(s["parent"] == operation["id"] for s in scored)
    assert all(s["parent"] in (None, operation["id"]) for s in tracer.spans)
