"""Every demo script runs to completion against the current API, and the
demos that write a CSV next to themselves rewrite the committed one byte
for byte, which pins the sweep and PCR results to 12 significant digits.
The verify demo exits 1 when a check fails."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from pcattack import oracle

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WRITES_CSV = {"budget_sweep_general", "budget_sweep_low_rank", "pcr_degradation"}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    csv = script.with_suffix(".csv")
    committed = csv.read_bytes() if script.stem in WRITES_CSV else None
    try:
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        if committed is not None:
            assert csv.read_bytes() == committed, f"{csv.name} differs from the committed file"
    finally:
        if committed is not None:
            csv.write_bytes(committed)    # a failing run must not replace the pin


def test_verify_demo_exits_1_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_tolerance", lambda *args: -1.0)
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(ROOT / "demos" / "verify_with_oracles.py"), run_name="__main__")
    assert exited.value.code == 1
    out = capsys.readouterr().out
    assert out.count(": VIOLATION\n") == 3 and "all oracle checks FAILED" in out
