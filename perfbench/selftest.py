"""Self-test of the benchmark, at toy sizes.

    python3 perfbench/selftest.py

Every workload must emit every metric named in BENCHMARK.json, in both the
untraced and the traced mode, with no failed check; the checkers must count
wrong outputs as failures; and the benchmark must refuse to run without the
program's source.  Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def _checker_cases(checks, pcattack) -> list[tuple[str, list[str]]]:
    """Wrong outputs, each of which the named checker must reject."""
    x = pcattack.synth_gaussian(6, 5, seed=3)
    sigma = pcattack.full_svd(x).sigma
    eta = 0.5 * float(sigma[1] - sigma[2])
    _, report = pcattack.attack_rank_one(x, 2, eta)
    report.theta_achieved += 1e-6
    return [
        ("wrong achieved angle", checks.check_report(report, "KLtRankCase2", eta)),
        ("wrong regime", checks.check_attack("KLtRankCase1", "KLtRankCase2", False,
                                             0.3, 0.3, 1.0, 1.0)),
        ("over budget", checks.check_attack("KLtRankCase2", "KLtRankCase2", False,
                                            0.3, 0.3, 1.0 + 1e-6, 1.0)),
        ("NaN in report JSON", checks.check_report_json(
            '{"regime": "KLtRankCase2", "ambiguous_subspace": false, '
            '"theta_predicted": NaN, "theta_achieved": 0.3, "delta_fro_norm": 1.0}',
            "KLtRankCase2", 1.0)[0]),
        ("random oracle beats closed form",
         checks.check_oracle(0.5 + 2e-4, 0.5, checks.RANDOM_ORACLE_TOL)),
        ("grid oracle beats closed form",
         checks.check_oracle(0.5 + 2e-6, 0.5, checks.GRID_ORACLE_TOL)),
        ("rank-one beats unconstrained in a sweep", checks.check_sweep(
            [(0.1, "r1-opt", 0.4, False), (0.1, "wr-opt", 0.3, False)], 1)),
        ("missing sweep rows", checks.check_sweep([(0.1, "r1-opt", 0.3, False)], 1)),
        ("non-finite PCR r2", checks.check_pcr([(0.9, math.nan)], 1)),
        ("failed verify line", checks.check_verify_output(
            "header\nrank-one random 0.5 0.4 -1e-1  VIOLATION\n", 1)),
    ]


def _refuses_without_source(root: Path) -> list[str]:
    """Copy only BENCHMARK.json and this directory; run.py must fail there."""
    scratch = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    try:
        shutil.copy(root / "BENCHMARK.json", scratch)
        shutil.copytree(root / "perfbench", scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=scratch, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0")
    if '"correct"' in proc.stdout:
        problems.append("printed a result")
    return problems


def main() -> int:
    spec = run.load_spec()
    nproc = run.configure()
    import checks
    import harness
    import pcattack
    import workloads

    results: list[tuple[str, list[str]]] = []
    names = [w["name"] for w in spec["workloads"]]
    results.append(("workloads match BENCHMARK.json",
                    [] if sorted(names) == sorted(workloads.WORKLOADS) else
                    [f"{sorted(names)} vs {sorted(workloads.WORKLOADS)}"]))
    for name in names:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.run(name, seed=7, seconds=0.5, trace=trace, nproc=nproc, toy=True)
            expected = {m["name"] for m in spec[group]}
            problems = list(result["problems"])
            if set(result["metrics"]) != expected:
                problems.append(f"metrics differ: missing {sorted(expected - set(result['metrics']))}"
                                f", extra {sorted(set(result['metrics']) - expected)}")
            bad = {k: v for k, v in result["metrics"].items()
                   if not math.isfinite(v) or (not trace and v <= 0)}
            if bad:
                problems.append(f"non-finite or, end to end, non-positive metrics {bad}")
            if result["attempted"] < 1 or result["failed"]:
                problems.append(f"{result['failed']} of {result['attempted']} outputs failed")
            results.append((f"{name} trace={int(trace)} emits every metric, failed_frac 0",
                            problems))
    for label, problems in _checker_cases(checks, pcattack):
        results.append((f"checker rejects: {label}", [] if problems else ["accepted"]))
    results.append(("refuses to run without the source", _refuses_without_source(run.ROOT)))

    for label, problems in results:
        print(f"{'PASS' if not problems else 'FAIL'} {label}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if any(problems for _, problems in results) else 0


if __name__ == "__main__":
    sys.exit(main())
