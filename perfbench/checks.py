"""Correctness checks on every benchmark output.

Each check returns a list of problems; an empty list means the output is
correct.  The tolerances are the acceptance tolerances of the project:
1e-8 between predicted and achieved angles, 1e-4 and 1e-6 by which a
random or grid oracle may exceed a closed form.
"""

from __future__ import annotations

import csv
import io
import json
import math

ANGLE_TOL = 1e-8
RANDOM_ORACLE_TOL = 1e-4
GRID_ORACLE_TOL = 1e-6
SWEEP_ORDER_TOL = 1e-8
# The budget actually used is a computed norm, so it may exceed eta by
# rounding; CSV output keeps 12 significant digits.
BUDGET_RTOL = 1e-10
CSV_RTOL = 1e-9


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def check_attack(regime: str, expected_regime: str, ambiguous: bool,
                 theta_predicted: float, theta_achieved: float,
                 budget_used: float, eta: float) -> list[str]:
    problems = []
    if regime != expected_regime:
        problems.append(f"regime {regime}, expected {expected_regime}")
    values = (theta_predicted, theta_achieved, budget_used)
    if not all(math.isfinite(v) for v in values):
        return problems + [f"non-finite report values {values}"]
    if not ambiguous and abs(theta_achieved - theta_predicted) > ANGLE_TOL:
        problems.append(f"achieved angle {theta_achieved!r} differs from predicted "
                        f"{theta_predicted!r} by more than {ANGLE_TOL}")
    if budget_used > eta * (1.0 + BUDGET_RTOL):
        problems.append(f"budget used {budget_used!r} exceeds eta {eta!r}")
    return problems


def check_report(report, expected_regime: str, eta: float) -> list[str]:
    """Check an ``AttackReport`` from the library."""
    return check_attack(report.regime.value, expected_regime, report.ambiguous_subspace,
                        report.theta_predicted, report.theta_achieved,
                        report.budget_used, eta)


def check_report_json(text: str, expected_regime: str, eta: float) -> tuple[list[str], dict]:
    """Check the JSON report that ``pcattack attack`` prints."""
    try:
        report = strict_json(text)
        return check_attack(report["regime"], expected_regime, report["ambiguous_subspace"],
                            report["theta_predicted"], report["theta_achieved"],
                            report["delta_fro_norm"], eta), report
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc}"], {}


def check_emitted_delta(delta, shape: tuple, fro_norm: float, eta: float) -> list[str]:
    """The perturbation CSV must match the report's norm and stay in budget."""
    if delta.shape != shape:
        return [f"delta shape {delta.shape}, expected {shape}"]
    norm = float((delta ** 2).sum()) ** 0.5
    problems = []
    if abs(norm - fro_norm) > CSV_RTOL * max(fro_norm, 1e-300):
        problems.append(f"delta CSV norm {norm!r} differs from reported {fro_norm!r}")
    if norm > eta * (1.0 + CSV_RTOL):
        problems.append(f"delta CSV norm {norm!r} exceeds eta {eta!r}")
    return problems


def check_oracle(oracle_theta: float, closed_theta: float, tol: float) -> list[str]:
    if not math.isfinite(oracle_theta):
        return [f"non-finite oracle angle {oracle_theta!r}"]
    if oracle_theta > closed_theta + tol:
        return [f"oracle angle {oracle_theta!r} beats closed form {closed_theta!r} by > {tol}"]
    return []


def check_sweep(rows, n_ratios: int) -> list[str]:
    """``rows`` hold (eta_ratio, strategy, theta, error) for r1-opt and wr-opt."""
    if len(rows) != 2 * n_ratios:
        return [f"{len(rows)} sweep rows, expected {2 * n_ratios}"]
    by_ratio: dict[float, dict[str, float]] = {}
    problems = []
    for ratio, strategy, theta, error in rows:
        if error or theta is None or not math.isfinite(theta):
            problems.append(f"sweep cell {strategy} at {ratio}: error={error} theta={theta}")
            continue
        by_ratio.setdefault(ratio, {})[strategy] = theta
    for ratio, cell in by_ratio.items():
        if set(cell) != {"r1-opt", "wr-opt"}:
            problems.append(f"ratio {ratio} has strategies {sorted(cell)}")
        elif cell["r1-opt"] > cell["wr-opt"] + SWEEP_ORDER_TOL:
            problems.append(f"ratio {ratio}: rank-one {cell['r1-opt']!r} beats "
                            f"unconstrained {cell['wr-opt']!r}")
    return problems


def check_sweep_csv(text: str, n_ratios: int) -> list[str]:
    rows = []
    try:
        for rec in csv.DictReader(io.StringIO(text)):
            theta = float(rec["theta"]) if rec["theta"] else None
            error = "[error" in rec["strategy"]
            rows.append((float(rec["eta_ratio"]), rec["strategy"], theta, error))
    except (ValueError, KeyError) as exc:
        return [f"malformed sweep CSV: {exc}"]
    return check_sweep(rows, n_ratios)


def check_pcr(r2_pairs, n_ratios: int) -> list[str]:
    """``r2_pairs`` hold (r2_train, r2_test) per budget ratio."""
    if len(r2_pairs) != n_ratios:
        return [f"{len(r2_pairs)} PCR rows, expected {n_ratios}"]
    bad = [pair for pair in r2_pairs if not all(math.isfinite(v) for v in pair)]
    return [f"non-finite PCR r2 {bad}"] if bad else []


def check_pcr_csv(text: str, n_ratios: int) -> list[str]:
    try:
        pairs = [(float(rec["r2_train"]), float(rec["r2_test"]))
                 for rec in csv.DictReader(io.StringIO(text))]
    except (ValueError, KeyError) as exc:
        return [f"malformed PCR CSV: {exc}"]
    return check_pcr(pairs, n_ratios)


def check_verify_output(text: str, n_checks: int) -> list[str]:
    """``pcattack verify`` prints a header and one status line per check."""
    lines = [line for line in text.splitlines()[1:] if line.strip()]
    if len(lines) != n_checks:
        return [f"verify printed {len(lines)} checks, expected {n_checks}"]
    bad = [line for line in lines if not line.rstrip().endswith(" ok")]
    return [f"verify check failed: {line}" for line in bad]
