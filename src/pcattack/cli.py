"""Command-line front end: attacks, sweeps, PCR study, oracle verification.

Exit codes: 0 success, 2 usage or parse failure, 3 no applicable attack
regime, 4 an oracle beat a closed form (verification failure).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PcattackError, RegimeError
from .experiments import ATTACKS, parse_sweep_spec, run_sweep, write_sweep_csv
from .fileio import read_matrix_csv, write_matrix_csv
from .linalg import check_attack, full_svd
from .oracle import SearchConfig, grid_search_angles
from .pcr import (DEFAULT_ETA_RATIOS, attack_pcr, load_feature_csv, synthetic_collinear,
                  write_regression_csv)
from .report import Regime

RANDOM_ORACLE_TOL = 1e-4
GRID_ORACLE_TOL = 1e-6


def _cmd_attack(args) -> int:
    x, k, eta = check_attack(read_matrix_csv(args.matrix), args.k, args.eta)
    closed_form, _ = ATTACKS[args.strategy]
    attack, report = closed_form(x, full_svd(x), k, eta)
    payload = json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    if args.emit_delta:
        write_matrix_csv(args.emit_delta, attack.delta)
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_sweep_spec(args.spec)
    rows = run_sweep(spec)
    write_sweep_csv(rows, args.out)
    return 0


def _cmd_pcr(args) -> int:
    if args.synthetic:
        features, targets = synthetic_collinear(seed=args.seed)
    else:
        if args.data is None:
            print("error: provide a data file or --synthetic", file=sys.stderr)
            return 2
        features, targets = load_feature_csv(args.data)
    if args.eta_grid:
        grid = [float(v) for v in args.eta_grid.split(",")]
    else:
        grid = list(DEFAULT_ETA_RATIOS)
    reports = attack_pcr(features, targets, args.k, grid, args.strategy,
                         split_seed=args.seed)
    write_regression_csv(reports, args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = SearchConfig(trials=args.trials, seed=args.seed)
    x, k, eta = check_attack(read_matrix_csv(args.matrix), args.k, args.eta)
    # Both closed forms read one factorization; each oracle factors on its own
    # so that it stays independent of the closed form it checks.
    svd = full_svd(x)
    checks = []
    for name, (closed_form, oracle) in ATTACKS.items():
        label = name.replace("_", "-")
        _, report = closed_form(x, svd, k, eta)
        _, oracle_theta = oracle(x, k, eta, cfg)
        checks.append((f"{label} random", oracle_theta, report.theta_predicted,
                       RANDOM_ORACLE_TOL))
        if report.regime == Regime.K_LT_RANK_CASE2:
            _, _, grid_theta = grid_search_angles(
                float(svd.sigma[k - 1]), float(svd.sigma[k]), eta, cfg)
            checks.append((f"{label} grid", grid_theta, report.theta_predicted,
                           GRID_ORACLE_TOL))

    print(f"{'check':<22} {'oracle':>12} {'closed':>12} {'margin':>12}  status")
    failed = False
    for name, oracle_theta, closed_theta, tol in checks:
        margin = closed_theta - oracle_theta
        ok = oracle_theta <= closed_theta + tol
        failed = failed or not ok
        print(f"{name:<22} {oracle_theta:>12.8f} {closed_theta:>12.8f} "
              f"{margin:>+12.2e}  {'ok' if ok else 'VIOLATION'}")
    return 4 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcattack",
        description="Optimal adversarial perturbations of PCA subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_attack = sub.add_parser("attack", help="write a JSON attack report")
    p_attack.add_argument("matrix", help="matrix CSV (columns are samples)")
    p_attack.add_argument("--k", type=int, required=True)
    p_attack.add_argument("--eta", type=float, required=True)
    p_attack.add_argument("--strategy", choices=ATTACKS, default="rank_one")
    p_attack.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_attack.add_argument("--emit-delta", metavar="PATH",
                          help="also write the perturbation as a matrix CSV")
    p_attack.set_defaults(func=_cmd_attack)

    p_sweep = sub.add_parser("sweep", help="run a budget sweep from a spec file")
    p_sweep.add_argument("spec", help="key=value sweep description")
    p_sweep.add_argument("--out", required=True, help="result CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pcr = sub.add_parser("pcr", help="PCR degradation study")
    p_pcr.add_argument("data", nargs="?", default=None,
                       help="feature CSV, one sample per row, target last")
    p_pcr.add_argument("--synthetic", action="store_true",
                       help="use the built-in collinear benchmark")
    p_pcr.add_argument("--k", type=int, required=True)
    p_pcr.add_argument("--eta-grid", default=None,
                       help="comma-separated budget ratios")
    p_pcr.add_argument("--strategy", choices=ATTACKS, default="unconstrained")
    p_pcr.add_argument("--seed", type=int, default=0)
    p_pcr.add_argument("--out", required=True, help="report CSV path")
    p_pcr.set_defaults(func=_cmd_pcr)

    p_verify = sub.add_parser("verify", help="check closed forms against oracles")
    p_verify.add_argument("matrix", help="matrix CSV (columns are samples)")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--eta", type=float, required=True)
    p_verify.add_argument("--trials", type=int, default=10_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PcattackError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
