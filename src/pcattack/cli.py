"""Command-line front end: attacks, sweeps, PCR study, oracle verification.

Exit codes: 0 success, 2 usage or parse failure, 3 no applicable attack
regime, 4 an oracle beat a closed form (verification failure).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PcattackError, RegimeError
from .experiments import parse_sweep_spec, run_sweep, write_sweep_csv
from .fileio import read_matrix_csv, write_matrix_csv
from .oracle import SearchConfig, grid_search_angles, random_rank_one, random_unconstrained
from .pcr import (DEFAULT_ETA_RATIOS, PCR_STRATEGIES, attack_pcr, load_feature_csv,
                  synthetic_collinear, write_regression_csv)
from .rank_one import attack_rank_one
from .report import Regime
from .unconstrained import attack_unconstrained

RANDOM_ORACLE_TOL = 1e-4
GRID_ORACLE_TOL = 1e-6


def _cmd_attack(args) -> int:
    x = read_matrix_csv(args.matrix)
    if args.strategy == "rank_one":
        attack, report = attack_rank_one(x, args.k, args.eta)
        delta = attack.delta
    else:
        pm, report = attack_unconstrained(x, args.k, args.eta)
        delta = pm.delta
    payload = json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    if args.emit_delta:
        write_matrix_csv(args.emit_delta, delta)
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
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    x = read_matrix_csv(args.matrix)
    cfg = SearchConfig(trials=args.trials, seed=args.seed)
    offset = args.inject_theta_offset

    checks = []
    _, r1_report = attack_rank_one(x, args.k, args.eta)
    r1_star = r1_report.theta_predicted - offset
    _, r1_rnd_theta = random_rank_one(x, args.k, args.eta, cfg)
    checks.append(("rank-one random", r1_rnd_theta, r1_star, RANDOM_ORACLE_TOL))
    if r1_report.regime == Regime.K_LT_RANK_CASE2:
        sigma = r1_report.sigma
        _, _, grid_theta = grid_search_angles(
            float(sigma[args.k - 1]), float(sigma[args.k]), args.eta, cfg)
        checks.append(("rank-one grid", grid_theta, r1_star, GRID_ORACLE_TOL))

    _, wr_report = attack_unconstrained(x, args.k, args.eta)
    wr_star = wr_report.theta_predicted - offset
    _, wr_rnd_theta = random_unconstrained(x, args.k, args.eta, cfg)
    checks.append(("unconstrained random", wr_rnd_theta, wr_star, RANDOM_ORACLE_TOL))

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
    p_attack.add_argument("--strategy", choices=PCR_STRATEGIES, default="rank_one")
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
    p_pcr.add_argument("--strategy", choices=PCR_STRATEGIES, default="unconstrained")
    p_pcr.add_argument("--seed", type=int, default=0)
    p_pcr.add_argument("--out", required=True, help="report CSV path")
    p_pcr.set_defaults(func=_cmd_pcr)

    p_verify = sub.add_parser("verify", help="check closed forms against oracles")
    p_verify.add_argument("matrix", help="matrix CSV (columns are samples)")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--eta", type=float, required=True)
    p_verify.add_argument("--trials", type=int, default=10_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--inject-theta-offset", type=float, default=0.0,
                          help="test hook: shift closed-form values down")
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
