"""Command-line front end: attacks, sweeps, PCR study, oracle verification.

Exit codes: 0 success, 2 usage or parse failure, 3 no applicable attack
regime, 4 an oracle beat a closed form on an untied input (verification
failure).  On an input whose clean top-k truncation is tied, the top-k
subspace is not defined, so ``verify`` marks each check ``tied`` instead.

``pcr`` and ``oracle`` are imported only by the commands that run them, so
``attack`` loads neither.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidDimension, PcattackError, RegimeError
from .experiments import ATTACKS, parse_sweep_spec, run_sweep, write_sweep_csv
from .fileio import read_matrix_csv, write_matrix_csv, write_text
from .linalg import check_attack, spectrum_of
from .report import Regime, core_spectrum

RANDOM_ORACLE_TOL = 1e-4
GRID_ORACLE_TOL = 1e-6


def _cmd_attack(args) -> int:
    x = read_matrix_csv(args.matrix)
    attack, report = ATTACKS[args.strategy].attack(x, args.k, args.eta)
    payload = json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n"
    if args.emit_delta:     # first, so that a failed write leaves no report behind
        write_matrix_csv(args.emit_delta, attack.delta)
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        write_text(args.out, payload)
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_sweep_spec(args.spec)
    rows = run_sweep(spec)
    write_sweep_csv(rows, args.out)
    return 0


def _cmd_pcr(args) -> int:
    from .pcr import (DEFAULT_ETA_RATIOS, attack_pcr, load_feature_csv, synthetic_collinear,
                      write_regression_csv)
    features, targets = (synthetic_collinear(seed=args.seed) if args.synthetic
                         else load_feature_csv(args.data))
    if args.eta_grid is not None:
        grid = [float(v) for v in args.eta_grid.split(",")]
    else:
        grid = DEFAULT_ETA_RATIOS
    reports = attack_pcr(features, targets, args.k, grid, args.strategy,
                         split_seed=args.seed)
    write_regression_csv(reports, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import SearchConfig, grid_search_angles
    cfg = (SearchConfig(seed=args.seed) if args.trials is None
           else SearchConfig(trials=args.trials, seed=args.seed))
    x, k, eta = check_attack(read_matrix_csv(args.matrix), args.k, args.eta)
    # Both closed forms read one values-only SVD; each oracle factors on its own
    # so that it stays independent of the closed form it checks.  A family with
    # no room for its attack (InvalidDimension) is skipped, not verified.  On a
    # tied truncation the oracle's top-k basis and the closed form's differ by a
    # tie-break, so a check there is reported as tied and never fails.
    at = core_spectrum(spectrum_of(x), k)
    lines = [f"{'check':<22} {'oracle':>12} {'closed':>12} {'margin':>12}  status"]
    skipped = failed = 0
    for name, family in ATTACKS.items():
        label = name.replace("_", "-")
        try:
            regime, closed_theta, _ = family.closed_form(at, eta)
        except InvalidDimension as exc:
            skipped += 1
            if skipped == len(ATTACKS):
                raise
            lines.append(f"{label:<22} skipped: {exc}")
            continue
        checks = [("random", family.oracle(x, k, eta, cfg)[1], RANDOM_ORACLE_TOL)]
        if regime == Regime.K_LT_RANK_CASE2:
            # the unit is a power of two, so these are sigma_k and sigma_{k+1} exactly
            checks.append(("grid", grid_search_angles(at.sigma_k * at.unit, at.sigma_k1 * at.unit,
                                                      eta, cfg)[2], GRID_ORACLE_TOL))
        for kind, oracle_theta, tol in checks:
            ok = oracle_theta <= closed_theta + tol
            status = "tied" if at.tied else "ok" if ok else "VIOLATION"
            failed += status == "VIOLATION"
            lines.append(f"{label + ' ' + kind:<22} {oracle_theta:>12.8f} {closed_theta:>12.8f} "
                         f"{closed_theta - oracle_theta:>+12.2e}  {status}")
    print("\n".join(lines))
    return 4 if failed else 0


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcattack",
        description="Optimal adversarial perturbations of PCA subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = argparse.ArgumentParser(add_help=False)    # attack and verify read these
    matrix.add_argument("matrix", help="matrix CSV (columns are samples)")
    matrix.add_argument("--k", type=int, required=True)
    matrix.add_argument("--eta", type=float, required=True)

    p_attack = sub.add_parser("attack", parents=[matrix], help="write a JSON attack report")
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
    source = p_pcr.add_mutually_exclusive_group(required=True)
    source.add_argument("data", nargs="?",
                        help="feature CSV, one sample per row, target last")
    source.add_argument("--synthetic", action="store_true",
                        help="use the built-in collinear benchmark")
    p_pcr.add_argument("--k", type=int, required=True)
    p_pcr.add_argument("--eta-grid", default=None,
                       help="comma-separated budget ratios")
    p_pcr.add_argument("--strategy", choices=ATTACKS, default="unconstrained")
    p_pcr.add_argument("--seed", type=_seed, default=0)
    p_pcr.add_argument("--out", required=True, help="report CSV path")
    p_pcr.set_defaults(func=_cmd_pcr)

    p_verify = sub.add_parser("verify", parents=[matrix],
                              help="check closed forms against oracles")
    p_verify.add_argument("--trials", type=int)     # None: SearchConfig's default
    p_verify.add_argument("--seed", type=_seed, default=0)
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
