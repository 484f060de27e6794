"""Command-line front end: attacks, sweeps, PCR study, oracle verification.

Exit codes: 0 success, 2 usage or parse failure, 3 no applicable attack
regime, 4 an oracle beat a closed form on an untied input (verification
failure).  ``verify`` prints one line per record of ``oracle.verify``, which
decides each check, and exits 4 when one reads ``VIOLATION``.

``pcr`` and ``oracle`` are imported only by the commands that run them, so
``attack`` loads neither: ``oracle`` loads for ``verify`` and for a sweep
with a ``-rnd`` strategy alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PcattackError, RegimeError
from .experiments import ATTACKS, SearchConfig, parse_sweep_spec, run_sweep, write_sweep_csv
from .fileio import parse_count, read_matrix_csv, write_matrix_csv, write_text


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
    grid = DEFAULT_ETA_RATIOS if args.eta_grid is None else args.eta_grid.split(",")
    reports = attack_pcr(features, targets, args.k, grid, args.strategy,
                         split_seed=args.seed)
    write_regression_csv(reports, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import verify
    cfg = SearchConfig(trials=args.trials, seed=args.seed)
    checks = verify(read_matrix_csv(args.matrix), args.k, args.eta, cfg)
    print(f"{'check':<22} {'oracle':>12} {'closed':>12} {'margin':>12}  status")
    for check in checks:
        label = check.family.replace("_", "-")
        print(f"{label:<22} skipped: {check.reason}" if check.status == "skipped" else
              f"{label + ' ' + check.kind:<22} {check.oracle:>12.8f} {check.closed:>12.8f} "
              f"{check.closed - check.oracle:>+12.2e}  {check.status}")
    return 4 if any(check.status == "VIOLATION" for check in checks) else 0


def _count(text: str, least: int = 0) -> int:
    """An integer >= ``least`` from decimal digits alone (``fileio.parse_count``)."""
    try:
        return parse_count(text, least)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}") from None


def _positive(text: str) -> int:
    return _count(text, 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcattack",
        description="Optimal adversarial perturbations of PCA subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = argparse.ArgumentParser(add_help=False)    # attack and verify read these
    matrix.add_argument("matrix", help="matrix CSV (columns are samples)")
    matrix.add_argument("--k", type=_positive, required=True)
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
    p_pcr.add_argument("--k", type=_positive, required=True)
    p_pcr.add_argument("--eta-grid", default=None,
                       help="comma-separated budget ratios")
    p_pcr.add_argument("--strategy", choices=ATTACKS, default="unconstrained")
    p_pcr.add_argument("--seed", type=_count, default=0)
    p_pcr.add_argument("--out", required=True, help="report CSV path")
    p_pcr.set_defaults(func=_cmd_pcr)

    p_verify = sub.add_parser("verify", parents=[matrix],
                              help="check closed forms against oracles")
    p_verify.add_argument("--trials", type=_positive, default=SearchConfig.trials)
    p_verify.add_argument("--seed", type=_count, default=0)
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
