"""Budget sweeps over the attack strategies on synthetic or loaded data.

A sweep fixes one data matrix and walks a grid of energy ratios, running
any subset of the four strategies:

* ``r1-opt`` - closed-form optimal rank-one attack,
* ``r1-rnd`` - best random rank-one attack over the configured trials,
* ``wr-opt`` - closed-form optimal unconstrained attack,
* ``wr-rnd`` - best random unconstrained attack.

Ratios are relative to sigma_k when the matrix has rank k (the budget that
saturates the distance) and to sigma_k - sigma_{k+1} otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, ParseError, PcattackError
from .fileio import format_float, read_matrix_csv
from .linalg import SvdTriple, check_eta, check_k, full_svd
from .oracle import (SearchConfig, normal_stream, portable_normal,
                     random_rank_one, random_unconstrained)
from .rank_one import _attack_rank_one
from .unconstrained import _attack_unconstrained

# Each attack family: its closed form on a factored matrix, its random oracle.
ATTACKS = {
    "rank_one": (_attack_rank_one, random_rank_one),
    "unconstrained": (_attack_unconstrained, random_unconstrained),
}
# Each sweep strategy: the attack family, and whether its oracle replaces the
# closed form.
STRATEGIES = {
    "r1-opt": ("rank_one", False),
    "r1-rnd": ("rank_one", True),
    "wr-opt": ("unconstrained", False),
    "wr-rnd": ("unconstrained", True),
}
DEFAULT_ETA_RATIOS = tuple(1.2 * i / 50.0 for i in range(1, 51))


@dataclass(frozen=True)
class SweepSpec:
    d: int
    n: int
    k: int
    data_kind: str = "low_rank"          # low_rank | gaussian | from_file
    eta_grid: tuple = DEFAULT_ETA_RATIOS
    strategies: tuple = tuple(STRATEGIES)
    oracle_cfg: SearchConfig = field(default_factory=SearchConfig)
    seed: int = 0
    data_path: str | None = None

    def __post_init__(self):
        if self.data_kind not in ("low_rank", "gaussian", "from_file"):
            raise ParseError(f"unknown data_kind {self.data_kind!r}")
        if self.data_kind == "from_file" and not self.data_path:
            raise ParseError("data_kind=from_file requires data_path")
        grid = tuple(float(v) for v in self.eta_grid)
        if not grid:
            raise ParseError("eta_grid must not be empty")
        if any(v < 0.0 for v in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParseError("eta_grid must be nonnegative and strictly increasing")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ParseError(f"unknown strategies: {sorted(unknown)}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ParseError(f"duplicate strategies in {list(self.strategies)}")
        object.__setattr__(self, "eta_grid", grid)
        object.__setattr__(self, "strategies", tuple(self.strategies))


@dataclass(frozen=True)
class SweepRow:
    eta_ratio: float
    strategy: str
    theta: float | None
    theta_predicted: float | None
    budget_used: float | None
    error: str | None = None


def synth_low_rank(d: int, n: int, k: int, seed: int) -> np.ndarray:
    """Product of two seeded Gaussian factor matrices; rank k almost surely."""
    if not 1 <= k <= min(d, n):
        raise InvalidDimension(f"need 1 <= k <= min(d, n), got k={k}")
    rng = np.random.Generator(np.random.PCG64(seed))
    left = normal_stream(rng, (d, k))
    right = normal_stream(rng, (n, k))
    return left @ right.T


def synth_gaussian(d: int, n: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. standard-normal matrix; full rank almost surely."""
    if d < 1 or n < 1:
        raise InvalidDimension("d and n must be positive")
    return portable_normal(seed, (d, n))


def _budget_unit(svd: SvdTriple, k: int) -> float:
    """Budget unit for ratio grids: sigma_k at rank k, else the spectral gap."""
    if svd.rank <= k:
        return float(svd.sigma[k - 1])
    return float(svd.sigma[k - 1] - svd.sigma[k])


def _sweep_data(spec: SweepSpec) -> np.ndarray:
    if spec.data_kind == "low_rank":
        return synth_low_rank(spec.d, spec.n, spec.k, spec.seed)
    if spec.data_kind == "gaussian":
        return synth_gaussian(spec.d, spec.n, spec.seed)
    x = read_matrix_csv(spec.data_path)
    if x.shape != (spec.d, spec.n):
        raise ParseError(f"{spec.data_path}: a {x.shape[0]}x{x.shape[1]} matrix, "
                         f"but the spec says d={spec.d}, n={spec.n}")
    return x


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per (eta ratio, strategy), sorted, with errors recorded inline."""
    x = _sweep_data(spec)
    svd = full_svd(x)
    k = check_k(spec.k, x.shape)
    scale = _budget_unit(svd, k)
    rows = []
    for ratio in spec.eta_grid:
        eta = check_eta(ratio * scale)
        for strategy in sorted(spec.strategies):
            try:
                rows.append(_run_cell(x, svd, k, spec, strategy, ratio, eta))
            except PcattackError as exc:
                rows.append(SweepRow(eta_ratio=ratio, strategy=strategy,
                                     theta=None, theta_predicted=None,
                                     budget_used=None,
                                     error=type(exc).__name__))
    rows.sort(key=lambda r: (r.eta_ratio, r.strategy))
    return rows


def _run_cell(x, svd: SvdTriple, k: int, spec: SweepSpec, strategy: str,
              ratio: float, eta: float) -> SweepRow:
    # The closed forms read the sweep's one factorization; the oracles factor
    # on their own so they stay independent of it.
    attack, by_oracle = STRATEGIES[strategy]
    closed_form, oracle = ATTACKS[attack]
    if by_oracle:
        result, theta = oracle(x, k, eta, spec.oracle_cfg)
        return SweepRow(ratio, strategy, theta, None, result.budget_used)
    _, report = closed_form(x, svd, k, eta)
    return SweepRow(ratio, strategy, report.theta_achieved,
                    report.theta_predicted, report.budget_used)


def write_sweep_csv(rows, path) -> None:
    """Plot-ready CSV; error rows carry the marker in the strategy column."""
    lines = ["eta_ratio,strategy,theta,theta_predicted,budget_used"]
    for row in rows:
        strategy = row.strategy if row.error is None else f"{row.strategy}[error:{row.error}]"
        lines.append(",".join([
            format_float(row.eta_ratio),
            strategy,
            format_float(row.theta),
            format_float(row.theta_predicted),
            format_float(row.budget_used),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_SPEC_KEYS = {"d", "n", "k", "data_kind", "data_path", "eta_grid", "strategies",
              "seed", "trials", "oracle_seed"}


def parse_sweep_spec(path) -> SweepSpec:
    """Strict flat key-value sweep description; unknown keys are rejected.

    Recognized keys: d, n, k, data_kind, data_path, eta_grid (comma-separated
    ratios), strategies (comma-separated), seed, trials, oracle_seed.  Blank
    lines and ``#`` comments are ignored.
    """
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, val = text.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _SPEC_KEYS:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val
    try:
        for required in ("d", "n", "k"):
            if required not in values:
                raise ParseError(f"{path}: missing required key {required!r}")
        seed = int(values.get("seed", "0"))
        cfg = SearchConfig(trials=int(values.get("trials", "10000")),
                           seed=int(values.get("oracle_seed", str(seed))))
        eta_grid = (tuple(float(v) for v in values["eta_grid"].split(","))
                    if "eta_grid" in values else DEFAULT_ETA_RATIOS)
        strategies = (tuple(s.strip() for s in values["strategies"].split(","))
                      if "strategies" in values else STRATEGIES)
        return SweepSpec(
            d=int(values["d"]), n=int(values["n"]), k=int(values["k"]),
            data_kind=values.get("data_kind", "low_rank"),
            eta_grid=eta_grid, strategies=strategies, oracle_cfg=cfg,
            seed=seed, data_path=values.get("data_path"),
        )
    except (ValueError, KeyError) as exc:
        raise ParseError(f"{path}: {exc}") from None
