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

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import InvalidDimension, ParseError, PcattackError
from .fileio import _data_lines, numbered_lines, parse_count, read_matrix_csv, write_table
from .linalg import _pca_distance_from_svd, check_eta, check_k, spectrum_of
from .rank_one import _attack_rank_one, attack_rank_one
from .report import CoreSpectrum, _core_angle, attack_factor, core_norm, core_spectrum, frames, lift
from .unconstrained import _attack_unconstrained, attack_unconstrained

if TYPE_CHECKING:
    from .oracle import SearchConfig


def _oracle():
    """The ``oracle`` module, imported on first use, so that ``pcattack
    attack``, which reads ``ATTACKS`` but runs no oracle, never loads it."""
    from . import oracle
    return oracle


def _random_oracle(name: str) -> Callable:
    """``oracle.<name>``, looked up when it is called."""
    return lambda x, k, eta, cfg: getattr(_oracle(), name)(x, k, eta, cfg)


class Family(NamedTuple):
    """An attack family: its closed form on a ``report.CoreSpectrum``, its
    attack on a matrix, and its random oracle.  ``pcattack attack`` runs the
    attack, ``verify`` the closed form and the oracle, a sweep the closed
    form or, for the ``-rnd`` strategies, the oracle, and ``pcr`` the closed
    form."""

    closed_form: Callable
    attack: Callable
    oracle: Callable


ATTACKS = {
    "rank_one": Family(_attack_rank_one, attack_rank_one, _random_oracle("random_rank_one")),
    "unconstrained": Family(_attack_unconstrained, attack_unconstrained,
                            _random_oracle("random_unconstrained")),
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
    oracle_cfg: SearchConfig = field(default_factory=lambda: _oracle().SearchConfig())
    seed: int = 0
    data_path: str | None = None

    def __post_init__(self):
        if self.data_kind not in ("low_rank", "gaussian", "from_file"):
            raise ParseError(f"unknown data_kind {self.data_kind!r}")
        if self.data_kind == "from_file" and not self.data_path:
            raise ParseError("data_kind=from_file requires data_path")
        grid = check_ratio_grid(self.eta_grid)
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ParseError(f"unknown strategies: {sorted(unknown)}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ParseError(f"duplicate strategies in {list(self.strategies)}")
        object.__setattr__(self, "eta_grid", grid)
        object.__setattr__(self, "strategies", tuple(self.strategies))


class SweepRow(NamedTuple):
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
    normal_stream = _oracle().normal_stream
    left = normal_stream(rng, (d, k))
    right = normal_stream(rng, (n, k))
    return left @ right.T


def synth_gaussian(d: int, n: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. standard-normal matrix; full rank almost surely."""
    if d < 1 or n < 1:
        raise InvalidDimension("d and n must be positive")
    return _oracle().portable_normal(seed, (d, n))


def check_ratio_grid(ratios) -> tuple[float, ...]:
    """Budget ratios as floats: nonempty, finite, nonnegative and strictly
    increasing, or ParseError naming the first ratio that is not."""
    grid = tuple(float(v) for v in ratios)
    if not grid:
        raise ParseError("eta_grid must not be empty")
    for ratio in grid:
        if not math.isfinite(ratio) or ratio < 0.0:
            raise ParseError(f"eta_grid ratio {ratio!r} is not finite and >= 0")
    for before, ratio in zip(grid, grid[1:]):
        if ratio <= before:
            raise ParseError(f"eta_grid ratio {ratio!r} follows {before!r}; "
                             f"ratios must be strictly increasing")
    return grid


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
    """One row per (eta ratio, strategy), sorted, with errors recorded inline.

    The closed forms read only the singular values, from one values-only
    SVD of the data and its ``report.CoreSpectrum``, taken once; each cell
    is then a float solve, verified from its 2x2 core.  The factor of the
    leading k + 1 pairs is computed only if some cell needs it.
    """
    x = _sweep_data(spec)
    at = core_spectrum(spectrum_of(x), check_k(spec.k, x.shape))
    k = at.k
    factor = functools.cache(lambda: attack_factor(x, k))
    cells = []      # (strategy, its closed form, or None where its oracle runs, its oracle)
    for strategy in sorted(spec.strategies):
        name, by_oracle = STRATEGIES[strategy]
        family = ATTACKS[name]
        cells.append((strategy, None if by_oracle else family.closed_form, family.oracle))
    rows = []
    for ratio in spec.eta_grid:
        eta = check_eta(ratio * at.ratio_scale)
        for strategy, closed_form, oracle in cells:
            try:
                if closed_form is None:
                    # an oracle factors on its own, to stay independent
                    result, theta = oracle(x, k, eta, spec.oracle_cfg)
                    rows.append(SweepRow(ratio, strategy, theta, None, result.budget_used))
                else:
                    rows.append(_closed_form_cell(x, at, factor, closed_form, strategy,
                                                  ratio, eta))
            except PcattackError as exc:
                rows.append(SweepRow(ratio, strategy, None, None, None, type(exc).__name__))
    return rows


def _closed_form_cell(x, at: CoreSpectrum, factor, closed_form, strategy: str, ratio: float,
                      eta: float) -> SweepRow:
    # A closed form solves on the sweep's spectrum and is verified from its 2x2
    # core.  A core that does not split cleanly is solved again on the factor
    # (``factor()``, computed once per sweep, with its own ``CoreSpectrum``), so
    # that the core, its lift and the re-PCA read one factorization.
    _, theta_predicted, core = closed_form(at, eta)
    theta = _core_angle(at, core)
    if theta is None:
        svd, at = factor()
        _, theta_predicted, core = closed_form(at, eta)
        theta, _ = _pca_distance_from_svd(svd, x + lift(*frames(svd, at.k), core, at.unit), at.k)
    return SweepRow(ratio, strategy, theta, theta_predicted, at.unit * core_norm(core))


def write_sweep_csv(rows, path) -> None:
    """Plot-ready CSV; error rows carry the marker in the strategy column."""
    write_table(path, ("eta_ratio", "strategy", "theta", "theta_predicted", "budget_used"),
                [(row.eta_ratio,
                  row.strategy if row.error is None else f"{row.strategy}[error:{row.error}]",
                  row.theta, row.theta_predicted, row.budget_used) for row in rows])


_SPEC_KEYS = {"d", "n", "k", "data_kind", "data_path", "eta_grid", "strategies",
              "seed", "trials", "oracle_seed"}


def parse_sweep_spec(path) -> SweepSpec:
    """Strict flat key-value sweep description; unknown keys are rejected.

    Recognized keys: d, n, k, data_kind, data_path, eta_grid (comma-separated
    ratios), strategies (comma-separated), seed, trials, oracle_seed.  Blank
    lines and ``#`` comments are ignored.  Sweeps run only the random
    oracles, so grid-search settings are not keys.  ``d``, ``n``, ``k``,
    ``seed``, ``oracle_seed`` and ``trials`` are read by
    ``fileio.parse_count``, and an error names the key.
    """
    values: dict[str, str] = {}
    for lineno, text in _data_lines(numbered_lines(path), []):
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
        for key, least in (("d", 1), ("n", 1), ("k", 1), ("seed", 0), ("oracle_seed", 0),
                           ("trials", 1)):
            if key in values:
                try:
                    values[key] = parse_count(values[key], least)
                except ValueError as exc:
                    raise ValueError(f"{key} {exc}") from None
        seed = values.pop("seed", 0)
        search_config = _oracle().SearchConfig
        cfg = search_config(trials=values.pop("trials", search_config.trials),
                            seed=values.pop("oracle_seed", seed))
        for key in ("eta_grid", "strategies"):
            if key in values:
                values[key] = [v.strip() for v in values[key].split(",")]
        return SweepSpec(**values, oracle_cfg=cfg, seed=seed)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
