"""Principal component regression and its degradation under subspace attacks.

Features are stored with columns as samples.  The attack pipeline centers
and factors the training features once, perturbs the centered matrix at a
grid of energy budgets, refits the regression on the perturbed features
without re-centering, and scores both the (perturbed) training fit and
clean test predictions.  Each refit reads its components from the attack's
2x2 core and runs a dense SVD only when that core's singular values tie
with the rest of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidMatrix, ParseError, SingularFit, UndefinedR2
from .experiments import ATTACKS, _budget_unit, check_ratio_grid
from .fileio import format_float, numbered_lines, parse_rows
from .linalg import as_matrix, check_eta, check_k, full_svd
from .oracle import normal_stream
from .report import _core_split, frames, lift

DEFAULT_ETA_RATIOS = tuple(np.linspace(0.08, 0.92, 12))
SPLIT_FRACTION = 0.8    # share of the samples that attack_pcr trains on


@dataclass(frozen=True)
class PcrModel:
    """k-component PCA regression: orthonormal components plus linear fit."""

    components: np.ndarray      # d x k, orthonormal columns
    coefficients: np.ndarray    # k weights on the component scores
    intercept: float
    feature_means: np.ndarray   # d, training means used for centering
    r2_train: float

    def predict(self, features) -> np.ndarray:
        features = as_matrix(features)
        if features.shape[0] != self.components.shape[0]:
            raise InvalidDimension("feature dimension does not match the model")
        scores = self.components.T @ (features - self.feature_means[:, None])
        return self.coefficients @ scores + self.intercept


@dataclass(frozen=True)
class RegressionReport:
    eta_ratio: float
    strategy: str
    r2_train: float
    r2_test: float


def r_squared(predicted, actual) -> float:
    """1 - ||y - yhat||^2 / ||y - ybar||^2; may be negative."""
    predicted = np.asarray(predicted, dtype=float).reshape(-1)
    actual = np.asarray(actual, dtype=float).reshape(-1)
    if predicted.size != actual.size or actual.size < 2:
        raise InvalidDimension("predicted and actual must share a length >= 2")
    total = float(np.sum((actual - actual.mean()) ** 2))
    if total == 0.0:
        raise UndefinedR2("actual values are constant")
    residual = float(np.sum((actual - predicted) ** 2))
    return 1.0 - residual / total


def _top_components(m: np.ndarray, k: int) -> np.ndarray:
    """The k leading left singular vectors of ``m``, or InvalidDimension
    unless its numerical rank is at least k."""
    svd = full_svd(m)
    if not 1 <= k <= svd.rank:
        raise InvalidDimension(f"k={k} exceeds the numerical rank {svd.rank}")
    return svd.u[:, :k].copy()


def _fit_on_centered(xc: np.ndarray, components: np.ndarray, means: np.ndarray,
                     targets: np.ndarray) -> PcrModel:
    k = components.shape[1]
    scores = components.T @ xc
    design = np.column_stack([scores.T, np.ones(targets.size)])
    coef, _, design_rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if design_rank < k + 1:
        raise SingularFit("component scores do not determine the fit")
    fitted = coef[:k] @ scores + coef[k]
    return PcrModel(components=components, coefficients=coef[:k],
                    intercept=float(coef[k]), feature_means=means.copy(),
                    r2_train=r_squared(fitted, targets))


def _as_targets(targets, n: int) -> np.ndarray:
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if targets.size != n:
        raise InvalidDimension("one target per sample column is required")
    if not np.all(np.isfinite(targets)):
        raise InvalidMatrix("targets must be finite")
    return targets


def fit_pcr(features, targets, k: int) -> PcrModel:
    """Center features, keep k leading components, least-squares the targets."""
    features = as_matrix(features)
    targets = _as_targets(targets, features.shape[1])
    means = features.mean(axis=1)
    xc = features - means[:, None]
    return _fit_on_centered(xc, _top_components(xc, k), means, targets)


def attack_pcr(features, targets, k: int, eta_grid=DEFAULT_ETA_RATIOS,
               strategy: str = "unconstrained",
               split_seed: int = 0) -> list[RegressionReport]:
    """Refit PCR on attacked training features across a budget-ratio grid.

    Ratios are relative to the centered training features: to sigma_k when
    they have rank k, else to sigma_k - sigma_{k+1}.  They are sorted, and
    must then pass the sweep's grid check: nonempty, finite, nonnegative,
    no repeats.  A k above the numerical rank of the centered training
    features raises InvalidDimension for either strategy, before any attack.
    The targets are never modified; test features stay clean and are
    centered with the training means.

    The centered training features are factored once.  At each ratio the
    refit's components come from the attack's 2x2 core: ``u_1 .. u_{k-1}``
    plus ``[u_k, e] w`` (``report._core_split``).  The regression depends
    only on their span, so this matches a dense SVD of the attacked features
    to rounding.  That split leaves a margin of ``TIE_TOL`` (1e-9) relative
    to sigma_1, so the attacked rank is at least k by ``RANK_TOL`` (1e-10)
    and needs no check.  When the core does not split cleanly, the refit
    factors the attacked features instead.
    """
    if strategy not in ATTACKS:
        raise InvalidDimension(f"strategy must be one of {tuple(ATTACKS)}")
    grid = check_ratio_grid(sorted(eta_grid))
    features = as_matrix(features)
    n = features.shape[1]
    targets = _as_targets(targets, n)
    n_train = int(round(SPLIT_FRACTION * n))
    if n_train < 2 or n - n_train < 2:
        raise InvalidDimension("both split halves need at least two samples")

    perm = np.random.Generator(np.random.PCG64(split_seed)).permutation(n)
    train, test = perm[:n_train], perm[n_train:]
    x_train, y_train = features[:, train], targets[train]
    x_test, y_test = features[:, test], targets[test]
    means = x_train.mean(axis=1)
    xc = x_train - means[:, None]
    svd = full_svd(xc)
    k = check_k(k, xc.shape)
    if svd.rank < k:
        raise InvalidDimension(f"k={k} exceeds the numerical rank {svd.rank}")
    scale = _budget_unit(svd, k)
    closed_form, _ = ATTACKS[strategy]

    reports = []
    for ratio in grid:
        _, _, core = closed_form(svd, k, check_eta(ratio * scale))
        attacked = xc + lift(svd, k, core)
        w = _core_split(svd, k, core)
        components = (_top_components(attacked, k) if w is None else
                      np.column_stack([svd.u[:, :k - 1], frames(svd, k)[0] @ w]))
        model = _fit_on_centered(attacked, components, means, y_train)
        reports.append(RegressionReport(ratio, strategy, model.r2_train,
                                        r_squared(model.predict(x_test), y_test)))
    return reports


def synthetic_collinear(seed: int, d: int = 20, n: int = 40,
                        n_factors: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Collinear benchmark: few strong latent factors plus dense noise.

    The target loads mostly on the weakest retained principal direction, so
    attacks on the k = n_factors subspace degrade it measurably and
    monotonically.  Stands in for spectroscopy-style data in CI.
    """
    if n_factors < 1 or n_factors > min(d, n) - 1:
        raise InvalidDimension("n_factors must leave room below min(d, n)")
    rng = np.random.Generator(np.random.PCG64(seed))
    loadings = normal_stream(rng, (d, n_factors))
    factors = normal_stream(rng, (n_factors, n))
    features = loadings @ factors + 0.35 * normal_stream(rng, (d, n))
    centered = features - features.mean(axis=1, keepdims=True)
    svd = full_svd(centered)
    scores = (svd.u[:, :n_factors].T @ centered) / svd.sigma[:n_factors, None]
    weights = np.full(n_factors, 0.6)
    weights[-1] = 2.2
    targets = weights @ scores + 0.004 * normal_stream(rng, (n,))
    return features, targets


def load_feature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Samples as rows, last column the target; features return transposed.

    A single leading header line is skipped when it contains any
    non-numeric cell; it must be as wide as the data rows.
    """
    lines = [(i, text) for i, text in numbered_lines(path) if text]
    header = lines.pop(0) if lines and not _all_floats(lines[0][1]) else None
    data = parse_rows(path, lines)
    if header is not None and len(header[1].split(",")) != data.shape[1]:
        raise ParseError(f"{path}:{header[0]}: header is not as wide as the "
                         f"{data.shape[1]}-column data rows")
    if data.shape[1] < 2:
        raise ParseError(f"{path}: need at least one feature column plus a target")
    return data[:, :-1].T.copy(), data[:, -1].copy()


def _all_floats(text: str) -> bool:
    try:
        [float(c) for c in text.split(",")]
    except ValueError:
        return False
    return True


def write_regression_csv(reports, path) -> None:
    lines = ["eta_ratio,strategy,r2_train,r2_test"]
    for rep in reports:
        lines.append(",".join([
            format_float(rep.eta_ratio),
            rep.strategy,
            format_float(rep.r2_train),
            format_float(rep.r2_test),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
