"""Principal component regression and its degradation under subspace attacks.

Features are stored with columns as samples.  The attack pipeline centers
and factors the training features once, perturbs the centered matrix at a
grid of energy budgets, refits the regression on the perturbed features
without re-centering, and scores both the (perturbed) training fit and
clean test predictions.  Each refit reads its components from the attack's
2x2 core and scores them in the factor's coordinates, in O(k n) per budget;
only a ratio whose core ties with the rest of the spectrum builds the
perturbed features and runs a dense SVD of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidMatrix, ParseError, SingularFit, UndefinedR2
from .experiments import ATTACKS, check_ratio_grid
from .fileio import parse_rows, write_table
from .linalg import as_matrix, check_eta, check_k, full_svd, leading_svd
from .oracle import normal_stream
from .report import _core_array, _core_split, attack_factor, frames, lift

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
    svd = leading_svd(m, k)
    if not 1 <= k <= svd.rank:
        raise InvalidDimension(f"k={k} exceeds the numerical rank {svd.rank}")
    return svd.u[:, :k].copy()


def _least_squares(scores: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Coefficients, intercept and training r2 of the targets regressed on
    the k x n component scores; SingularFit unless the scores determine them.

    The centered targets are regressed on the centered scores, and the
    intercept taken from the means, so no column of ones sits beside scores
    of another scale: the fit is the same at any scale of the features."""
    score_means, target_mean = scores.mean(axis=1), float(targets.mean())
    centered = (scores - score_means[:, None]).T
    coef, _, rank, _ = np.linalg.lstsq(centered, targets - target_mean, rcond=None)
    if rank < scores.shape[0]:
        raise SingularFit("component scores do not determine the fit")
    intercept = target_mean - float(coef @ score_means)
    return coef, intercept, r_squared(coef @ scores + intercept, targets)


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
    components = _top_components(xc, k)
    coefficients, intercept, r2_train = _least_squares(components.T @ xc, targets)
    return PcrModel(components=components, coefficients=coefficients, intercept=intercept,
                    feature_means=means, r2_train=r2_train)


def attack_pcr(features, targets, k: int, eta_grid=DEFAULT_ETA_RATIOS,
               strategy: str = "unconstrained",
               split_seed: int = 0) -> list[RegressionReport]:
    """Refit PCR on attacked training features across a budget-ratio grid.

    Ratios are relative to the centered training features: to sigma_k when
    they have rank k, else to sigma_k - sigma_{k+1}.  They are sorted, and
    must then pass the sweep's grid check: nonempty, finite, nonnegative,
    no repeats.  A k outside 1 .. min(d, n_train) - 1 raises InvalidDimension
    before the training features are factored (at k = min(d, n_train)
    neither strategy has an attack), and a k above their numerical rank
    raises it for either strategy, before any attack.
    The targets are never modified; test features stay clean and are
    centered with the training means.

    The centered training features ``xc`` are factored once, and ``xc``
    and the centered test features are projected once onto ``u_1 .. u_{k-1}``
    and ``L = [u_k, e]`` (``report.frames``).  At each ratio the refit's
    components are ``u_1 .. u_{k-1}`` plus ``L w``, from the attack's 2x2
    core ``B`` (``report._core_split``).  Since ``L`` is orthonormal and
    orthogonal to the ``u_i``, the attacked training scores are the clean
    ones except the last row, ``w^T (L^T xc + B R^T)``, and the test scores
    the clean ones except ``w^T L^T`` of the test features: O(k n) per ratio
    and no dense ``X + delta``.  The regression depends only on the span of
    the components, so this matches a dense SVD of the attacked features to
    rounding.  That split leaves a margin of ``TIE_TOL`` (1e-9) relative to
    sigma_1, so the attacked rank is at least k by ``RANK_TOL`` (1e-10) and
    needs no check.  When the core does not split cleanly, the refit builds
    ``xc + lift(core)`` and factors it instead.
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
    k = check_k(k, x_train.shape)
    if k == min(x_train.shape):
        raise InvalidDimension(f"attack needs room at index k+1={k + 1} in the "
                               f"{x_train.shape[0]}x{n_train} training features")
    means = x_train.mean(axis=1)
    xc = x_train - means[:, None]
    test_c = x_test - means[:, None]
    svd, at = attack_factor(xc, k)
    if at.rank < k:
        raise InvalidDimension(f"k={k} exceeds the numerical rank {at.rank}")
    closed_form = ATTACKS[strategy].closed_form
    left, right = frames(svd, k)
    basis = np.column_stack([svd.u[:, :k - 1], left])
    head, test_head = basis.T @ xc, basis.T @ test_c

    reports = []
    for ratio in grid:
        _, _, core = closed_form(at, check_eta(ratio * at.ratio_scale))
        w = _core_split(at, core)
        if w is None:
            attacked = xc + lift(left, right, core, at.unit)
            components = _top_components(attacked, k)
            scores, test_scores = components.T @ attacked, components.T @ test_c
        else:
            w = np.array(w)
            # L^T (xc + L B R^T) = head[k - 1:] + B R^T, and u_i^T L = 0 for i < k
            last = w @ (head[k - 1:] + _core_array(core, at.unit)[:, :right.shape[1]] @ right.T)
            scores = np.vstack([head[:k - 1], last])
            test_scores = np.vstack([test_head[:k - 1], w @ test_head[k - 1:]])
        # The refit reads the scores in units of a power of two near their
        # largest |entry|, which r2 does not see: an attack that leaves the
        # last scores near zero can leave them subnormal in the data's scale,
        # where the coefficients would overflow.
        e = np.frexp(np.abs(scores).max())[1]
        coefficients, intercept, r2_train = _least_squares(np.ldexp(scores, -e), y_train)
        r2_test = r_squared(coefficients @ np.ldexp(test_scores, -e) + intercept, y_test)
        reports.append(RegressionReport(ratio, strategy, r2_train, r2_test))
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
    headers = []

    def data_lines(lines):
        headers.clear()
        lines = ((lineno, text) for lineno, text in lines if text)
        for lineno, text in lines:      # the first non-blank line
            if _all_floats(text):
                yield lineno, text
            else:
                headers.append((lineno, text))
            break
        yield from lines

    data = parse_rows(path, data_lines)
    for lineno, text in headers:
        if len(text.split(",")) != data.shape[1]:
            raise ParseError(f"{path}:{lineno}: header is not as wide as the "
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
    write_table(path, ("eta_ratio", "strategy", "r2_train", "r2_test"),
                [(rep.eta_ratio, rep.strategy, rep.r2_train, rep.r2_test) for rep in reports])
