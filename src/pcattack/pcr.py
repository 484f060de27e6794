"""Principal component regression and its degradation under subspace attacks.

Features are stored with columns as samples.  The attack pipeline centers
and factors the training features once, perturbs the centered matrix at a
grid of energy budgets, refits the regression on the perturbed features
without re-centering, and scores both the (perturbed) training fit and
clean test predictions.

Every fit is a closed form read from a factor's singular pairs, not a
least-squares solve.  The scores of k components ``u_i`` on features with
singular pairs ``(s_i, u_i, v_i)`` are the rows ``s_i v_i^T``, orthogonal
by construction.  Least squares on them, after centering, is diagonal up to
one rank-one term: the cosines ``m`` of the ``v_i`` with the constant
direction (``_Targets.fit``, by Sherman–Morrison; PCR in principal-component
coordinates, Jolliffe 2002, ch. 8).  The regression depends only on the
span of the components, and an attack changes only the last of them, so
each budget costs O(k + n_test) once the clean factor is read; only a
ratio whose core ties with the rest of the spectrum builds the perturbed
features and factors them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidMatrix, ParseError, SingularFit, UndefinedR2
from .experiments import ATTACKS, check_ratio_grid, normal_stream
from .fileio import parse_rows, write_table
from .linalg import SvdTriple, as_matrix, check_eta, check_k, full_svd, leading_svd
from .report import _core_split, attack_factor, frames, lift

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
    """1 - ||y - yhat||^2 / ||y - ybar||^2; may be negative.

    Both sums are taken in the power-of-two unit of the largest |y - ybar|
    (``_Targets``), which cancels exactly: r2 is the same at every
    power-of-two scale of the targets, and neither sum overflows or
    underflows unless ``|y - yhat|`` exceeds ``|y - ybar|`` by 2^511, where
    r2 reads -inf."""
    predicted = np.asarray(predicted, dtype=float).reshape(-1)
    actual = np.asarray(actual, dtype=float).reshape(-1)
    if predicted.size != actual.size or actual.size < 2:
        raise InvalidDimension("predicted and actual must share a length >= 2")
    return _Targets(actual).r2(predicted)


class _Targets:
    """Targets ``y``, held as ``ybar + 2^e y_c`` with ``y_c`` in the
    power-of-two unit of its largest |entry| (``linalg.fro_norm``'s), where
    no square overflows or underflows; UndefinedR2 when they are constant.
    Every sum of squares, and the closed-form least squares of ``y`` on the
    scores of k components (``fit``), is taken in that unit.

    The scores of components with singular pairs ``(s_i, u_i, v_i)`` are the
    rows ``diag(s) V^T``.  ``moments`` gives ``a = V^T y_c`` and ``m = V^T 1
    / sqrt(n)``, the cosines of the ``v_i`` with the constant direction.
    With ``P = I - 1 1^T / n`` and ``beta = diag(s) c`` for coefficients
    ``c``, the centered design is ``P V``, whose Gram is ``I - m m^T``.
    Sherman–Morrison inverts it: ``beta = a + m (m.a) / (1 - m.m)``.  The
    coefficients are ``beta / s`` and the intercept is ``ybar - beta.m /
    sqrt(n)``; the centered fit ``P V beta`` has squared norm ``a.beta``, so
    r2 is ``a.beta / ||y_c||^2``.

    ``1 - m.m`` is the squared sine of the angle between the constant
    direction and the span of ``V``, and the centered scores lose rank when
    it is 0.  The right vectors of centered features are orthogonal to the
    constant, so their ``m`` is roundoff; but a null ``v_{k+1}`` (rank k)
    and the right vectors of attacked features, which are not re-centered,
    need not be.  The computed ``1 - m.m`` is off by a few times (k + log2
    n) eps, from the sums that form ``m`` and from ``V``'s own
    orthonormality, and r2 carries that error divided by ``1 - m.m``.  So
    ``fit`` raises SingularFit at ``1 - m.m <= SINGULAR_FIT`` = 2^-26
    (sqrt(eps)): a fit that passes has its r2 right to about (k + log2 n)
    2^-26, and the constant direction is more than 2^-13 rad from the span.
    """

    # the centered scores count as rank-deficient once 1 - m.m is at most this
    SINGULAR_FIT = 2.0**-26

    def __init__(self, y: np.ndarray):
        self.y, self.mean, self.root_n = y, float(y.mean()), math.sqrt(y.size)
        self.e = math.frexp(float(np.abs(y - self.mean).max()))[1]
        self.centered = np.ldexp(y - self.mean, -self.e)
        self.total = float(np.square(self.centered).sum())
        if self.total == 0.0:
            raise UndefinedR2("actual values are constant")

    def r2(self, predicted: np.ndarray) -> float:
        return 1.0 - float(np.square(np.ldexp(self.y - predicted, -self.e)).sum()) / self.total

    def moments(self, svd: SvdTriple, k: int) -> np.ndarray:
        """``a`` and ``m`` of ``svd.v``, as the rows of one product;
        InvalidDimension unless ``svd``'s numerical rank is at least k."""
        if not 1 <= k <= svd.rank:
            raise InvalidDimension(f"k={k} exceeds the numerical rank {svd.rank}")
        return np.stack([self.centered, np.full(self.y.size, 1.0 / self.root_n)]) @ svd.v

    def fit(self, am: np.ndarray, s: np.ndarray,
            z: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
        """The coefficients ``beta / s`` in the unit, the training r2 and the
        intercept, from ``am = moments(V)`` and the singular values ``s``,
        which are in the unit of the scores the coefficients will multiply.
        Given ``z``, the last component's right vector is ``z`` applied to
        the last two columns of ``V``, as at an attacked split."""
        a, m = am if z is None else np.column_stack([am[:, :-2], am[:, -2:] @ z])
        gap = 1.0 - float(m @ m)
        if gap <= self.SINGULAR_FIT:
            raise SingularFit("component scores do not determine the fit")
        beta = a + m * (float(m @ a) / gap)
        return (beta / s, float(a @ beta) / self.total,
                self.mean - math.ldexp(float(beta @ m) / self.root_n, self.e))


def _as_targets(targets, n: int) -> np.ndarray:
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if targets.size != n:
        raise InvalidDimension("one target per sample column is required")
    if not np.all(np.isfinite(targets)):
        raise InvalidMatrix("targets must be finite")
    return targets


def fit_pcr(features, targets, k: int) -> PcrModel:
    """Center features, keep k leading components, least-squares the targets
    (``_Targets.fit``)."""
    features = as_matrix(features)
    targets = _as_targets(targets, features.shape[1])
    means = features.mean(axis=1)
    svd = leading_svd(features - means[:, None], k)
    y = _Targets(targets)
    coefficients, r2_train, intercept = y.fit(y.moments(svd, k), svd.sigma[:k])
    return PcrModel(svd.u.copy(), np.ldexp(coefficients, y.e), intercept, means, r2_train)


def attack_pcr(features, targets, k: int, eta_grid=DEFAULT_ETA_RATIOS,
               strategy: str = "unconstrained",
               split_seed: int = 0) -> list[RegressionReport]:
    """Refit PCR on attacked training features across a budget-ratio grid.

    Ratios are relative to the centered training features: to sigma_k when
    they have rank k, else to sigma_k - sigma_{k+1}.  They are numbers or
    their text, read and sorted by the sweep's grid rule
    (``experiments.check_ratio_grid``): nonempty, finite, nonnegative, no
    repeats.  A k outside 1 .. min(d, n_train) - 1 raises InvalidDimension
    before the training features are factored (at k = min(d, n_train)
    neither strategy has an attack), and a k above their numerical rank
    raises it for either strategy, before any attack.
    The targets are never modified; test features stay clean and are
    centered with the training means.

    The centered training features ``xc`` are factored once, into the
    pairs ``(sigma_i, u_i, v_i)`` for i <= k + 1, and ``_Targets.moments``
    of ``v_1 .. v_{k+1}`` and the test features' scores on ``u_1 ..
    u_{k+1}`` are taken once.  At each ratio the refit's components are
    ``u_1 .. u_{k-1}`` plus ``L w``, with ``L = [u_k, u_{k+1}]``
    (``report.frames``) and ``w`` the leading left singular vector of ``M =
    diag(sigma_k, sigma_{k+1}) + B`` for the attack's 2x2 core ``B``
    (``report._core_split``).  Since ``L^T (xc + L B R^T) = M R^T`` with
    ``R = [v_k, v_{k+1}]``, and ``u_i^T L = 0`` for i < k, the attacked
    training scores are the orthogonal rows ``sigma_i v_i^T`` for i < k and
    ``w^T M R^T = s_1 (z_1 v_k + z_2 v_{k+1})^T``, with ``g = M^T w``, ``s_1
    = |g|`` and ``z = g / s_1``.  Their ``a`` and ``m`` are the clean ones
    but for the last, ``z`` applied to the clean pair, and the test scores
    are the clean ones but for ``w^T L^T`` of the test features: the fit
    costs O(k + n_test) per ratio and needs no ``X + delta``.  Its rank-one
    centering term is not optional: on features of rank k, ``v_{k+1}`` is any
    null vector, and need not be orthogonal to the constant.  The regression
    depends only on the span of the components, so this matches a dense SVD
    of the attacked features to rounding.  That split leaves a margin of
    ``TIE_TOL`` (1e-9) relative to sigma_1, so the attacked rank is at least
    k by ``RANK_TOL`` (1e-10) and needs no check.  When the core does not
    split cleanly, the refit builds ``xc + lift(core)`` and factors it
    instead.  A fit that the scores do not determine raises SingularFit
    (``_Targets.fit``).  Training features with ``d >= n_train`` at ``k =
    n_train - 1`` reach it: their only null vector is the constant, and a
    budget that turns the last component onto ``v_{k+1}`` leaves its scores
    constant.
    """
    if strategy not in ATTACKS:
        raise InvalidDimension(f"strategy must be one of {tuple(ATTACKS)}")
    grid = check_ratio_grid(eta_grid)
    features = as_matrix(features)
    n = features.shape[1]
    targets = _as_targets(targets, n)
    n_train = int(round(SPLIT_FRACTION * n))
    if n_train < 2 or n - n_train < 2:
        raise InvalidDimension("both split halves need at least two samples")

    perm = np.random.Generator(np.random.PCG64(split_seed)).permutation(n)
    train, test = perm[:n_train], perm[n_train:]
    x_train = features[:, train]
    k = check_k(k, x_train.shape)
    if k == min(x_train.shape):
        raise InvalidDimension(f"attack needs room at index k+1={k + 1} in the "
                               f"{x_train.shape[0]}x{n_train} training features")
    means = x_train.mean(axis=1, keepdims=True)
    xc, test_c = x_train - means, features[:, test] - means
    svd, at = attack_factor(xc, k)
    # the test features' scores on u_1 .. u_{k+1} and sigma_1 .. sigma_{k-1},
    # in the record's unit
    test_head, s_head = svd.u.T @ test_c / at.unit, svd.sigma[:k - 1] / at.unit
    y, reference = _Targets(targets[train]), _Targets(targets[test])
    am = y.moments(svd, k)

    reports = []
    for ratio in grid:
        _, _, core = ATTACKS[strategy].closed_form(at, check_eta(ratio * at.ratio_scale))
        w = _core_split(at, core)
        if w is None:
            attacked = leading_svd(xc + lift(*frames(svd, k), core, at.unit), k)
            coef, r2_train, intercept = y.fit(y.moments(attacked, k), attacked.sigma[:k] / at.unit)
            scores = attacked.u.T @ test_c / at.unit
        else:
            # g = M^T w, with M = diag(sigma_k, sigma_{k+1}) + core in the record's unit
            g = np.dot(w, np.reshape(core, (2, 2)) + [[at.sigma_k, 0.0], [0.0, at.sigma_k1]])
            s_1 = math.hypot(*g)
            coef, r2_train, intercept = y.fit(am, np.append(s_head, s_1), g / s_1)
            scores = np.vstack([test_head[:k - 1], np.dot(w, test_head[k - 1:])])
        r2_test = reference.r2(intercept + np.ldexp(coef @ scores, y.e))
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

    Lines are skipped as ``fileio.parse_rows`` skips them: blank lines, lines
    that start with ``#``, and a header, the first other line when it holds
    a non-numeric cell.  The header must be as wide as the data rows.
    """
    data, _, header = parse_rows(path, header=True)
    for lineno, text in header:
        if len(text.split(",")) != data.shape[1]:
            raise ParseError(f"{path}:{lineno}: header is not as wide as the "
                             f"{data.shape[1]}-column data rows")
    if data.shape[1] < 2:
        raise ParseError(f"{path}: need at least one feature column plus a target")
    return data[:, :-1].T.copy(), data[:, -1].copy()


def write_regression_csv(reports, path) -> None:
    write_table(path, ("eta_ratio", "strategy", "r2_train", "r2_test"),
                [(rep.eta_ratio, rep.strategy, rep.r2_train, rep.r2_test) for rep in reports])
