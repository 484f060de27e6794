"""Search oracles that only the tests use.

``brute_force_principal_angles`` finds principal angles from their recursive
definition (Björck & Golub 1973) by search on the unit sphere, and
``stationarity_residual`` is a finite-difference check of the rank-one
two-angle objective.  The tests compare the package's SVD-based angles and
its closed-form optima against them.  No command, sweep or PCR study runs
them, so they live here and not in ``pcattack.oracle``; the brute force is
limited to k <= 3 and d <= 6.  The tests import this module as they import
``conftest``.

The lemma views that only the tests read live here too: the compressed
rank-one problem (``compress_rank_one_problem``), the equivalent optima of
either family (``equivalent_solutions``, ``paired_entries``), an SVD's
truncation (``reconstruct``), and ``_least_squares``, the lstsq fit that
PCR's closed-form refit is checked against.
"""

import math

import numpy as np

from pcattack.errors import InvalidDimension, PcattackError, SingularFit
from pcattack.linalg import SvdTriple, _as_basis, as_matrix, full_svd
from pcattack.oracle import SearchConfig, _golden_max
from pcattack.pcr import r_squared
from pcattack.rank_one import _rotation_angle


class RankMismatch(PcattackError):
    """The numerical rank of the input differs from the one required."""


def stationarity_residual(sigma_k: float, sigma_k1: float, eta: float,
                          alpha: float, beta: float, step: float = 1e-5) -> float:
    """Max |central finite difference| of the rotation angle at (alpha, beta).

    Near zero only at stationary points of the two-angle objective.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    d_alpha = (_rotation_angle(sigma_k, sigma_k1, eta, alpha + step, beta)
               - _rotation_angle(sigma_k, sigma_k1, eta, alpha - step, beta)) / (2.0 * step)
    d_beta = (_rotation_angle(sigma_k, sigma_k1, eta, alpha, beta + step)
              - _rotation_angle(sigma_k, sigma_k1, eta, alpha, beta - step)) / (2.0 * step)
    return float(max(abs(d_alpha), abs(d_beta)))


def _max_on_sphere(g: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, float]:
    """Maximize ||g c|| over unit c in R^m (m <= 3) by search.

    A hemisphere grid seeds the search; great-circle coordinate ascent
    (golden-section along tangent arcs, re-orthonormalized each round)
    refines it without any pole pathology.
    """
    m = g.shape[1]
    if m == 1:
        c = np.array([1.0])
        return c, float(np.linalg.norm(g @ c))
    res = max(cfg.grid_resolution, 64)
    if m == 2:
        psis = np.linspace(0.0, math.pi, res)
        cands = np.stack([np.cos(psis), np.sin(psis)])
        span = math.pi / (res - 1)
    else:
        psis = np.linspace(0.0, 2.0 * math.pi, 2 * res)
        chis = np.linspace(0.0, math.pi / 2.0, res // 2 + 1)
        pp, cc = np.meshgrid(psis, chis, indexing="ij")
        cands = np.stack([np.sin(cc) * np.cos(pp),
                          np.sin(cc) * np.sin(pp),
                          np.cos(cc)]).reshape(3, -1)
        span = max(2.0 * math.pi / (2 * res - 1), (math.pi / 2.0) / max(1, res // 2))
    vals = np.linalg.norm(g @ cands, axis=0)
    best = int(np.argmax(vals))
    c = cands[:, best].copy()

    def fval(vec: np.ndarray) -> float:
        return float(np.linalg.norm(g @ vec))

    # Pattern-search step control: keep the arc span generous while the
    # iterate is still traveling, shrink only once moves stall.
    initial = 2.0 * span
    span = initial
    for _ in range(40):
        moved = 0.0
        for t in _drop_direction(np.eye(c.size), c).T:   # a tangent basis at c
            omega, _ = _golden_max(
                lambda w, t=t: fval(math.cos(w) * c + math.sin(w) * t),
                -span, span, iters=40)
            if omega != 0.0:
                c = math.cos(omega) * c + math.sin(omega) * t
                c /= np.linalg.norm(c)
            moved = max(moved, abs(omega))
        span = min(max(2.5 * moved, 0.35 * span), initial)
        if span < 1e-9:
            break
    return c, fval(c)


def _drop_direction(cols: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(cols) with ``direction`` projected out."""
    m = cols.shape[1]
    resid = cols - np.outer(direction, direction @ cols)
    kept = []
    for j in range(m):
        w = resid[:, j].copy()
        for q in kept:
            w -= (q @ w) * q
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            kept.append(w / nw)
        if len(kept) == m - 1:
            break
    return np.stack(kept, axis=1) if kept else np.zeros((cols.shape[0], 0))


def brute_force_principal_angles(a, b, cfg: SearchConfig) -> np.ndarray:
    """Principal angles from the recursive definition, by projected search.

    At each step the cosine is maximized over unit vectors in the remaining
    subspaces (the inner maximization over the second subspace is a
    projection; the outer one is an angle-grid search), then both subspaces
    are deflated.  Intended purely as a small-scale test oracle.
    """
    cols_a, cols_b = _as_basis(a).columns.copy(), _as_basis(b).columns.copy()
    if cols_a.shape != cols_b.shape:
        raise InvalidDimension("bases must match in shape")
    d, k = cols_a.shape
    if k > 3 or d > 6:
        raise ValueError(f"brute force limited to k <= 3, d <= 6; got k={k}, d={d}")
    angles = []
    for _ in range(k):
        g = cols_b.T @ cols_a
        c, best = _max_on_sphere(g, cfg)
        u = cols_a @ c
        w = cols_b.T @ u
        nw = np.linalg.norm(w)
        v = cols_b @ (w / nw) if nw > 1e-12 else cols_b[:, 0]
        angles.append(math.acos(min(1.0, max(0.0, best))))
        cols_a = _drop_direction(cols_a, u)
        cols_b = _drop_direction(cols_b, v)
        if cols_a.shape[1] == 0 or cols_b.shape[1] == 0:
            break
    return np.sort(np.array(angles))


def compress_rank_one_problem(x, k: int, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a rank-one attack on a rank-k matrix to k+1 dimensions.

    Rotates into the SVD coordinates of ``x`` and collapses the tail
    components of ``a`` and ``b`` (their residuals off the leading k
    singular vectors) to single coordinates carrying their signed norms (a
    Householder reflection fixes the head coordinates and maps each tail
    onto its first axis).  Returns ``(sigma_tilde, a_c, b_c)`` where
    ``sigma_tilde`` is the (k+1) x (k+1) diagonal core; the Asimov distance
    of the compressed attack problem equals the original one.
    """
    x = as_matrix(x)
    d, n = x.shape
    if not 1 <= k < min(d, n):
        raise InvalidDimension(f"compression needs 1 <= k < min(d, n), got k={k}")
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size != d or b.size != n:
        raise InvalidDimension("attack vectors must have lengths d and n")
    svd = full_svd(x)
    if svd.rank != k:
        raise RankMismatch(f"numerical rank is {svd.rank}, expected {k}")

    a_c = _compress(svd.u, k, a)
    b_c = _compress(svd.v, k, b)
    sigma_tilde = np.diag(np.append(svd.sigma[:k], 0.0))
    return sigma_tilde, a_c, b_c


def _compress(factor: np.ndarray, k: int, vec: np.ndarray) -> np.ndarray:
    # Sign follows the (k+1)-th coordinate so an already-compressed vector
    # maps to itself.
    head = factor[:, :k].T @ vec
    tail = float(np.linalg.norm(vec - factor[:, :k] @ head))
    return np.append(head, tail if factor[:, k] @ vec >= 0.0 else -tail)


def equivalent_solutions(alpha: float, beta: float) -> list[tuple[float, float]]:
    """The four (alpha, beta) pairs that reach the same subspace distance."""
    return [
        (alpha, beta),
        (-alpha, -beta),
        (math.pi - alpha, math.pi - beta),
        (alpha - math.pi, beta - math.pi),
    ]


def paired_entries(entries) -> np.ndarray:
    """The sign-paired optimum reaching the same subspace distance."""
    b_kk, b_k1k, b_kk1, b_k1k1 = np.asarray(entries, dtype=float)
    return np.array([b_kk, -b_k1k, -b_kk1, b_k1k1])


def reconstruct(svd: SvdTriple) -> np.ndarray:
    """The rank-j truncation ``U_j S_j V_j^T``; the matrix itself when j = p."""
    return (svd.u * svd.sigma[:svd.u.shape[1]]) @ svd.v.T


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
