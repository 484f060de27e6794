"""Closed-form optimal rank-one attacks on the PCA subspace.

A rank-one perturbation ``delta = a b^T`` (with ``b`` normalized to unit
length) is chosen to maximize the Asimov distance between the k leading
principal components of the data and those of the perturbed data.  Three
regimes are covered, depending on how k relates to the numerical rank of
the data matrix:

* full column rank with k = rank = n <= d,
* rank-deficient data with k = rank,
* k strictly below the rank.

In each regime a small budget bends the k-th principal direction by
``arcsin``-type laws while a budget above a spectral threshold forces the
maximal distance pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoOrthogonalComplement, RegimeError
from .linalg import SvdTriple, check_attack, complement_direction, full_svd
from .report import AttackReport, Regime, build_report


@dataclass(frozen=True)
class RankOneAttack:
    """Attack vectors: the perturbation is ``np.outer(a, b)`` with unit b."""

    a: np.ndarray
    b: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return np.outer(self.a, self.b)

    @property
    def budget_used(self) -> float:
        return float(np.linalg.norm(self.a) * np.linalg.norm(self.b))


@dataclass(frozen=True)
class RankOneClosedForm:
    """Stationary-point solution of the k < rank regime."""

    alpha_star: float
    beta_star: float
    H: float
    theta_star: float
    sigma_k: float
    sigma_k1: float


def _rotation_angle(sigma_k: float, sigma_k1: float, eta: float, alpha, beta):
    """Signed rotation of the k-th principal direction, in [-pi/2, pi/2].

    The two-coordinate attack leaves a symmetric 2 x 2 block in the
    (u_k, u_{k+1}) plane whose leading eigenvector sits at angle
    ``atan2(ay, ax) / 2``; its magnitude is the subspace distance.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    ax = (sigma_k**2 - sigma_k1**2
          + 2.0 * sigma_k * eta * ca * cb
          - 2.0 * sigma_k1 * eta * sa * sb
          + eta**2 * np.cos(2.0 * np.asarray(alpha)))
    ay = 2.0 * eta * (sigma_k * sa * cb + sigma_k1 * ca * sb + eta * ca * sa)
    return 0.5 * np.arctan2(ay, ax)


def theta_from_angles(sigma_k: float, sigma_k1: float, eta: float,
                      alpha, beta):
    """Subspace distance reached by the two-coordinate rank-one attack.

    ``alpha`` parametrizes the attack column ``a`` in the (u_k, u_{k+1})
    plane and ``beta`` the row ``b`` in the (v_k, v_{k+1}) plane.  Accepts
    scalars or broadcasting arrays.
    """
    theta = np.abs(_rotation_angle(sigma_k, sigma_k1, eta, alpha, beta))
    return float(theta) if np.isscalar(alpha) and np.isscalar(beta) else theta


def equivalent_solutions(alpha: float, beta: float) -> list[tuple[float, float]]:
    """The four (alpha, beta) pairs that reach the same subspace distance."""
    return [
        (alpha, beta),
        (-alpha, -beta),
        (math.pi - alpha, math.pi - beta),
        (alpha - math.pi, beta - math.pi),
    ]


def klt_rank_closed_form(sigma_k: float, sigma_k1: float, eta: float) -> RankOneClosedForm:
    """Optimal (alpha*, beta*) for the k < rank regime at budget below the gap.

    H is evaluated in the factored form
    ``((sigma_k + sigma_k1)^2 - eta^2) * ((sigma_k - sigma_k1)^2 - eta^2)``,
    which is exact and avoids cancellation near both regime boundaries.
    ``cos^2(alpha*) = (gap2 + eta^2 - sqrt(H)) / (2 gap2)`` is evaluated
    rationalized, as ``2 eta^2 sigma_k^2 / (gap2 (gap2 + eta^2 + sqrt(H)))``,
    so a tiny budget keeps its relative accuracy.
    """
    H = ((sigma_k + sigma_k1) ** 2 - eta**2) * ((sigma_k - sigma_k1) ** 2 - eta**2)
    gap2 = sigma_k**2 - sigma_k1**2
    if gap2 <= 0.0:
        raise RegimeError("closed form requires sigma_k > sigma_{k+1}")
    if H < 0.0:
        raise RegimeError("closed form requires eta < sigma_k - sigma_{k+1}")
    root = math.sqrt(H)
    cos2_alpha = 2.0 * eta**2 * sigma_k**2 / (gap2 * (gap2 + eta**2 + root))
    cos2_beta = (gap2 + eta**2 + root) / (2.0 * gap2)
    alpha = math.acos(math.sqrt(min(max(cos2_alpha, 0.0), 1.0)))
    beta = math.acos(-math.sqrt(min(max(cos2_beta, 0.0), 1.0)))
    theta = theta_from_angles(sigma_k, sigma_k1, eta, alpha, beta)
    return RankOneClosedForm(alpha_star=alpha, beta_star=beta, H=H,
                             theta_star=theta, sigma_k=sigma_k, sigma_k1=sigma_k1)


def attack_rank_one(x, k: int, eta: float) -> tuple[RankOneAttack, AttackReport]:
    """Dispatch to the applicable rank-one regime and report the outcome.

    The report's ``theta_achieved`` re-runs PCA on ``x + a b^T``; its
    ``ambiguous_subspace`` flag is set when either truncation was degenerate.
    """
    x, k, eta = check_attack(x, k, eta)
    return _attack_rank_one(x, full_svd(x), k, eta)


def _attack_rank_one(x: np.ndarray, svd: SvdTriple, k: int,
                     eta: float) -> tuple[RankOneAttack, AttackReport]:
    """``attack_rank_one`` on validated input, reading its factorization ``svd``."""
    attack, regime, theta_predicted = _solve_rank_one(svd, k, eta)
    report = build_report("rank_one", regime, x, svd, k, eta,
                          attack.delta, theta_predicted,
                          solution={"a": attack.a, "b": attack.b})
    return attack, report


def _solve_rank_one(svd: SvdTriple, k: int,
                    eta: float) -> tuple[RankOneAttack, Regime, float]:
    """Regime, attack vectors and predicted distance from at most two singular pairs.

    For k below the rank, the attack mixes the k-th and (k+1)-th singular
    directions at the stationary angles (alpha*, beta*) below the spectral
    gap; at or above it, all budget lands on the (k+1)-th pair and the
    distance saturates at pi/2.  For k equal to the rank (rank-deficient
    data, or full column rank with k = n <= d), the k-th direction bends
    toward a direction outside the column space by arcsin(eta / sigma_k),
    and past sigma_k the distance is pi/2.
    """
    d, n = svd.u.shape[0], svd.v.shape[0]
    rank = svd.rank
    sigma_k = float(svd.sigma[k - 1])
    u_k, v_k = svd.u[:, k - 1], svd.v[:, k - 1]
    if k < rank:
        sigma_k1 = float(svd.sigma[k])
        u_k1, v_k1 = svd.u[:, k], svd.v[:, k]
        if eta >= sigma_k - sigma_k1:
            # Boundary equality included: the construction then yields a tied
            # perturbed spectrum and the report is flagged downstream.
            return (RankOneAttack(a=eta * u_k1, b=v_k1.copy()), Regime.K_LT_RANK_CASE1,
                    math.pi / 2)
        cf = klt_rank_closed_form(sigma_k, sigma_k1, eta)
        a = eta * (math.cos(cf.alpha_star) * u_k + math.sin(cf.alpha_star) * u_k1)
        b = math.cos(cf.beta_star) * v_k + math.sin(cf.beta_star) * v_k1
        return RankOneAttack(a=a, b=b), Regime.K_LT_RANK_CASE2, cf.theta_star

    if k != rank or rank == d < n:
        raise RegimeError(
            f"no attack regime for k={k} with rank={rank} on a {d}x{n} matrix")
    low_rank = rank < min(d, n)
    if low_rank:
        outside = svd.u[:, k]
    elif d > n:
        outside = complement_direction(svd.u)
    elif eta == 0.0:
        outside = np.zeros(d)   # the zero attack needs no direction off the column space
    else:
        raise NoOrthogonalComplement("d = n: no direction leaves the column space")

    if eta > sigma_k:
        if low_rank:
            # All budget on a fresh direction orthogonal to the column space.
            return (RankOneAttack(a=eta * outside, b=svd.v[:, k].copy()),
                    Regime.LOW_RANK_CASE1, math.pi / 2)
        a = -sigma_k * u_k + math.sqrt(eta**2 - sigma_k**2) * outside
        return RankOneAttack(a=a, b=v_k.copy()), Regime.FULL_RANK_CASE1, math.pi / 2
    ortho = eta * math.sqrt(max(0.0, 1.0 - (eta / sigma_k) ** 2))
    a = -(eta**2 / sigma_k) * u_k + ortho * outside
    regime = Regime.LOW_RANK_CASE2 if low_rank else Regime.FULL_RANK_CASE2
    return RankOneAttack(a=a, b=v_k.copy()), regime, math.asin(eta / sigma_k)
