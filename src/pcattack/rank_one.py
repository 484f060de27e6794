"""Closed-form optimal rank-one attacks on the PCA subspace.

A rank-one perturbation ``delta = a b^T`` (with ``b`` normalized to unit
length) is chosen to maximize the Asimov distance between the k leading
principal components of the data and those of the perturbed data.  The
regimes follow how k relates to the numerical rank: full column rank with
k = rank = n <= d, rank-deficient data with k = rank, and k below the rank.
In each, a small budget bends the k-th principal direction and a budget
above a spectral threshold forces the maximal distance pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoOrthogonalComplement, RegimeError
from .linalg import check_attack, fro_norm
from .report import (AttackReport, CoreSpectrum, Regime, _core_array, attack_factor,
                     budget_in_unit, build_report, frames, lift)


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
        return fro_norm(self.a) * fro_norm(self.b)


@dataclass(frozen=True)
class RankOneClosedForm:
    """Stationary-point solution of the k < rank regime."""

    alpha_star: float
    beta_star: float
    H: float
    theta_star: float


def _rotation_angle(sigma_k: float, sigma_k1: float, eta: float, alpha, beta):
    """Signed rotation of the k-th principal direction, in [-pi/2, pi/2].

    The two-coordinate attack leaves a symmetric 2 x 2 block in the
    (u_k, u_{k+1}) plane whose leading eigenvector sits at angle
    ``atan2(ay, ax) / 2``; its magnitude is the subspace distance.  Scalar
    angles are evaluated with ``math``, arrays with numpy.
    """
    if np.isscalar(alpha) and np.isscalar(beta):
        xp, atan2 = math, math.atan2
    else:
        xp, atan2 = np, np.arctan2
        alpha, beta = np.asarray(alpha), np.asarray(beta)
    ca, sa = xp.cos(alpha), xp.sin(alpha)
    cb, sb = xp.cos(beta), xp.sin(beta)
    ax = ((sigma_k - sigma_k1) * (sigma_k + sigma_k1)
          + 2.0 * sigma_k * eta * ca * cb
          - 2.0 * sigma_k1 * eta * sa * sb
          + eta**2 * xp.cos(2.0 * alpha))
    ay = 2.0 * eta * (sigma_k * sa * cb + sigma_k1 * ca * sb + eta * ca * sa)
    return 0.5 * atan2(ay, ax)


def theta_from_angles(sigma_k: float, sigma_k1: float, eta: float,
                      alpha, beta):
    """Subspace distance reached by the two-coordinate rank-one attack.

    ``alpha`` parametrizes the attack column ``a`` in the (u_k, u_{k+1})
    plane and ``beta`` the row ``b`` in the (v_k, v_{k+1}) plane.  Accepts
    scalars, giving a float, or broadcasting arrays.
    """
    return abs(_rotation_angle(sigma_k, sigma_k1, eta, alpha, beta))


def klt_rank_closed_form(sigma_k: float, sigma_k1: float, eta: float) -> RankOneClosedForm:
    """Optimal (alpha*, beta*) and theta* of ``_stationary`` for the k < rank
    regime at budget below the gap, with its ``H``."""
    H = ((sigma_k + sigma_k1) ** 2 - eta**2) * ((sigma_k - sigma_k1) ** 2 - eta**2)
    if not sigma_k > abs(sigma_k1):
        raise RegimeError("closed form requires sigma_k > sigma_{k+1}")
    if not eta <= sigma_k - sigma_k1:
        raise RegimeError("closed form requires eta < sigma_k - sigma_{k+1}")
    ca, sa, cb, sb, theta = _stationary(sigma_k, sigma_k1, eta)
    return RankOneClosedForm(math.atan2(sa, ca), math.atan2(sb, cb), H, theta)


def _stationary(sigma_k: float, sigma_k1: float,
                eta: float) -> tuple[float, float, float, float, float]:
    """``(cos alpha*, sin alpha*, cos beta*, sin beta*, theta*)`` for 0 <= eta <
    sigma_k - sigma_{k+1}, with ``gap2 = sigma_k^2 - sigma_{k+1}^2`` taken as a
    product, which does not cancel near a tie, and ``sqrt(H)`` factored, which
    does not cancel near either regime boundary.  ``cos^2(alpha*) = (gap2 +
    eta^2 - sqrt(H)) / (2 gap2)`` and ``sin^2(beta*) = (gap2 - eta^2 -
    sqrt(H)) / (2 gap2)`` are rationalized, so a tiny budget keeps its
    relative accuracy.  theta* is ``_rotation_angle``'s, from the same four
    numbers, with ``cos 2 alpha* = (ca - sa)(ca + sa)``.
    """
    gap2 = (sigma_k - sigma_k1) * (sigma_k + sigma_k1)
    root = math.sqrt(((sigma_k + sigma_k1) ** 2 - eta**2) * ((sigma_k - sigma_k1) ** 2 - eta**2))
    ca = math.sqrt(2.0 * eta**2 * sigma_k**2 / (gap2 * (gap2 + eta**2 + root)))
    sa = math.sqrt((gap2 - eta**2 + root) / (2.0 * gap2))
    cb = -math.sqrt((gap2 + eta**2 + root) / (2.0 * gap2))
    sb = math.sqrt(2.0 * eta**2 * sigma_k1**2 / (gap2 * (gap2 - eta**2 + root)))
    ax = (gap2 + 2.0 * eta * (sigma_k * ca * cb - sigma_k1 * sa * sb)
          + eta**2 * (ca - sa) * (ca + sa))
    ay = 2.0 * eta * (sigma_k * sa * cb + sigma_k1 * ca * sb + eta * ca * sa)
    return ca, sa, cb, sb, abs(0.5 * math.atan2(ay, ax))


def attack_rank_one(x, k: int, eta: float) -> tuple[RankOneAttack, AttackReport]:
    """Dispatch to the applicable rank-one regime and report the outcome.

    The report's ``theta_achieved`` re-runs PCA on ``x + a b^T``; its
    ``ambiguous_subspace`` flag is set when either truncation was degenerate.
    """
    x, k, eta = check_attack(x, k, eta)
    svd, at = attack_factor(x, k)
    solved = _attack_rank_one(at, eta)
    core = _core_array(solved[2], at.unit)
    left, right = frames(svd, k)
    # core = outer(a2, b2): b2 is its unit row, signed so its last nonzero entry is positive
    row = core[np.argmax(np.abs(core).sum(axis=1))]
    b2 = row / math.hypot(*row) if row.any() else np.array([1.0, 0.0])
    b2 = -b2 if (b2[1], b2[0]) < (0.0, 0.0) else b2
    attack = RankOneAttack(a=left @ (core @ b2), b=right @ b2[:right.shape[1]])
    return attack, build_report("rank_one", svd, at, eta, solved,
                                x + lift(left, right, solved[2], at.unit),
                                {"a": attack.a, "b": attack.b})


def _attack_rank_one(at: CoreSpectrum, eta: float) -> tuple[Regime, float, tuple]:
    """``solve_rank_one`` on the spectrum ``at`` (``report.core_spectrum``), in
    its unit, after the checks that some regime applies: ``(regime,
    theta_predicted, core)``, the core in ``at.unit``."""
    d, n = at.shape
    if at.case != "k<rank" and (at.k != at.rank or at.rank == d < n):
        raise RegimeError(f"no attack regime for k={at.k} with rank={at.rank} "
                          f"on a {d}x{n} matrix")
    if at.case == "full_rank" and d == n and eta > 0.0:
        raise NoOrthogonalComplement("d = n: no direction leaves the column space")
    return solve_rank_one(at.sigma_k, at.sigma_k1, budget_in_unit(at, eta), at.case)


def solve_rank_one(sigma_k: float, sigma_k1: float, eta: float,
                   case: str) -> tuple[Regime, float, tuple[float, float, float, float]]:
    """Regime, predicted distance and row-major 2 x 2 core ``(b_kk, b_kk1,
    b_k1k, b_k1k1)`` of the optimal rank-one attack in the regime that ``case``
    (as ``report.CoreSpectrum`` names it) and eta pick.

    Below the gap, k < rank mixes u_k, u_{k+1} and v_k, v_{k+1} at the
    stationary angles (alpha*, beta*); k = rank bends u_k toward ``e`` by
    arcsin(eta / sigma_k).  Past its threshold each saturates at pi/2.
    """
    if case == "k<rank" and eta < sigma_k - sigma_k1:
        ca, sa, cb, sb, theta = _stationary(sigma_k, sigma_k1, eta)
        # core = outer(a2, b2), a2 = eta (cos alpha*, sin alpha*), b2 = (cos beta*, sin beta*)
        a_1, a_2 = eta * ca, eta * sa
        return Regime.K_LT_RANK_CASE2, theta, (a_1 * cb, a_1 * sb, a_2 * cb, a_2 * sb)
    if case == "k<rank" or (case == "low_rank" and eta > sigma_k):
        # All budget on e = u_{k+1}, paired with v_{k+1}.  At eta equal to the
        # gap the perturbed spectrum is tied, and the report is flagged.
        regime = Regime.K_LT_RANK_CASE1 if case == "k<rank" else Regime.LOW_RANK_CASE1
        return regime, math.pi / 2, (0.0, 0.0, 0.0, eta)
    if eta > sigma_k:
        # sqrt(eta^2 - sigma_k^2), squaring neither, so a huge eta does not overflow
        ortho = math.sqrt(eta - sigma_k) * math.sqrt(eta + sigma_k)
        return Regime.FULL_RANK_CASE1, math.pi / 2, (-sigma_k, 0.0, ortho, 0.0)
    ortho = eta * math.sqrt(max(0.0, 1.0 - (eta / sigma_k) ** 2))
    regime = Regime.LOW_RANK_CASE2 if case == "low_rank" else Regime.FULL_RANK_CASE2
    return regime, math.asin(eta / sigma_k), (-eta**2 / sigma_k, 0.0, ortho, 0.0)
