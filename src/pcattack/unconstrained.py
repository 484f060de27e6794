"""Optimal attack without a rank constraint.

In the SVD coordinates of the data, the optimal perturbation touches only
the four entries at rows/columns {k, k+1}.  Below the spectral threshold
``(sigma_k - sigma_{k+1}) / sqrt(2)`` the maximal ratio of the mixed to the
diagonal quadratic form is found in closed form by a feasibility argument
in lambda; at or above the threshold a plain diagonal shift forces the
distance to pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, RegimeError
from .linalg import SvdTriple, check_attack, full_svd
from .report import AttackReport, Regime, build_report


@dataclass(frozen=True)
class PerturbationMatrix:
    """A dense perturbation; its canonical entries, when known, are in the report."""

    delta: np.ndarray

    @property
    def budget_used(self) -> float:
        return float(np.linalg.norm(self.delta))


@dataclass(frozen=True)
class ClosedFormIntermediates:
    """Every quantity on the path from (sigma_k, sigma_{k+1}, eta) to theta*."""

    c: float
    w: float
    e: float
    lambda_max: float
    p11: float
    p21: float
    r: float
    alpha: float
    beta: float
    theta_star: float


def closed_form_lambda(sigma_k: float, sigma_k1: float, eta: float) -> ClosedFormIntermediates:
    """Maximal objective ratio lambda and the recovery intermediates.

    Valid for 0 < eta < (sigma_k - sigma_{k+1}) / sqrt(2) with
    sigma_k > sigma_{k+1} >= 0.  The discriminant 1 - 4w is evaluated in
    the exactly factored form 4 eta^2 (sigma_k^2 + sigma_{k+1}^2 - eta^2)
    / (sigma_k^2 - sigma_{k+1}^2)^2 so the eta -> 0 limit does not cancel.
    """
    if not sigma_k > sigma_k1 >= 0.0:
        raise RegimeError(f"need sigma_k > sigma_k1 >= 0, got {sigma_k}, {sigma_k1}")
    bound = (sigma_k - sigma_k1) / math.sqrt(2.0)
    if not 0.0 < eta < bound:
        raise RegimeError(f"need 0 < eta < {bound}, got {eta}")

    gap2 = sigma_k**2 - sigma_k1**2
    c = (sigma_k**2 + sigma_k1**2) / 2.0 - eta**2
    w = (((sigma_k - sigma_k1) ** 2 - 2.0 * eta**2)
         * ((sigma_k + sigma_k1) ** 2 - 2.0 * eta**2)) / (4.0 * gap2**2)
    s = 2.0 * eta * math.sqrt(sigma_k**2 + sigma_k1**2 - eta**2) / gap2
    e = (1.0 + s) / (2.0 * math.sqrt(w))
    lam = (e**2 - 1.0) / (2.0 * e)
    theta = math.atan(lam) / 2.0

    root = math.sqrt(lam**2 + 1.0)
    t = 1.0 / math.sqrt((root + lam) ** 2 + 1.0)
    p11 = t
    p21 = t * (root + lam)
    norm_a = math.sqrt(p11**2 * sigma_k**2 + p21**2 * sigma_k1**2)
    norm_b = math.sqrt(p21**2 * sigma_k**2 + p11**2 * sigma_k1**2)
    r = 0.5 * (norm_a + norm_b)
    alpha = math.atan2(p21 * sigma_k1 / norm_a, p11 * sigma_k / norm_a)
    beta = math.atan2(p11 * sigma_k1 / norm_b, -p21 * sigma_k / norm_b)
    return ClosedFormIntermediates(c=c, w=w, e=e, lambda_max=lam, p11=p11,
                                   p21=p21, r=r, alpha=alpha, beta=beta,
                                   theta_star=theta)


def recover_entries(ci: ClosedFormIntermediates, sigma_k: float, sigma_k1: float) -> np.ndarray:
    """Canonical entries (b_kk, b_k1k, b_kk1, b_k1k1) of the optimal attack.

    The feasibility minimizer v is rotated back through the block rotation
    diag(P, P) and the clean spectrum is subtracted off; the result uses
    the full budget: ``norm(entries) == eta``.
    """
    v1 = ci.r * math.cos(ci.alpha)
    v2 = ci.r * math.cos(ci.beta)
    v3 = ci.r * math.sin(ci.alpha)
    v4 = ci.r * math.sin(ci.beta)
    u1 = ci.p11 * v1 - ci.p21 * v2
    u2 = ci.p21 * v1 + ci.p11 * v2
    u3 = ci.p11 * v3 - ci.p21 * v4
    u4 = ci.p21 * v3 + ci.p11 * v4
    return np.array([u1 - sigma_k, u2, u3, u4 - sigma_k1])


def paired_entries(entries) -> np.ndarray:
    """The sign-paired optimum reaching the same subspace distance."""
    b_kk, b_k1k, b_kk1, b_k1k1 = np.asarray(entries, dtype=float)
    return np.array([b_kk, -b_k1k, -b_kk1, b_k1k1])


def lift_to_data_space(entries, svd: SvdTriple, k: int) -> PerturbationMatrix:
    """Place the four canonical entries and conjugate back to data space.

    Only the k-th and (k+1)-th singular pairs are read: the result is
    ``U[:, k-1:k+1] @ B2 @ V[:, k-1:k+1].T`` for the 2 x 2 block ``B2``.
    """
    entries = np.asarray(entries, dtype=float).reshape(-1)
    if entries.size != 4:
        raise InvalidDimension("expected exactly four canonical entries")
    d, n = svd.u.shape[0], svd.v.shape[0]
    if k + 1 > min(d, n):
        raise InvalidDimension(f"entries at row/col {k + 1} do not fit a {d}x{n} matrix")
    b2 = np.array([[entries[0], entries[2]],
                   [entries[1], entries[3]]])
    delta = svd.u[:, k - 1:k + 1] @ b2 @ svd.v[:, k - 1:k + 1].T
    return PerturbationMatrix(delta=delta)


def attack_unconstrained(x, k: int, eta: float) -> tuple[PerturbationMatrix, AttackReport]:
    """Optimal unconstrained attack on the k-dim PCA subspace of ``x``.

    When k equals the numerical rank (or min(d, n) - 1 exhausts the
    spectrum), sigma_{k+1} is treated as exactly zero, which reduces the
    chain to the rank-deficient setting.
    """
    x, k, eta = check_attack(x, k, eta)
    return _attack_unconstrained(x, full_svd(x), k, eta)


def _attack_unconstrained(x: np.ndarray, svd: SvdTriple, k: int,
                          eta: float) -> tuple[PerturbationMatrix, AttackReport]:
    """``attack_unconstrained`` on validated input, reading its factorization ``svd``."""
    d, n = x.shape
    if k + 1 > min(d, n):
        raise InvalidDimension(
            f"attack needs room at index k+1={k + 1} in a {d}x{n} matrix")
    sigma_k = float(svd.sigma[k - 1])
    sigma_k1 = 0.0 if k >= svd.rank else float(svd.sigma[k])
    threshold = (sigma_k - sigma_k1) / math.sqrt(2.0)

    if eta == 0.0:
        # The feasibility chain needs eta > 0; the zero attack is exact.
        entries, regime, theta = np.zeros(4), Regime.UNCONSTRAINED_CASE2, 0.0
    elif eta >= threshold:
        entries = np.array([-eta / math.sqrt(2.0), 0.0, 0.0, eta / math.sqrt(2.0)])
        regime, theta = Regime.UNCONSTRAINED_CASE1, math.pi / 2
    else:
        ci = closed_form_lambda(sigma_k, sigma_k1, eta)
        entries = recover_entries(ci, sigma_k, sigma_k1)
        regime, theta = Regime.UNCONSTRAINED_CASE2, ci.theta_star
    pm = lift_to_data_space(entries, svd, k)
    report = build_report("unconstrained", regime, x, svd, k, eta, pm.delta, theta,
                          solution={"entries": entries})
    if regime == Regime.UNCONSTRAINED_CASE1 and (eta == threshold or sigma_k == sigma_k1):
        report.ambiguous_subspace = True
    return pm, report
