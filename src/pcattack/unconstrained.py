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
from .linalg import SvdTriple, check_attack, fro_norm
from .report import (AttackReport, CoreSpectrum, Regime, attack_factor, budget_in_unit,
                     build_report, frames, lift)


@dataclass(frozen=True)
class PerturbationMatrix:
    """A dense perturbation; its canonical entries, when known, are in the report."""

    delta: np.ndarray

    @property
    def budget_used(self) -> float:
        return fro_norm(self.delta)


@dataclass(frozen=True)
class ClosedFormIntermediates:
    """The feasibility chain from (sigma_k, sigma_{k+1}, eta) to theta*."""

    c: float
    w: float
    e: float
    lambda_max: float
    theta_star: float


def _terms(sigma_k: float, sigma_k1: float, eta: float) -> tuple[float, float]:
    """``(y, x)`` with ``lambda_max = y / x`` and ``theta* = atan2(y, x) / 2``:
    ``s gap2`` and ``sqrt(1 - s^2) gap2`` of the chain, ``gap2 = sigma_k^2 -
    sigma_{k+1}^2``.  Neither divides by gap2 or forms it as a difference of
    squares, so both keep their relative accuracy at a tiny budget and near a tie.
    """
    y = 2.0 * eta * math.sqrt(sigma_k**2 + sigma_k1**2 - eta**2)
    x = math.sqrt(((sigma_k - sigma_k1) ** 2 - 2.0 * eta**2)
                  * ((sigma_k + sigma_k1) ** 2 - 2.0 * eta**2))
    return y, x


def closed_form_lambda(sigma_k: float, sigma_k1: float, eta: float) -> ClosedFormIntermediates:
    """Maximal objective ratio lambda, theta* and the feasibility chain.

    Valid for 0 < eta < (sigma_k - sigma_{k+1}) / sqrt(2) with
    sigma_k > sigma_{k+1} >= 0.  With ``s = sqrt(1 - 4w)`` the chain's ``e =
    sqrt((1 + s) / (1 - s))`` gives ``lambda = (e^2 - 1) / (2e) = s / sqrt(1 -
    s^2)``; every field is read off the two terms of ``_terms``.
    """
    if not sigma_k > sigma_k1 >= 0.0:
        raise RegimeError(f"need sigma_k > sigma_k1 >= 0, got {sigma_k}, {sigma_k1}")
    bound = (sigma_k - sigma_k1) / math.sqrt(2.0)
    if not 0.0 < eta < bound:
        raise RegimeError(f"need 0 < eta < {bound}, got {eta}")
    y, x = _terms(sigma_k, sigma_k1, eta)
    gap2 = (sigma_k - sigma_k1) * (sigma_k + sigma_k1)
    return ClosedFormIntermediates(c=(sigma_k**2 + sigma_k1**2) / 2.0 - eta**2,
                                   w=(x / (2.0 * gap2)) ** 2, e=(gap2 + y) / x,
                                   lambda_max=y / x, theta_star=0.5 * math.atan2(y, x))


def recover_entries(ci: ClosedFormIntermediates, sigma_k: float, sigma_k1: float) -> np.ndarray:
    """Canonical entries (b_kk, b_k1k, b_kk1, b_k1k1) of the optimal attack.

    They are ``P V - diag(sigma_k, sigma_{k+1})``, the feasibility minimizer
    ``V = r [[cos alpha, sin alpha], [cos beta, sin beta]]`` rotated back
    through ``P = [[p11, -p21], [p21, p11]]`` with the clean spectrum
    subtracted off; the result uses the full budget: ``norm(entries) ==
    eta``.  That subtraction cancels as eta -> 0, so each entry is evaluated
    in closed form instead.  With ``n_a = |(p11 sigma_k, p21 sigma_{k+1})|``
    and ``n_b = |(p21 sigma_k, p11 sigma_{k+1})|``, all four carry the factor
    ``n_b - n_a = 2 lam (lam + sqrt(lam^2 + 1)) p11^2 (sigma_k^2 -
    sigma_{k+1}^2) / (n_a + n_b)``, which has no cancellation, so every
    entry is accurate to a few eps relative to eta.
    """
    return np.array(_entries(ci.lambda_max, sigma_k, sigma_k1))


def _entries(lam: float, sigma_k: float,
             sigma_k1: float) -> tuple[float, float, float, float]:
    root = math.sqrt(lam**2 + 1.0)
    p11 = 1.0 / math.sqrt((root + lam) ** 2 + 1.0)
    p21 = p11 * (root + lam)
    n_a = math.hypot(p11 * sigma_k, p21 * sigma_k1)
    n_b = math.hypot(p21 * sigma_k, p11 * sigma_k1)
    spread = (2.0 * lam * (lam + root) * p11**2
              * (sigma_k - sigma_k1) * (sigma_k + sigma_k1) / (n_a + n_b))
    mixed = 0.5 * (n_a + n_b) * p11 * p21 * spread / (n_a * n_b)
    return (0.5 * sigma_k * spread * (p11**2 / n_a - p21**2 / n_b),
            sigma_k * mixed,
            sigma_k1 * mixed,
            0.5 * sigma_k1 * spread * (p21**2 / n_a - p11**2 / n_b))


def lift_to_data_space(entries, svd: SvdTriple, k: int) -> PerturbationMatrix:
    """Place the four canonical entries and conjugate back to data space.

    Only the k-th and (k+1)-th singular pairs are read: the 2 x 2 core is
    ``[[b_kk, b_kk1], [b_k1k, b_k1k1]]``, lifted by ``report.lift``.
    """
    entries = np.asarray(entries, dtype=float).reshape(-1)
    if entries.size != 4:
        raise InvalidDimension("expected exactly four canonical entries")
    if k + 1 > svd.sigma.size:
        raise InvalidDimension(f"entries at row/col {k + 1} do not fit a "
                               f"{svd.shape[0]}x{svd.shape[1]} matrix")
    return PerturbationMatrix(delta=lift(*frames(svd, k), entries[[0, 2, 1, 3]], 1.0))


def attack_unconstrained(x, k: int, eta: float) -> tuple[PerturbationMatrix, AttackReport]:
    """Optimal unconstrained attack on the k-dim PCA subspace of ``x``."""
    x, k, eta = check_attack(x, k, eta)
    svd, at = attack_factor(x, k)
    solved = _attack_unconstrained(at, eta)
    b_kk, b_kk1, b_k1k, b_k1k1 = solved[2]
    attack = PerturbationMatrix(lift(*frames(svd, k), solved[2], at.unit))
    return attack, build_report("unconstrained", svd, at, eta, solved, x + attack.delta,
                                {"entries": np.array([b_kk, b_k1k, b_kk1, b_k1k1]) * at.unit})


def _attack_unconstrained(at: CoreSpectrum, eta: float) -> tuple[Regime, float, tuple]:
    """``solve_unconstrained`` on the spectrum ``at`` (``report.core_spectrum``),
    in its unit, after the dimension check: ``(regime, theta_predicted,
    core)``, the core in ``at.unit``."""
    d, n = at.shape
    if at.k + 1 > min(d, n):
        raise InvalidDimension(f"attack needs room at index k+1={at.k + 1} in a {d}x{n} matrix")
    return solve_unconstrained(at.sigma_k, at.sigma_k1, budget_in_unit(at, eta), at.case)


def solve_unconstrained(sigma_k: float, sigma_k1: float, eta: float,
                        case: str) -> tuple[Regime, float, tuple[float, float, float, float]]:
    """Regime, predicted distance and row-major 2 x 2 core ``(b_kk, b_kk1,
    b_k1k, b_k1k1)`` of the optimal unconstrained attack.

    Unless k < rank (``case``, as ``report.CoreSpectrum`` names it), sigma_{k+1}
    counts as zero, which reduces the chain to the rank-deficient setting.
    """
    if case != "k<rank":
        sigma_k1 = 0.0
    if eta == 0.0:
        # At a tie sigma_k = sigma_{k+1} the threshold below is 0, and the
        # zero budget would read Case1 and pi/2; it moves nothing, so it is
        # Case2 with theta 0 at every spectrum.  Elsewhere the chain gives
        # this zero core too.
        return Regime.UNCONSTRAINED_CASE2, 0.0, (0.0, 0.0, 0.0, 0.0)
    if eta >= (sigma_k - sigma_k1) / math.sqrt(2.0):
        shift = eta / math.sqrt(2.0)
        return Regime.UNCONSTRAINED_CASE1, math.pi / 2, (-shift, 0.0, 0.0, shift)
    y, x = _terms(sigma_k, sigma_k1, eta)
    b_kk, b_k1k, b_kk1, b_k1k1 = _entries(y / x, sigma_k, sigma_k1)
    return Regime.UNCONSTRAINED_CASE2, 0.5 * math.atan2(y, x), (b_kk, b_kk1, b_k1k, b_k1k1)
