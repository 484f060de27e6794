"""The 2 x 2 core of the closed-form attacks, its lift, and their report.

Every optimal attack is ``delta = L B R^T`` with ``L = [u_k, e]``, ``R =
[v_k, v_{k+1}]`` and a 2 x 2 core ``B``; ``e`` is u_{k+1}, or a unit vector
off the column space when k = min(d, n).  ``X + delta`` is then block
diagonal in the clean singular bases, so the achieved distance can be read
from the core (``_core_angle``, which sweep cells use) as well as measured
by an independent PCA of ``X + delta`` (``linalg._pca_distance_from_svd``,
which every report uses and sweep cells fall back to).  The same core gives
the perturbed top-k subspace (``_core_split``), which PCR refits read.

Solving a core (``core_case``, ``solve_core``) and splitting it
(``_core_split``, ``_core_angle``) read only the singular values, the rank
and the shape: a ``linalg.Spectrum`` from one values-only SVD serves them
as well as an ``SvdTriple``, which sweeps and ``verify`` rely on.  Only
``frames``, ``lift`` and ``build_report`` need the singular vectors, and
only the pairs k and k+1: an attack factors X by ``linalg.leading_svd(x, k +
1)``, which on an input with one long side (``max(d, n) >= RSVD_ASPECT *
min(d, n)``, 1.6, and k + 1 <= ``RSVD_SHARE * min(d, n)``, 0.9) takes no thin
SVD but an R-only QR of X (tall) or X^T (wide), the SVD of its min(d,
n)-square triangle and a QR of the long side's block.  ``lift`` reads the
pair of ``frames`` that its caller builds once.  The split is a closed-form 2
x 2 SVD (``linalg.svd_2x2``) on Python floats; it squares nothing, and a
small rotation keeps its relative accuracy.

The independent PCA (``linalg._pca_distance_from_svd``) reads only ``X +
delta``.  At k < n it factors it by the same routine.  At k = n < d, where
the top-k subspace is the column space, it takes an R-only QR of ``X +
delta`` and reads the angles through that triangle, without forming the
QR's ``Q``.  Either way the span is accurate to O(eps sigma_1 / (sigma_k -
sigma_{k+1})), as a dense SVD's is, and a small angle is read from its sine,
so a tiny budget's achieved angle is accurate to that order as well.  Every
factor runs again in a power-of-two unit once sigma_1 reaches 2^511
(``linalg._unit_safe``), and the solvers in units of sigma_1 rounded to a
power of two (``solve_core``), so an attack is the same at any scale of X
and eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (TIE_TOL, Spectrum, SvdTriple, _pca_distance_from_svd, complement_direction,
                     svd_2x2)


class Regime(str, Enum):
    """Which closed-form branch produced an attack."""

    FULL_RANK_CASE1 = "FullRankCase1"
    FULL_RANK_CASE2 = "FullRankCase2"
    LOW_RANK_CASE1 = "LowRankCase1"
    LOW_RANK_CASE2 = "LowRankCase2"
    K_LT_RANK_CASE1 = "KLtRankCase1"
    K_LT_RANK_CASE2 = "KLtRankCase2"
    UNCONSTRAINED_CASE1 = "UnconstrainedCase1"
    UNCONSTRAINED_CASE2 = "UnconstrainedCase2"


@dataclass
class AttackReport:
    """Summary of one attack: what was predicted and what actually happened.

    ``theta_achieved`` is measured as ``build_report`` describes.
    ``ambiguous_subspace`` is set when either truncation had a tied trailing
    singular value: the achieved value is then tie-break dependent.
    """

    strategy: str
    regime: Regime
    k: int
    eta: float
    sigma: np.ndarray
    theta_predicted: float
    theta_achieved: float
    budget_used: float
    ambiguous_subspace: bool
    solution: dict

    def to_json_dict(self) -> dict:
        solution = {key: [float(v) for v in val] if isinstance(val, np.ndarray) else val
                    for key, val in self.solution.items()}
        return {
            "schema_version": 1,
            "strategy": self.strategy,
            "regime": self.regime.value,
            "k": int(self.k),
            "eta": float(self.eta),
            "sigma": [float(s) for s in self.sigma],
            "theta_predicted": float(self.theta_predicted),
            "theta_achieved": float(self.theta_achieved),
            "theta_degrees": math.degrees(float(self.theta_achieved)),
            "delta_fro_norm": float(self.budget_used),
            "solution": solution,
            "ambiguous_subspace": bool(self.ambiguous_subspace),
        }


def core_case(spectrum: Spectrum, k: int) -> tuple[float, float, str]:
    """``(sigma_k, sigma_{k+1}, case)`` for a family's solver; ``case`` is
    ``"k<rank"``, ``"low_rank"`` (k >= rank, rank < min(d, n)) or
    ``"full_rank"`` (k = rank = min(d, n), where sigma_{k+1} is 0)."""
    rank, p = spectrum.rank, spectrum.sigma.size
    case = "k<rank" if k < rank else "low_rank" if rank < p else "full_rank"
    return float(spectrum.sigma[k - 1]), float(spectrum.sigma[k]) if k < p else 0.0, case


def solve_core(solve, spectrum: Spectrum, k: int,
               eta: float) -> tuple[Regime, float, np.ndarray]:
    """``solve(sigma_k, sigma_{k+1}, eta, case)``, with ``core_case``'s
    arguments, run in units of sigma_1 rounded down to a power of two:
    ``(regime, theta_predicted, core)``.  The closed forms are homogeneous
    in (sigma, eta), and scaling by a power of two is exact, so the unit
    changes no result; it keeps their squares in range at any scale of X.
    Rounded up, the unit of a sigma_1 at or above 2^1023 would overflow."""
    sigma_k, sigma_k1, case = core_case(spectrum, k)
    unit = math.ldexp(1.0, math.frexp(spectrum.sigma[0])[1] - 1)
    regime, theta, core = solve(sigma_k / unit, sigma_k1 / unit, eta / unit, case)
    return regime, theta, core * unit


def core_norm(core: np.ndarray) -> float:
    """``||core||_F`` by ``math.hypot``, which squares nothing, so it neither
    overflows nor underflows at any scale."""
    return math.hypot(*core.ravel().tolist())


def frames(svd: SvdTriple, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``L = [u_k, e]`` and ``R = [v_k, v_{k+1}]``; at k = n, ``R`` is ``[v_k]``
    and a core's second column must be zero.  ``svd`` holds at least the
    leading k + 1 pairs, or all of them at k = min(d, n)."""
    # e = 0 only at k = d = n, which only the zero attack reaches
    d, p = svd.shape[0], svd.sigma.size
    e = svd.u[:, k] if k < p else complement_direction(svd.u) if d > p else np.zeros(d)
    return np.column_stack([svd.u[:, k - 1], e]), svd.v[:, k - 1:k + 1]


def lift(left: np.ndarray, right: np.ndarray, core: np.ndarray) -> np.ndarray:
    """The dense perturbation ``L @ core @ R^T``, from the ``frames`` ``(L, R)``."""
    return left @ core[:, :right.shape[1]] @ right.T


def _core_split(spectrum: Spectrum, k: int, core: np.ndarray) -> tuple[float, float] | None:
    """The leading left singular vector ``w`` of ``diag(sigma_k, sigma_{k+1}) +
    core``, or None unless its singular values ``s_1 >= s_2`` split cleanly
    from the rest: ``min(sigma_{k-1}, s_1) - max(s_2, sigma_{k+2}) > TIE_TOL *
    max(sigma_1, s_1)``.  The perturbed truncation is then not tied, and its
    top-k left singular subspace is ``u_1 .. u_{k-1}`` plus ``L w``.  Singular
    values past ``min(d, n)`` count as zero."""
    sigma, p = spectrum.sigma, spectrum.sigma.size
    (b_kk, b_kk1), (b_k1k, b_k1k1) = core.tolist()
    sigma_k1 = float(sigma[k]) if k < p else 0.0
    s_1, s_2, w_1, w_2 = svd_2x2(float(sigma[k - 1]) + b_kk, b_kk1, b_k1k, sigma_k1 + b_k1k1)
    above = float(sigma[k - 2]) if k > 1 else math.inf
    below = float(sigma[k + 1]) if k + 1 < p else 0.0
    if min(above, s_1) - max(s_2, below) <= TIE_TOL * max(float(sigma[0]), s_1):
        return None
    return w_1, w_2


def _core_angle(spectrum: Spectrum, k: int, core: np.ndarray) -> float | None:
    """Achieved distance ``atan2(|w_2|, |w_1|)`` with ``w`` from ``_core_split``,
    or None when the core does not split cleanly."""
    w = _core_split(spectrum, k, core)
    return None if w is None else math.atan2(abs(w[1]), abs(w[0]))


def build_report(strategy: str, svd: SvdTriple, k: int, eta: float,
                 solved: tuple[Regime, float, np.ndarray], perturbed: np.ndarray,
                 solution: dict) -> AttackReport:
    """Report the attack that turned the matrix factored as ``svd`` into
    ``perturbed``; its closed form returned ``solved = (regime,
    theta_predicted, core)``.  The achieved angle comes from an independent
    PCA of ``perturbed``, and ``budget_used`` is ``||core||_F``."""
    regime, theta_predicted, core = solved
    theta, ambiguous = _pca_distance_from_svd(svd, perturbed, k)
    return AttackReport(strategy, regime, k, eta, svd.sigma.copy(), theta_predicted, theta,
                        core_norm(core), bool(ambiguous), solution)
