"""The 2 x 2 core of the closed-form attacks, its lift, and their report.

Every optimal attack is ``delta = L B R^T`` with ``L = [u_k, e]``, ``R =
[v_k, v_{k+1}]`` and a 2 x 2 core ``B``; ``e`` is u_{k+1}, or a unit vector
off the column space when k = min(d, n).  ``X + delta`` is then block
diagonal in the clean singular bases, so the achieved distance can be read
from the core (``_core_angle``, which sweep cells use) as well as measured
by an independent PCA of ``X + delta``, which every report uses and sweep
cells fall back to; ``linalg._pca_distance_from_svd`` states how that PCA
reads ``X + delta`` and how accurate it is.  The same core gives the
perturbed top-k subspace (``_core_split``), which PCR refits read.

Solving a core and splitting it read only a ``CoreSpectrum``, built once
per (spectrum, k) by ``core_spectrum`` from one values-only SVD or from an
``SvdTriple``, so no module outside ``linalg`` and this one reads a
``Spectrum``.  A solver returns its core as four Python floats ``(b_kk,
b_kk1, b_k1k, b_k1k1)``, row-major, in the record's unit (``core_spectrum``
states the unit, ``budget_in_unit`` the budgets it cannot hold), so a sweep
cell is a few float operations.  Only ``frames``, ``lift`` and
``build_report`` need singular vectors, and only the pairs k and k+1, which
``attack_factor`` asks ``linalg.leading_svd`` for.  ``lift``, the rank-one
attack vectors and the PCR refit are the only code that turns a core into a
2 x 2 array in the data's scale (``_core_array``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (TIE_TOL, Spectrum, SvdTriple, _pca_distance_from_svd, _tied,
                     complement_direction, leading_svd, svd_2x2)


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


@dataclass(frozen=True)
class CoreSpectrum:
    """What the closed forms, their regime checks and the split of a 2x2 core
    read of a matrix's spectrum at ``k``, built once per (spectrum, k) by
    ``core_spectrum``.

    ``case`` is ``"k<rank"``, ``"low_rank"`` (k >= rank, rank < min(d, n)) or
    ``"full_rank"`` (k = rank = min(d, n)).  The singular values are Python
    floats in ``unit``, sigma_1 rounded down to a power of two: ``sigma_k``,
    ``sigma_k1`` (sigma_{k+1}, 0 past min(d, n)), and the split's neighbours
    ``above`` (sigma_{k-1}, inf at k = 1), ``below`` (sigma_{k+2}, 0 past
    min(d, n)) and ``top`` (sigma_1).  ``ratio_scale``, in the data's scale,
    is what a sweep's or PCR's budget ratio multiplies: sigma_k when rank <=
    k, else the gap sigma_k - sigma_{k+1}.  ``tied`` is set when the clean
    top-k truncation is tied (``linalg._tied``), so its subspace, and any
    angle measured from it, is tie-break dependent.
    """

    shape: tuple[int, int]
    k: int
    rank: int
    case: str
    unit: float
    sigma_k: float
    sigma_k1: float
    above: float
    below: float
    top: float
    ratio_scale: float
    tied: bool


def core_spectrum(spectrum: Spectrum, k: int) -> CoreSpectrum:
    """The ``CoreSpectrum`` of a ``Spectrum`` (or an ``SvdTriple``) at ``k``.

    Its unit is sigma_1 rounded down to a power of two.  The closed forms
    are homogeneous in (sigma, eta), and scaling by a power of two is exact,
    so solving and splitting in the unit changes no result: an attack is the
    same at every scale of X and eta, and no square in a solver overflows or
    underflows, from 1e-150 to 1e150 (``tests/test_scale.py``) and beyond.
    Rounded down, the unit stays finite up to the largest float, so an
    attack on ``diag(1e308, 1e307, 1e306)`` runs; rounded up, the unit of a
    sigma_1 at or above 2^1023 would overflow."""
    sigma, rank = spectrum.sigma.tolist(), spectrum.rank
    p = len(sigma)
    case = "k<rank" if k < rank else "low_rank" if rank < p else "full_rank"
    unit = math.ldexp(1.0, math.frexp(sigma[0])[1] - 1)
    return CoreSpectrum(spectrum.shape, k, rank, case, unit, sigma[k - 1] / unit,
                        sigma[k] / unit if k < p else 0.0,
                        sigma[k - 2] / unit if k > 1 else math.inf,
                        sigma[k + 1] / unit if k + 1 < p else 0.0, sigma[0] / unit,
                        sigma[k - 1] if rank <= k else sigma[k - 1] - sigma[k],
                        _tied(spectrum.sigma, k, spectrum.shape[0]))


def budget_in_unit(at: CoreSpectrum, eta: float) -> float:
    """``eta`` in ``at.unit``, or ValueError when it overflows there, past
    about 1e308 sigma_1: a core in that unit could not hold such a budget.

    A budget that is subnormal in the unit, below about 2.2e-308 sigma_1,
    reads 0.0: a core solved from so few bits overspends it (1.7x and 3.4x
    at 3.7e-294 on a sigma_1 of 2^100), so it gets the zero attack, as one
    that underflows to 0 there already does."""
    eta_in_unit = eta / at.unit
    if eta_in_unit == math.inf:
        raise ValueError(f"energy budget {eta!r} exceeds sigma_1 = {at.top * at.unit!r} "
                         f"by more than the float64 range")
    return 0.0 if 0.0 < eta_in_unit < sys.float_info.min else eta_in_unit


def attack_factor(x: np.ndarray, k: int) -> tuple[SvdTriple, CoreSpectrum]:
    """What an attack at ``k`` on the checked matrix ``x`` reads: its
    ``leading_svd`` of the leading k + 1 pairs (all of them at k = min(d,
    n)), and that factor's ``CoreSpectrum``."""
    svd = leading_svd(x, min(k + 1, min(x.shape)))
    return svd, core_spectrum(svd, k)


def core_norm(core: tuple[float, float, float, float]) -> float:
    """``||core||_F`` by ``math.hypot``, which squares nothing, so it neither
    overflows nor underflows at any scale."""
    return math.hypot(*core)


def frames(svd: SvdTriple, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``L = [u_k, e]`` and ``R = [v_k, v_{k+1}]``; at k = n, ``R`` is ``[v_k]``
    and a core's second column must be zero.  ``svd`` holds at least the
    leading k + 1 pairs, or all of them at k = min(d, n)."""
    # e = 0 only at k = d = n, which only the zero attack reaches
    d, p = svd.shape[0], svd.sigma.size
    e = svd.u[:, k] if k < p else complement_direction(svd.u) if d > p else np.zeros(d)
    return np.column_stack([svd.u[:, k - 1], e]), svd.v[:, k - 1:k + 1]


def _core_array(core: tuple[float, float, float, float], unit: float) -> np.ndarray:
    """The row-major ``core`` in ``unit`` as a 2 x 2 array in the data's scale."""
    return np.array(core).reshape(2, 2) * unit


def lift(left: np.ndarray, right: np.ndarray, core: tuple[float, float, float, float],
         unit: float) -> np.ndarray:
    """The dense perturbation ``L @ core @ R^T``, from the ``frames`` ``(L, R)``
    and a row-major core in ``unit``."""
    return left @ _core_array(core, unit)[:, :right.shape[1]] @ right.T


def _core_split(at: CoreSpectrum, core: tuple[float, float, float, float]
                ) -> tuple[float, float] | None:
    """The leading left singular vector ``w`` of ``diag(sigma_k, sigma_{k+1}) +
    core``, or None unless its singular values ``s_1 >= s_2`` split cleanly
    from the rest: ``min(sigma_{k-1}, s_1) - max(s_2, sigma_{k+2}) > TIE_TOL *
    max(sigma_1, s_1)``.  The perturbed truncation is then not tied, and its
    top-k left singular subspace is ``u_1 .. u_{k-1}`` plus ``L w``.  All of
    it is read in ``at.unit``."""
    b_kk, b_kk1, b_k1k, b_k1k1 = core
    s_1, s_2, w_1, w_2 = svd_2x2(at.sigma_k + b_kk, b_kk1, b_k1k, at.sigma_k1 + b_k1k1)
    if min(at.above, s_1) - max(s_2, at.below) <= TIE_TOL * max(at.top, s_1):
        return None
    return w_1, w_2


def _core_angle(at: CoreSpectrum, core: tuple[float, float, float, float]) -> float | None:
    """Achieved distance ``atan2(|w_2|, |w_1|)`` with ``w`` from ``_core_split``,
    or None when the core does not split cleanly."""
    w = _core_split(at, core)
    return None if w is None else math.atan2(abs(w[1]), abs(w[0]))


def build_report(strategy: str, svd: SvdTriple, at: CoreSpectrum, eta: float,
                 solved: tuple[Regime, float, tuple], perturbed: np.ndarray,
                 solution: dict) -> AttackReport:
    """Report the attack that turned the matrix factored as ``svd`` into
    ``perturbed``; its closed form returned ``solved = (regime,
    theta_predicted, core)`` on ``at = core_spectrum(svd, k)``.  The achieved
    angle comes from an independent PCA of ``perturbed``, and ``budget_used``
    is ``||core||_F``."""
    regime, theta_predicted, core = solved
    theta, ambiguous = _pca_distance_from_svd(svd, perturbed, at.k)
    return AttackReport(strategy, regime, at.k, eta, svd.sigma.copy(), theta_predicted, theta,
                        at.unit * core_norm(core), bool(ambiguous), solution)
