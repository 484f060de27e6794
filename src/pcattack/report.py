"""Attack outcome containers and the report builder shared by the closed-form
strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import SvdTriple, _leading_from_svd, asimov_distance, full_svd


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

    ``theta_achieved`` is always recomputed by re-running PCA on the
    perturbed matrix; ``ambiguous_subspace`` is set when either truncation
    had a tied trailing singular value, in which case the achieved value is
    tie-break dependent and must not be trusted.
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
        solution = {}
        for key, val in self.solution.items():
            if isinstance(val, np.ndarray):
                solution[key] = [float(x) for x in val]
            else:
                solution[key] = val
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


def build_report(strategy: str, regime: Regime, x: np.ndarray, svd: SvdTriple,
                 k: int, eta: float, delta: np.ndarray, theta_predicted: float,
                 solution: dict) -> AttackReport:
    """Report an attack on ``x``, whose factorization ``svd`` the attack read.

    ``theta_achieved`` comes from an independent PCA of ``x + delta``, never
    from the clean factors, so it checks the closed form end to end.
    """
    basis_before = _leading_from_svd(svd, k)
    basis_after = _leading_from_svd(full_svd(x + delta), k)
    return AttackReport(
        strategy=strategy,
        regime=regime,
        k=k,
        eta=eta,
        sigma=svd.sigma.copy(),
        theta_predicted=theta_predicted,
        theta_achieved=asimov_distance(basis_before, basis_after),
        budget_used=float(np.linalg.norm(delta)),
        ambiguous_subspace=basis_before.ambiguous or basis_after.ambiguous,
        solution=solution,
    )
