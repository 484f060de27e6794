"""Provably optimal adversarial perturbations of PCA subspaces.

Given a data matrix, the attacks here compute the energy-bounded
perturbation that maximally rotates the span of the k leading principal
components, measured by the Asimov distance (largest principal angle).
Closed forms cover rank-one and unconstrained perturbations across all
budget regimes; search-based oracles verify them independently.

The package exports what the CLI, the demos, the tests and the benchmark
use.  Result types such as ``RankOneAttack``, ``PerturbationMatrix``,
``SvdTriple`` or ``SweepRow`` are imported from their modules.
"""

from .errors import (InvalidDimension, InvalidMatrix, NoOrthogonalComplement,
                     OracleTooExpensive, ParseError, PcattackError, RankMismatch,
                     RegimeError, SingularFit, UndefinedR2)
from .experiments import (SweepSpec, parse_sweep_spec, run_sweep, synth_gaussian,
                          synth_low_rank, write_sweep_csv)
from .fileio import read_matrix_csv, write_matrix_csv
from .linalg import (OrthonormalBasis, asimov_distance, compress_rank_one_problem,
                     full_svd, leading_subspace, pca_distance, principal_angles,
                     unitary_conjugate)
from .oracle import (SearchConfig, brute_force_principal_angles,
                     grid_search_angles, portable_normal, random_rank_one,
                     random_unconstrained, stationarity_residual)
from .pcr import (attack_pcr, fit_pcr, load_feature_csv, r_squared,
                  synthetic_collinear, write_regression_csv)
from .rank_one import (attack_rank_one, equivalent_solutions, klt_rank_closed_form,
                       theta_from_angles)
from .report import AttackReport, Regime
from .unconstrained import (attack_unconstrained, closed_form_lambda,
                            lift_to_data_space, paired_entries, recover_entries)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "InvalidDimension",
    "InvalidMatrix",
    "NoOrthogonalComplement",
    "OracleTooExpensive",
    "OrthonormalBasis",
    "ParseError",
    "PcattackError",
    "RankMismatch",
    "Regime",
    "RegimeError",
    "SearchConfig",
    "SingularFit",
    "SweepSpec",
    "UndefinedR2",
    "asimov_distance",
    "attack_pcr",
    "attack_rank_one",
    "attack_unconstrained",
    "brute_force_principal_angles",
    "closed_form_lambda",
    "compress_rank_one_problem",
    "equivalent_solutions",
    "fit_pcr",
    "full_svd",
    "grid_search_angles",
    "klt_rank_closed_form",
    "leading_subspace",
    "lift_to_data_space",
    "load_feature_csv",
    "paired_entries",
    "parse_sweep_spec",
    "pca_distance",
    "portable_normal",
    "principal_angles",
    "r_squared",
    "random_rank_one",
    "random_unconstrained",
    "read_matrix_csv",
    "recover_entries",
    "run_sweep",
    "stationarity_residual",
    "synth_gaussian",
    "synth_low_rank",
    "synthetic_collinear",
    "theta_from_angles",
    "unitary_conjugate",
    "write_matrix_csv",
    "write_regression_csv",
    "write_sweep_csv",
]
