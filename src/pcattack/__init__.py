"""Provably optimal adversarial perturbations of PCA subspaces.

Given a data matrix, the attacks here compute the energy-bounded
perturbation that maximally rotates the span of the k leading principal
components, measured by the Asimov distance (largest principal angle).
Closed forms cover rank-one and unconstrained perturbations across all
budget regimes; search-based oracles verify them independently.

The package exports what the CLI, the demos, the tests and the benchmark
use.  Result types such as ``RankOneAttack``, ``PerturbationMatrix``,
``SvdTriple`` or ``SweepRow`` are imported from their modules.
``import pcattack`` loads no submodule: an exported name loads its module
on first use (PEP 562), so a CLI command pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(("InvalidDimension", "InvalidMatrix", "NoOrthogonalComplement",
                     "ParseError", "PcattackError", "RankMismatch", "RegimeError",
                     "SingularFit", "UndefinedR2"), "errors"),
    **dict.fromkeys(("SweepSpec", "parse_sweep_spec", "run_sweep", "synth_gaussian",
                     "synth_low_rank", "write_sweep_csv"), "experiments"),
    **dict.fromkeys(("read_matrix_csv", "write_matrix_csv"), "fileio"),
    **dict.fromkeys(("OrthonormalBasis", "asimov_distance", "compress_rank_one_problem",
                     "full_svd", "leading_subspace", "pca_distance", "principal_angles",
                     "unitary_conjugate"), "linalg"),
    **dict.fromkeys(("SearchConfig", "grid_search_angles", "portable_normal",
                     "random_rank_one", "random_unconstrained", "verify"), "oracle"),
    **dict.fromkeys(("attack_pcr", "fit_pcr", "load_feature_csv", "r_squared",
                     "synthetic_collinear", "write_regression_csv"), "pcr"),
    **dict.fromkeys(("attack_rank_one", "equivalent_solutions", "klt_rank_closed_form",
                     "theta_from_angles"), "rank_one"),
    **dict.fromkeys(("AttackReport", "Regime"), "report"),
    **dict.fromkeys(("attack_unconstrained", "closed_form_lambda", "lift_to_data_space",
                     "paired_entries", "recover_entries"), "unconstrained"),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
