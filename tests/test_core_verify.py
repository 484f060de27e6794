"""The ``core`` verify method against the independent ``full`` re-PCA."""

import numpy as np
import pytest

from pcattack import (Regime, SweepSpec, full_svd, pca_distance, run_sweep,
                      synth_gaussian, synth_low_rank)
from pcattack.experiments import ATTACKS, STRATEGIES, _budget_unit, _sweep_data
from pcattack.linalg import _leading_from_svd


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd``, in call order."""
    shapes = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def _k_lt_rank(shape, k, seed):
    x = synth_gaussian(*shape, seed=seed)
    sigma = full_svd(x).sigma
    return x, k, sigma[k - 1] - sigma[k]


def _low_rank(shape, k, seed):
    x = synth_low_rank(*shape, k, seed=seed)
    return x, k, full_svd(x).sigma[k - 1]


def _full_rank(shape, seed):
    x = synth_gaussian(*shape, seed=seed)
    return x, shape[1], full_svd(x).sigma[-1]


# (family, regime, (x, k, budget unit), budget ratio); tall, wide and square
# inputs, and the full-rank regimes at k = n, where e is off the column space.
SHAPES = {"tall": ((9, 6), 2), "wide": ((5, 8), 3), "square": ((6, 6), 3)}
CASES = [
    ("rank_one", Regime.K_LT_RANK_CASE2, _k_lt_rank, 0.45),
    ("rank_one", Regime.K_LT_RANK_CASE1, _k_lt_rank, 1.6),
    ("rank_one", Regime.LOW_RANK_CASE2, _low_rank, 0.6),
    ("rank_one", Regime.LOW_RANK_CASE1, _low_rank, 1.7),
    ("unconstrained", Regime.UNCONSTRAINED_CASE2, _k_lt_rank, 0.3),
    ("unconstrained", Regime.UNCONSTRAINED_CASE1, _k_lt_rank, 1.2),
    ("unconstrained", Regime.UNCONSTRAINED_CASE2, _low_rank, 0.5),
    ("unconstrained", Regime.UNCONSTRAINED_CASE1, _low_rank, 1.3),
]
INSTANCES = [(family, regime, make(*SHAPES[name], seed), ratio,
              f"{regime.value}{make.__name__}-{name}-{seed}")
             for family, regime, make, ratio in CASES
             for name in SHAPES for seed in (1, 2)]
INSTANCES += [("rank_one", regime, _full_rank(shape, seed), ratio,
               f"{regime.value}-tall-{shape[0]}x{shape[1]}-{seed}")
              for regime, ratio in ((Regime.FULL_RANK_CASE2, 0.5), (Regime.FULL_RANK_CASE1, 1.8))
              for shape in ((9, 6), (7, 1)) for seed in (1, 2)]


def _reports(family, x, k, eta):
    closed_form, _ = ATTACKS[family]
    svd = full_svd(x)
    clean_ambiguous = _leading_from_svd(svd, k).ambiguous
    _, full = closed_form(x, svd, k, eta)
    _, core = closed_form(x, svd, k, eta, "core", clean_ambiguous)
    return full, core


@pytest.mark.parametrize("family, regime, instance, ratio",
                         [i[:4] for i in INSTANCES], ids=[i[4] for i in INSTANCES])
def test_core_agrees_with_full(svd_calls, family, regime, instance, ratio):
    x, k, unit = instance
    if family == "unconstrained":
        unit /= np.sqrt(2.0)
    full, core = _reports(family, x, k, ratio * unit)
    assert full.regime == core.regime == regime
    # one factor and one re-PCA for full, nothing dense for core
    assert svd_calls.count(x.shape) == 2
    assert core.theta_achieved == pytest.approx(full.theta_achieved, abs=1e-10)
    assert core.ambiguous_subspace == full.ambiguous_subspace
    assert (core.theta_predicted, core.budget_used) == (full.theta_predicted, full.budget_used)


def test_core_keeps_clean_tie_flag():
    # sigma_2 = sigma_3 ties the clean truncation at k = 2; the perturbed core
    # still splits cleanly, so core answers, and both methods flag the report.
    x = np.diag([3.0, 2.0, 2.0, 1.0])
    full, core = _reports("unconstrained", x, 2, 0.5)
    assert core.regime == Regime.UNCONSTRAINED_CASE1
    assert core.ambiguous_subspace and full.ambiguous_subspace
    assert core.theta_achieved == pytest.approx(full.theta_achieved, abs=1e-10)


def test_tied_core_falls_back_to_full(svd_calls):
    # eta exactly at the unconstrained threshold ties the core's singular values
    x = np.diag([3.0, 2.0, 1.0])
    svd = full_svd(x)
    eta = (2.0 - 1.0) / np.sqrt(2.0)
    closed_form, _ = ATTACKS["unconstrained"]
    _, full = closed_form(x, svd, 2, eta)
    before = svd_calls.count((3, 3))
    _, core = closed_form(x, svd, 2, eta, "core", _leading_from_svd(svd, 2).ambiguous)
    assert svd_calls.count((3, 3)) == before + 1
    assert core.ambiguous_subspace and full.ambiguous_subspace
    assert core.theta_achieved == full.theta_achieved


@pytest.mark.parametrize("spec", [
    SweepSpec(d=5, n=5, k=3, data_kind="low_rank", seed=11),
    SweepSpec(d=5, n=5, k=3, data_kind="gaussian", seed=29,
              eta_grid=tuple(0.048 * i for i in range(1, 21))),
    SweepSpec(d=200, n=100, k=10, data_kind="gaussian", seed=7),
], ids=["acceptance-low-rank", "acceptance-general", "200x100"])
def test_sweep_theta_is_the_pca_distance_of_the_lifted_delta(spec):
    spec = SweepSpec(d=spec.d, n=spec.n, k=spec.k, data_kind=spec.data_kind,
                     seed=spec.seed, eta_grid=spec.eta_grid,
                     strategies=("r1-opt", "wr-opt"))
    x = _sweep_data(spec)
    svd = full_svd(x)
    unit = _budget_unit(svd, spec.k)
    rows = run_sweep(spec)
    assert len(rows) == 2 * len(spec.eta_grid)
    for row in rows:
        closed_form, _ = ATTACKS[STRATEGIES[row.strategy][0]]
        attack, _ = closed_form(x, svd, spec.k, row.eta_ratio * unit, verify=None)
        theta, _ = pca_distance(x, x + attack.delta, spec.k)
        assert row.theta == pytest.approx(theta, abs=1e-10), row
