"""The angle read from a 2x2 attack core against the independent re-PCA."""

import math

import numpy as np
import pytest
from conftest import factor_call, matrix_with_spectrum, re_pca_call, re_pca_calls, svd_shapes

from pcattack import (Regime, SweepSpec, attack_rank_one, attack_unconstrained, full_svd,
                      pca_distance, run_sweep, synth_gaussian, synth_low_rank, write_matrix_csv)
from pcattack.experiments import ATTACKS, STRATEGIES, _sweep_data
from pcattack.linalg import _pca_distance_from_svd
from pcattack.report import _core_angle, core_spectrum, frames, lift


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
# inputs, the full-rank regimes at k = n, where e is off the column space, and
# a clean spectrum tied at sigma_2 = sigma_3 whose perturbed core still splits.
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
INSTANCES += [("unconstrained", Regime.UNCONSTRAINED_CASE1,
               (np.diag([3.0, 2.0, 2.0, 1.0]), 2, 0.5 * np.sqrt(2.0)), 1.0,
               "UnconstrainedCase1-clean-tie-4x4")]


@pytest.mark.parametrize("family, regime, instance, ratio",
                         [i[:4] for i in INSTANCES], ids=[i[4] for i in INSTANCES])
def test_core_agrees_with_full(svd_calls, family, regime, instance, ratio):
    x, k, unit = instance
    if family == "unconstrained":
        unit /= np.sqrt(2.0)
    closed_form = ATTACKS[family].closed_form
    svd = full_svd(x)
    at = core_spectrum(svd, k)
    solved_regime, _, core = closed_form(at, ratio * unit)
    assert solved_regime == regime
    core_theta = _core_angle(at, core)
    full_theta, _ = _pca_distance_from_svd(svd, x + lift(*frames(svd, k), core, at.unit), k)
    # one factor and one re-PCA; the core angle runs no dense SVD, and the
    # re-PCA runs one of x's shape unless it reads a QR's triangle
    assert svd_shapes(svd_calls).count(x.shape) == 1 + svd_shapes(re_pca_calls(x.shape, k)).count(
        x.shape)
    assert core_theta is not None
    assert core_theta == pytest.approx(full_theta, abs=1e-10)


def test_tied_core_falls_back_to_full(svd_calls, tmp_path):
    # wr-opt at eta exactly at the unconstrained threshold (sigma_2 - sigma_3)
    # / sqrt(2) ties the core's singular values, so the sweep cell factors X
    # in full, lifts the core it solved onto that factor's frames and
    # re-PCAs: the values-only SVD, the full factor and the re-PCA
    x = np.diag([3.0, 2.0, 1.0])
    path = tmp_path / "x.csv"
    write_matrix_csv(path, x)
    spec = SweepSpec(d=3, n=3, k=2, data_kind="from_file", data_path=str(path),
                     eta_grid=(1.0 / np.sqrt(2.0),), strategies=("wr-opt",))
    (row,) = run_sweep(spec)
    assert [call for call in svd_calls if call[0] == (3, 3)] == [
        ((3, 3), False), ((3, 3), True), ((3, 3), True)]
    svd = full_svd(x)
    closed_form = ATTACKS["unconstrained"].closed_form
    at = core_spectrum(svd, 2)
    _, _, core = closed_form(at, row.eta_ratio * at.ratio_scale)
    assert _core_angle(at, core) is None
    assert row.theta == _pca_distance_from_svd(svd, x + lift(*frames(svd, 2), core, at.unit),
                                               2)[0]


def test_tied_cell_solves_its_closed_form_once(monkeypatch, tmp_path):
    # the cell of the test above lifts the core it solved on the sweep's
    # spectrum instead of solving again on the factor's; its row is the same
    family = ATTACKS["unconstrained"]
    solved = []

    def counting(at, eta):
        solved.append(eta)
        return family.closed_form(at, eta)

    monkeypatch.setitem(ATTACKS, "unconstrained", family._replace(closed_form=counting))
    path = tmp_path / "x.csv"
    write_matrix_csv(path, np.diag([3.0, 2.0, 1.0]))
    spec = SweepSpec(d=3, n=3, k=2, data_kind="from_file", data_path=str(path),
                     eta_grid=(1.0 / np.sqrt(2.0),), strategies=("wr-opt",))
    (row,) = run_sweep(spec)
    assert len(solved) == 1
    assert row == (1.0 / np.sqrt(2.0), "wr-opt", math.pi / 2, math.pi / 2,
                   0.7071067811865475, None)


def test_small_budget_core_angle_is_predicted():
    # theta ~ eta / gap: the split must keep the angle's relative accuracy
    spec = SweepSpec(d=200, n=100, k=10, data_kind="gaussian", seed=7,
                     eta_grid=tuple(10.0**-e for e in range(12, 1, -1)),
                     strategies=("r1-opt", "wr-opt"))
    rows = run_sweep(spec)
    assert len(rows) == 22
    for row in rows:
        assert row.theta == pytest.approx(row.theta_predicted, rel=1e-10, abs=0.0), row


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
    at = core_spectrum(svd, spec.k)
    rows = run_sweep(spec)
    assert len(rows) == 2 * len(spec.eta_grid)
    for row in rows:
        closed_form = ATTACKS[STRATEGIES[row.strategy][0]].closed_form
        _, _, core = closed_form(at, row.eta_ratio * at.ratio_scale)
        theta, _ = pca_distance(x, x + lift(*frames(svd, spec.k), core, at.unit), spec.k)
        assert row.theta == pytest.approx(theta, abs=1e-10), row


# a tall and a wide input, whose factor and re-PCA take the R-SVD path, and a
# near-square one, whose factor and re-PCA are thin SVDs
@pytest.mark.parametrize("shape", [(120, 40), (60, 40), (40, 120)],
                         ids=["tall", "near-square", "wide"])
@pytest.mark.parametrize("attack", [attack_rank_one, attack_unconstrained])
@pytest.mark.parametrize("ratio", [1e-5, 1e-8, 1e-12])
def test_tiny_budget_angle_reaches_the_dense_svd_floor(shape, attack, ratio):
    # an independent re-PCA fixes a span only to O(eps sigma_1 / gap), so that
    # is the floor of the achieved angle, well below the angle at 1e-5
    x, k = synth_gaussian(*shape, seed=7), 5
    sigma = full_svd(x).sigma
    gap = sigma[k - 1] - sigma[k]
    _, report = attack(x, k, ratio * gap)
    floor = np.finfo(float).eps * sigma[0] / gap
    assert abs(report.theta_achieved - report.theta_predicted) <= 16 * floor


# tall and wide inputs whose factor and re-PCA take the Gram route, and on
# which the R-SVD, too, meets the floor (on some other geometric spectra it
# reached 45 units)
GRAM_INPUTS = {
    "gaussian-200x50": lambda: synth_gaussian(200, 50, seed=7),
    "condition-100-200x50": lambda: matrix_with_spectrum(np.geomspace(1.0, 0.01, 50), 200, 50,
                                                         seed=1),
    "condition-100-50x200": lambda: matrix_with_spectrum(np.geomspace(1.0, 0.01, 50), 50, 200,
                                                         seed=1),
}


@pytest.mark.parametrize("data", GRAM_INPUTS)
@pytest.mark.parametrize("attack", [attack_rank_one, attack_unconstrained])
def test_gram_routed_angle_reaches_the_dense_svd_floor(svd_calls, data, attack):
    # nine budgets from 1e-12 to 3 times the family's regime threshold
    x, k = GRAM_INPUTS[data](), 5
    sigma = full_svd(x).sigma
    gap = sigma[k - 1] - sigma[k]
    threshold = gap if attack is attack_rank_one else gap / np.sqrt(2.0)
    floor = np.finfo(float).eps * sigma[0] / gap
    for ratio in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.5, 3.0):
        svd_calls.clear()
        _, report = attack(x, k, ratio * threshold)
        assert svd_calls[:2] == [factor_call(x.shape, k + 1), re_pca_call(x.shape, k)], ratio
        assert abs(report.theta_achieved - report.theta_predicted) <= 16 * floor, ratio


# the 120x40 input above, and 120x40 spectra log-spaced down to 1e-4 and 1e-8
FULL_RANK_INPUTS = {
    "gaussian": lambda: synth_gaussian(120, 40, seed=7),
    "kappa-1e4": lambda: matrix_with_spectrum(np.logspace(0.0, -4.0, 40), 120, 40, seed=7),
    "kappa-1e8": lambda: matrix_with_spectrum(np.logspace(0.0, -8.0, 40), 120, 40, seed=7),
}


@pytest.mark.parametrize("data", FULL_RANK_INPUTS)
@pytest.mark.parametrize("ratio", [1e-5, 1e-8, 1e-12, 0.5])
def test_tiny_budget_angle_at_k_equal_n_reaches_the_dense_svd_floor(data, ratio):
    # at k = n < d the re-PCA reads the column space of X + delta through the
    # triangle of its QR, whose span, as a dense SVD's, is fixed only to
    # O(eps sigma_1 / sigma_n); the budget 0.5 sigma_n reads the cosines
    x = FULL_RANK_INPUTS[data]()
    k = x.shape[1]
    sigma = full_svd(x).sigma
    _, report = attack_rank_one(x, k, ratio * sigma[-1])
    assert report.regime == Regime.FULL_RANK_CASE2
    assert not report.ambiguous_subspace
    floor = np.finfo(float).eps * sigma[0] / sigma[-1]
    assert abs(report.theta_achieved - report.theta_predicted) <= 16 * floor


def test_budget_at_sigma_n_ties_the_perturbed_column_space():
    # the attack removes sigma_n, so X + delta has rank n - 1 and its top-n
    # subspace is not defined: the report says so, with a finite angle
    x = synth_gaussian(120, 40, seed=7)
    _, report = attack_rank_one(x, 40, full_svd(x).sigma[-1])
    assert report.regime == Regime.FULL_RANK_CASE2
    assert report.ambiguous_subspace
    assert 0.0 <= report.theta_achieved <= math.pi / 2
