"""Count the dense decompositions, SVDs and ``eigh``s, each entry point runs
on its input's shape.

* One attack (``attack_*``, ``pcattack attack``): 2, the factor and one
  independent re-PCA.  Once one side is long, ``max(d, n) >= RSVD_ASPECT *
  p`` with ``p = min(d, n)``, the factor (for k + 1 < p) and the re-PCA (for
  k < p) are each a decomposition of a p x p matrix instead: the ``eigh`` of
  the Gram of the input or its transpose when the input clears the Gram
  route's two conditions, as every such input here does, else the SVD of
  the triangle of a QR.  At k = n < d the re-PCA reads the triangle of an
  R-only QR of the input, and decomposes nothing when the shifted Cholesky
  of the triangle's Gram certifies that its truncation is not tied; else it
  runs a values-only SVD of the triangle, and a thin SVD of the input only
  when that truncation ties (``conftest.factor_call`` and ``re_pca_calls``
  state the rule, and ``factor_choleskys`` and ``re_pca_choleskys`` the
  Cholesky tests).  The achieved angle takes one k x k SVD, of its cosines,
  when its sine is at least 1/4, and none when it is smaller.
* ``pcattack verify``: 3, one values-only SVD for both closed forms, which
  build no report, and one factor per random oracle, each on its own.
* ``run_sweep`` / ``pcattack sweep``: one values-only SVD, read at k into one
  ``report.CoreSpectrum``, plus one per random-oracle cell.  Its closed-form
  cells solve to cores of four Python floats and are verified from them; a
  cell whose core ties adds one factor for the sweep and one re-PCA, as for
  an attack.
* ``attack_pcr`` / ``pcattack pcr``: one, of the centered training features.
  It refits from the 2x2 cores and builds no report, with one more SVD only
  for a ratio whose core ties.
"""

import numpy as np
import pytest
from conftest import factor_call, factor_choleskys, re_pca_calls, re_pca_choleskys

from pcattack import (InvalidDimension, Regime, SweepSpec, attack_pcr, attack_rank_one,
                      attack_unconstrained, leading_subspace, linalg, pca_distance, pcr, report,
                      run_sweep, synth_gaussian, synth_low_rank, synthetic_collinear,
                      write_matrix_csv)
from pcattack.cli import main
from pcattack.experiments import ATTACKS
from pcattack.linalg import GRAM_BLOCK, full_svd, leading_svd, spectrum_of
from pcattack.pcr import SPLIT_FRACTION
from pcattack.report import _core_split, core_spectrum


@pytest.mark.parametrize("attack, shape, k", [
    (attack_rank_one, (7, 5), 2),       # k below the rank
    (attack_rank_one, (7, 5), 5),       # full column rank
    (attack_rank_one, (4, 7), 2),
    (attack_unconstrained, (7, 5), 2),
    (attack_unconstrained, (4, 7), 3),
    (attack_rank_one, (20, 5), 2),      # d = 4n
    (attack_rank_one, (20, 5), 5),
    (attack_unconstrained, (20, 5), 2),
    (attack_rank_one, (9, 5), 2),       # d = 1.8n
    (attack_rank_one, (8, 5), 2),       # d = 1.6n
    (attack_unconstrained, (5, 8), 2),  # n = 1.6d
    (attack_rank_one, (5, 8), 4),       # k + 1 = d: a thin factor, a Gram re-PCA
    (attack_rank_one, (10, 15), 3),     # n = 1.5d
    (attack_unconstrained, (80, 40), 3),    # p wider than GRAM_BLOCK: the block, then the Gram
    (attack_rank_one, (40, 80), 3),
    (attack_rank_one, (80, 40), 40),
])
def test_attack_factors_once_and_verifies_once(svd_calls, cholesky_calls, attack, shape, k):
    _, report = attack(synth_gaussian(*shape, seed=3), k, 0.1)
    # the factor, the re-PCA (none at k = n < d, whose triangle the Cholesky
    # test certifies) and, for an angle whose sine is at least 1/4, the
    # values-only k x k SVD of the cosines; every input here clears the Gram
    # route's conditions wherever the R-SVD would run
    cosines = [((k, k), False)] if np.sin(report.theta_achieved) >= 0.25 else []
    assert svd_calls == [factor_call(shape, k + 1)] + re_pca_calls(shape, k) + cosines
    assert cholesky_calls == factor_choleskys(shape, k + 1) + re_pca_choleskys(shape, k)


@pytest.fixture
def qr_modes(monkeypatch):
    """The ``mode`` of each ``np.linalg.qr`` call, in call order."""
    modes = []
    original = np.linalg.qr

    def recording(a, mode="reduced"):
        modes.append(mode)
        return original(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return modes


def test_full_rank_re_pca_forms_no_q(qr_modes):
    # at k = n < d the angles are read through the triangle of X + delta's QR
    _, report = attack_rank_one(synth_gaussian(20, 5, seed=3), 5, 0.1)
    assert not report.ambiguous_subspace
    assert qr_modes == ["r"]


def test_full_rank_pca_distance_forms_no_q(qr_modes):
    # pca_distance reads y as an attack's re-PCA does: at k = n < d through
    # the triangle of an R-only QR, after a thin SVD of x
    x = synth_gaussian(20, 5, seed=3)
    _, ambiguous = pca_distance(x, x + 0.1 * synth_gaussian(20, 5, seed=4), 5)
    assert not ambiguous
    assert qr_modes == ["r"]


def test_tied_full_rank_re_pca_factors_y_once(svd_calls, cholesky_calls, qr_modes):
    # the budget sigma_n removes sigma_n, so X + delta's truncation at k = n
    # ties: the R-only QR's triangle fails the Cholesky test of its Gram, so
    # its values-only SVD runs, and Y's basis comes from one thin SVD of Y;
    # no other QR runs
    x = synth_gaussian(120, 40, seed=7)
    eta = full_svd(x).sigma[-1]
    svd_calls.clear()
    _, report = attack_rank_one(x, 40, eta)
    assert report.ambiguous_subspace
    cosines = [((40, 40), False)] if np.sin(report.theta_achieved) >= 0.25 else []
    assert svd_calls == [((120, 40), True), ((40, 40), False), ((120, 40), True)] + cosines
    assert cholesky_calls == [(40, 40)]
    assert qr_modes == ["r"]


def test_certified_full_rank_re_pca_decomposes_nothing(svd_calls, cholesky_calls, qr_modes):
    # at half of sigma_n the triangle of X + delta clears the Cholesky test
    # of its Gram: the re-PCA takes the R-only QR and that Cholesky, and no
    # SVD of the triangle or of Y
    x = synth_gaussian(120, 40, seed=7)
    eta = 0.5 * full_svd(x).sigma[-1]
    svd_calls.clear()
    _, report = attack_rank_one(x, 40, eta)
    assert not report.ambiguous_subspace
    cosines = [((40, 40), False)] if np.sin(report.theta_achieved) >= 0.25 else []
    assert svd_calls == [((120, 40), True)] + cosines
    assert cholesky_calls == [(40, 40)]
    assert qr_modes == ["r"]


def test_declined_rank_10_factor_tests_only_the_leading_block(svd_calls, cholesky_calls):
    # a rank-10 1000x250 input fails the Cholesky test of its leading block's
    # Gram, so the R-SVD runs without forming the 250 x 250 Gram, and the SVD
    # of its triangle skips the null rows past j = 11
    x = synth_low_rank(1000, 250, 10, seed=3)
    svd_calls.clear()
    leading_svd(x, 11)
    assert svd_calls == [factor_call((1000, 250), 11, gram=False, rank=10)] == [((11, 250), True)]
    assert cholesky_calls == [(GRAM_BLOCK, GRAM_BLOCK)]


@pytest.mark.parametrize("shape", [(120, 72), (72, 120)], ids=["tall", "wide"])
def test_attack_proves_each_matrix_finite_once(monkeypatch, shape):
    # the pass that proves X finite, then the factor's and the re-PCA's
    # unit passes; the Gram route tests its leading block and its whole Gram
    # in the unit that those passes chose, with no pass of its own
    shapes = []
    checked = linalg._checked
    monkeypatch.setattr(linalg, "_checked", lambda x: shapes.append(np.shape(x)) or checked(x))
    attack_rank_one(synth_gaussian(*shape, seed=3), 3, 0.1)
    assert shapes == [shape, shape, shape]


def test_full_rank_leading_subspace_is_one_thin_svd(svd_calls, qr_modes):
    basis = leading_subspace(synth_gaussian(40, 10, seed=2), 10)
    assert basis.columns.shape == (40, 10)
    assert svd_calls == [((40, 10), True)]
    assert qr_modes == []


def test_sweep_factors_once(svd_calls):
    spec = SweepSpec(d=12, n=8, k=3, data_kind="gaussian", seed=4,
                     eta_grid=(0.1, 0.4, 0.9, 1.3), strategies=("r1-opt", "wr-opt"))
    rows = run_sweep(spec)
    assert all(row.error is None for row in rows)
    # the one SVD of X is values-only: no cell's core ties, so none needs U or V
    assert [call for call in svd_calls if call[0] == (12, 8)] == [((12, 8), False)]


@pytest.fixture
def core_spectra(monkeypatch):
    """The k of each ``report.CoreSpectrum`` built, in build order."""
    built = []
    original = report.CoreSpectrum

    def counting(*fields):
        record = original(*fields)
        built.append(record.k)
        return record

    monkeypatch.setattr(report, "CoreSpectrum", counting)
    return built


def test_sweep_reads_its_spectrum_once(core_spectra):
    spec = SweepSpec(d=12, n=8, k=3, data_kind="gaussian", seed=4,
                     eta_grid=(0.1, 0.4, 0.9, 1.3), strategies=("r1-opt", "wr-opt"))
    rows = run_sweep(spec)
    assert all(row.error is None for row in rows)
    assert core_spectra == [3]


def test_tied_sweep_reads_the_factor_once_more(core_spectra, tmp_path):
    # wr-opt at the unconstrained threshold ties its core, so the sweep factors
    # X (once, for all such cells), whose ``attack_factor`` builds one more
    # spectrum; the cell lifts the core it solved on the sweep's spectrum
    path = tmp_path / "x.csv"
    write_matrix_csv(path, np.diag([3.0, 2.0, 1.0]))
    spec = SweepSpec(d=3, n=3, k=2, data_kind="from_file", data_path=str(path),
                     eta_grid=(0.3, 1.0 / np.sqrt(2.0), 0.9), strategies=("r1-opt", "wr-opt"))
    rows = run_sweep(spec)
    assert all(row.error is None for row in rows)
    assert core_spectra == [2, 2]


def test_cores_are_four_python_floats_in_every_regime():
    # what a sweep cell solves: each family's closed form on the record of a
    # values-only SVD, at k < rank, at k = rank < n and at k = n
    regimes = set()
    for x, k in [(synth_gaussian(9, 6, seed=1), 2), (synth_low_rank(9, 6, 2, seed=1), 2),
                 (synth_gaussian(9, 6, seed=1), 6)]:
        at = core_spectrum(spectrum_of(x), k)
        gap = (at.sigma_k - (at.sigma_k1 if at.case == "k<rank" else 0.0)) * at.unit
        for closed_form in (family.closed_form for family in ATTACKS.values()):
            for ratio in (0.0, 0.3, 2.0):
                try:
                    regime, _, core = closed_form(at, ratio * gap)
                except InvalidDimension:
                    continue
                regimes.add(regime)
                assert len(core) == 4 and all(type(v) is float for v in core), (regime, core)
    assert regimes == set(Regime)


def _train_shape(features):
    return features.shape[0], int(round(SPLIT_FRACTION * features.shape[1]))


@pytest.fixture
def lift_calls(monkeypatch):
    """The cores of the dense perturbations that ``attack_pcr`` builds."""
    calls = []
    original = pcr.lift

    def counting(left, right, core, unit):
        calls.append(core)
        return original(left, right, core, unit)

    monkeypatch.setattr(pcr, "lift", counting)
    return calls


@pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
def test_pcr_factors_once(svd_calls, lift_calls, strategy):
    features, targets = synthetic_collinear(seed=2)
    grid = (0.1, 0.3, 0.5, 0.8, 1.1)
    reports = attack_pcr(features, targets, 4, grid, strategy, split_seed=1)
    assert len(reports) == len(grid)
    assert svd_calls.count(factor_call(_train_shape(features), 5)) == 1
    # every core splits, so each refit is scored in the factor's coordinates
    assert lift_calls == []


@pytest.mark.parametrize("k", [0, 9])
def test_pcr_checks_k_before_factoring(svd_calls, k):
    features, targets = synthetic_collinear(seed=2, d=8)
    svd_calls.clear()
    with pytest.raises(InvalidDimension, match="min\\(d, n\\)"):
        attack_pcr(features, targets, k, (0.5,), split_seed=1)
    assert svd_calls == []


def test_pcr_tied_core_falls_back(svd_calls, lift_calls, monkeypatch):
    features, targets = synthetic_collinear(seed=2)
    tie = 1.0 / np.sqrt(2.0)        # the unconstrained threshold ratio
    grid = (0.3, tie, 0.9)
    # the same split attack_pcr makes, to confirm that this ratio ties the core
    n = features.shape[1]
    train = np.random.Generator(np.random.PCG64(1)).permutation(n)[:_train_shape(features)[1]]
    x_train = features[:, train]
    svd = full_svd(x_train - x_train.mean(axis=1)[:, None])
    closed_form = ATTACKS["unconstrained"].closed_form
    at = core_spectrum(svd, 4)
    _, _, core = closed_form(at, tie * at.ratio_scale)
    assert _core_split(at, core) is None
    svd_calls.clear()

    reports = attack_pcr(features, targets, 4, grid, "unconstrained", split_seed=1)
    # the factor of the leading 5 pairs and the refit's top 4 components
    train = _train_shape(features)
    assert svd_calls == [factor_call(train, 5), factor_call(train, 4)]
    assert len(lift_calls) == 1
    monkeypatch.setattr(pcr, "_core_split", lambda at, core: None)
    dense = attack_pcr(features, targets, 4, grid, "unconstrained", split_seed=1)
    assert reports[1] == dense[1]


def test_verify_factors_once_for_both_closed_forms(svd_calls, tmp_path):
    path = tmp_path / "x.csv"
    write_matrix_csv(path, synth_gaussian(6, 5, seed=3))
    assert main(["verify", str(path), "--k", "2", "--eta", "0.3",
                 "--trials", "200", "--seed", "1"]) == 0
    # one values-only SVD shared by both closed forms, which need no re-PCA,
    # and each of the two random oracles factors X on its own
    assert [uv for shape, uv in svd_calls if shape == (6, 5)] == [False, True, True]
