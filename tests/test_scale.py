"""The closed forms are homogeneous in (X, eta): scaling both by any c in
[1e-150, 1e150] changes neither the regime nor the angle, and the budget
used scales by c.  At 1e155 and 1e-160 the squared Frobenius norm of the
core leaves the range of normal floats, which ``budget_used`` must not
notice.  Near the float64 maximum every factor runs in a power-of-two unit,
so an attack whose sigma_1 is finite holds its angle there too.  A PCR fit
and its attacked refits keep their r2 at any feature scale in [1e-150,
1e150]."""

import json
import sys

import numpy as np
import pytest

from conftest import factor_call, re_pca_call

from pcattack import (SweepSpec, attack_pcr, attack_rank_one, attack_unconstrained, fit_pcr,
                      full_svd, read_matrix_csv, run_sweep, synth_gaussian, synthetic_collinear)
from pcattack.cli import main
from pcattack.fileio import write_matrix_csv

EPS = np.finfo(float).eps
SCALES = (1e-150, 1e-100, 1.0, 1e100, 1e150)
NORM_SCALES = (1e-160, 1e155)
# (attack, shape, k): 6x5 factors and re-PCAs by a thin SVD, 20x6 and 6x20
# (one side long) by the R-SVD at k < min(d, n), and 20x6 by a QR at k = n
CASES = [(attack, shape, 2) for attack in (attack_rank_one, attack_unconstrained)
         for shape in ((6, 5), (20, 6), (6, 20))] + [(attack_rank_one, (20, 6), 6)]
RATIOS = (0.3, 0.9, 1.5)    # of sigma_k - sigma_{k+1}, or of sigma_n at k = n


def _budget_unit(x, k):
    sigma = np.append(full_svd(x).sigma, 0.0)
    return sigma[k - 1] - sigma[k]


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("attack, shape, k", CASES,
                         ids=[f"{a.__name__}-{s[0]}x{s[1]}-k{k}" for a, s, k in CASES])
def test_attack_scale_invariant(attack, shape, k, ratio):
    x = synth_gaussian(*shape, seed=3)
    eta = ratio * _budget_unit(x, k)
    _, ref = attack(x, k, eta)
    for c in SCALES:
        _, report = attack(c * x, k, c * eta)
        assert report.regime == ref.regime, c
        assert report.theta_predicted == pytest.approx(ref.theta_predicted, rel=1e-12), c
        assert abs(report.theta_achieved - ref.theta_achieved) < 1e-8, c
        assert abs(report.theta_achieved - report.theta_predicted) < 1e-8, c
        assert report.budget_used == pytest.approx(c * ref.budget_used, rel=1e-12), c
        assert report.ambiguous_subspace == ref.ambiguous_subspace, c


@pytest.mark.parametrize("attack", [attack_rank_one, attack_unconstrained])
@pytest.mark.parametrize("shape", [(20, 6), (6, 20)])
def test_r_svd_cases_take_the_gram_route_at_every_scale(svd_calls, attack, shape):
    # so that the scale invariance above covers the Gram route: the factor
    # and the re-PCA of the 20x6 and 6x20 cases at k = 2 take it at every
    # scale and budget there
    x = synth_gaussian(*shape, seed=3)
    for ratio in RATIOS:
        eta = ratio * _budget_unit(x, 2)
        for c in SCALES:
            svd_calls.clear()
            attack(c * x, 2, c * eta)
            assert svd_calls[:2] == [factor_call(shape, 3), re_pca_call(shape, 2)], (ratio, c)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
def test_cli_attack_at_1e150(tmp_path, capsys, strategy):
    x = synth_gaussian(6, 5, seed=3)
    eta = float(0.3 * _budget_unit(x, 2))
    attack = attack_rank_one if strategy == "rank_one" else attack_unconstrained
    _, ref = attack(x, 2, eta)
    path = tmp_path / "x.csv"
    write_matrix_csv(path, 1e150 * x)
    assert main(["attack", str(path), "--k", "2", "--eta", repr(1e150 * eta),
                 "--strategy", strategy]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["regime"] == ref.regime.value
    assert payload["theta_predicted"] == pytest.approx(ref.theta_predicted, rel=1e-12)
    assert payload["theta_achieved"] == pytest.approx(ref.theta_achieved, abs=1e-8)


@pytest.mark.parametrize("c", NORM_SCALES)
@pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
def test_cli_attack_budget_past_the_squared_range(tmp_path, capsys, strategy, c):
    x = synth_gaussian(6, 5, seed=3)
    eta = float(0.3 * _budget_unit(x, 2))
    attack = attack_rank_one if strategy == "rank_one" else attack_unconstrained
    _, ref = attack(x, 2, eta)
    path = tmp_path / "x.csv"
    write_matrix_csv(path, c * x)
    assert main(["attack", str(path), "--k", "2", "--eta", repr(c * eta),
                 "--strategy", strategy]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["delta_fro_norm"] / c == pytest.approx(ref.budget_used, rel=1e-12)


# (shape, k): 6x5 at k < rank; 20x6 at k = n, where every wr-opt cell is an
# error row (no room at k + 1) and r1-opt runs the full-rank regimes
SWEEP_CASES = (((6, 5), 2), ((20, 6), 6))


@pytest.mark.parametrize("shape, k", SWEEP_CASES,
                         ids=[f"{s[0]}x{s[1]}-k{k}" for s, k in SWEEP_CASES])
def test_sweep_scale_invariant(tmp_path, shape, k):
    path = tmp_path / "x.csv"
    write_matrix_csv(path, synth_gaussian(*shape, seed=3))
    # entries of at most 12 digits, so c * x is written as x with its exponent shifted
    x = read_matrix_csv(path)

    def sweep(c):
        write_matrix_csv(path, c * x)
        return run_sweep(SweepSpec(d=shape[0], n=shape[1], k=k, data_kind="from_file",
                                   data_path=str(path), eta_grid=RATIOS,
                                   strategies=("r1-opt", "wr-opt")))

    ref = sweep(1.0)
    assert any(row.error is None for row in ref)
    for c in SCALES + NORM_SCALES:
        for row, base in zip(sweep(c), ref, strict=True):
            assert (row.eta_ratio, row.strategy, row.error) == (
                base.eta_ratio, base.strategy, base.error), c
            if base.error is None:
                assert row.theta == pytest.approx(base.theta, rel=1e-12, abs=0.0), c
                assert row.theta_predicted == pytest.approx(
                    base.theta_predicted, rel=1e-12, abs=0.0), c
                assert row.budget_used / c == pytest.approx(
                    base.budget_used, rel=1e-12, abs=0.0), c


def _huge():
    """sigma_1 = 1e308 >= 2^1023: a unit rounded up to a power of two overflows."""
    x = np.zeros((4, 3))
    x[:3, :3] = np.diag([1e308, 1e307, 1e306])
    return x


@pytest.mark.parametrize("strategy, k", [("rank_one", 1), ("unconstrained", 1), ("rank_one", 3)])
def test_cli_attack_with_sigma_1_past_2_to_the_1023(tmp_path, capsys, strategy, k):
    x = _huge()
    c = 2.0**-1000      # exact: the same attack at a tame scale
    eta = float(0.3 * _budget_unit(x, k))
    attack = attack_rank_one if strategy == "rank_one" else attack_unconstrained
    _, ref = attack(c * x, k, c * eta)
    path = tmp_path / "x.csv"
    write_matrix_csv(path, x)
    assert main(["attack", str(path), "--k", str(k), "--eta", repr(eta),
                 "--strategy", strategy]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["regime"] == ref.regime.value
    assert payload["theta_predicted"] == pytest.approx(ref.theta_predicted, rel=1e-12)
    assert payload["theta_achieved"] == pytest.approx(ref.theta_achieved, abs=1e-8)
    assert payload["delta_fro_norm"] * c == pytest.approx(ref.budget_used, rel=1e-12)


def test_cli_verify_and_sweep_with_sigma_1_past_2_to_the_1023(tmp_path, capsys):
    path, spec = tmp_path / "x.csv", tmp_path / "s.txt"
    write_matrix_csv(path, _huge())
    eta = float(0.3 * _budget_unit(_huge(), 1))
    assert main(["verify", str(path), "--k", "1", "--eta", repr(eta), "--trials", "200"]) == 0
    assert capsys.readouterr().out.count(" ok\n") == 3
    spec.write_text(f"d=4\nn=3\nk=1\ndata_kind=from_file\ndata_path={path}\n"
                    "eta_grid=0.3,0.9,1.5\nstrategies=r1-opt,wr-opt\n")
    assert main(["sweep", str(spec), "--out", str(tmp_path / "o.csv")]) == 0
    assert "error" not in (tmp_path / "o.csv").read_text()


# (attack, shape, k): tall, wide and near-square inputs at k < n, and the tall
# and near-square ones at k = n
TOP_CASES = [(attack, shape, 3) for attack in (attack_rank_one, attack_unconstrained)
             for shape in ((40, 10), (10, 40), (12, 10))]
TOP_CASES += [(attack_rank_one, shape, 10) for shape in ((40, 10), (12, 10))]


def _gap(sigma, k):
    return sigma[k - 1] - (sigma[k] if k < sigma.size else 0.0)


@pytest.mark.parametrize("fraction", [0.9, 0.99])
@pytest.mark.parametrize("attack, shape, k", TOP_CASES,
                         ids=[f"{a.__name__}-{s[0]}x{s[1]}-k{k}" for a, s, k in TOP_CASES])
def test_attack_near_the_float64_maximum(attack, shape, k, fraction):
    x = synth_gaussian(*shape, seed=3)
    x *= fraction * sys.float_info.max / full_svd(x).sigma[0]
    sigma = full_svd(x).sigma
    assert sigma[0] == pytest.approx(fraction * sys.float_info.max, rel=1e-14)
    eta = 0.3 * _gap(sigma, k)
    c = 2.0**-1024      # exact: the same attack at a tame scale
    _, ref = attack(c * x, k, c * eta)
    _, report = attack(x, k, eta)
    assert report.regime == ref.regime
    assert report.theta_predicted == pytest.approx(ref.theta_predicted, rel=1e-12)
    assert abs(report.theta_achieved - report.theta_predicted) <= 16 * EPS * sigma[0] / _gap(
        sigma, k)
    assert not report.ambiguous_subspace
    assert report.budget_used * c == pytest.approx(ref.budget_used, rel=1e-12)


@pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
def test_cli_attack_wide_at_sigma_1_of_1_7e308(tmp_path, capsys, strategy):
    # a wide input whose R-SVD, run on X as given, overflowed in a QR
    path = tmp_path / "x.csv"
    x = synth_gaussian(10, 40, seed=3)
    write_matrix_csv(path, x * (1.7e308 / full_svd(x).sigma[0]))
    sigma = full_svd(read_matrix_csv(path)).sigma
    eta = float(0.3 * _gap(sigma, 3))
    assert main(["attack", str(path), "--k", "3", "--eta", repr(eta),
                 "--strategy", strategy]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert abs(payload["theta_achieved"] - payload["theta_predicted"]) <= (
        16 * EPS * sigma[0] / _gap(sigma, 3))


PCR_SCALES = (1e-150, 1e-20, 1e20, 1e150)


def _pcr_r2(features, targets):
    """``fit_pcr``'s training r2, then each ratio's (r2_train, r2_test) from
    ``attack_pcr`` with either strategy, at k = 4."""
    r2 = [fit_pcr(features, targets, 4).r2_train]
    for strategy in ("rank_one", "unconstrained"):
        r2 += [v for rep in attack_pcr(features, targets, 4, strategy=strategy)
               for v in (rep.r2_train, rep.r2_test)]
    return np.array(r2)


@pytest.mark.parametrize("c", PCR_SCALES)
def test_pcr_scale_invariant(c):
    # the regression centers its scores, so no column of ones is lost beside
    # scores far from unit scale
    features, targets = synthetic_collinear(seed=0)
    ref = _pcr_r2(features, targets)
    assert np.max(np.abs(_pcr_r2(c * features, targets) - ref)) <= 1e-12


@pytest.mark.parametrize("c", PCR_SCALES)
@pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
def test_cli_pcr_scale_invariant(tmp_path, strategy, c):
    features, targets = synthetic_collinear(seed=0)

    def r2_rows(scale):
        data, out = tmp_path / f"f{scale!r}.csv", tmp_path / f"o{scale!r}.csv"
        data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in np.column_stack([scale * features.T, targets])))
        assert main(["pcr", str(data), "--k", "4", "--strategy", strategy,
                     "--out", str(out)]) == 0
        return np.loadtxt(out, delimiter=",", skiprows=1, usecols=(2, 3))

    assert np.max(np.abs(r2_rows(c) - r2_rows(1.0))) <= 1e-12


@pytest.mark.parametrize("eta", [3.7e-294, 1e-290])
@pytest.mark.parametrize("attack", [attack_rank_one, attack_unconstrained])
def test_budget_subnormal_in_the_unit_is_not_overspent(attack, eta):
    # eta is normal but below 2.2e-308 in the solvers' unit (2^100): a core
    # solved from its few bits spent 1.7x and 3.4x of 3.7e-294, and 1 + 2e-4
    # of 1e-290.  Such a budget gets the zero attack.
    x = np.diag([2.0**100, 2.0**99, 2.0**98])
    _, report = attack(x, 1, eta)
    assert report.budget_used <= eta
    assert report.theta_predicted == report.theta_achieved == 0.0
