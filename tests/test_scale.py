"""The closed forms are homogeneous in (X, eta): scaling both by any c in
[1e-150, 1e150] changes neither the regime nor the angle, and the budget
used scales by c.  At 1e155 and 1e-160 the squared Frobenius norm of the
core leaves the range of normal floats, which ``budget_used`` must not
notice.  Near the float64 maximum every factor runs in a power-of-two unit,
so an attack whose sigma_1 is finite holds its angle there too.  A PCR fit
and its attacked refits keep their r2 at any feature scale in [1e-150,
1e150].  At a power-of-two scale from 2^-900 to 2^1000 no output changes
in any bit: the factors of every route, the attacks in every regime,
``verify``'s records, PCR's fits and a sweep's rows."""

import dataclasses
import functools
import json
import math
import sys

import numpy as np
import pytest

from conftest import bits, factor_call, matrix_with_spectrum, outcome, re_pca_call

from pcattack import (SearchConfig, SweepSpec, attack_pcr, attack_rank_one, attack_unconstrained,
                      fit_pcr, full_svd, pca_distance, read_matrix_csv, run_sweep,
                      synth_gaussian, synth_low_rank, synthetic_collinear)
from pcattack.cli import main
from pcattack.fileio import write_matrix_csv
from pcattack.linalg import leading_svd, spectrum_of
from pcattack.oracle import verify
from pcattack.report import Regime, core_spectrum

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


# Every output at every power of two: 2^m X and 2^m eta give the bits of X
# and eta, with each output that carries the data's scale times 2^m.  The
# inputs, budgets and outputs stay normal floats at every m here.
POWERS = (-900, -600, -500, -460, -300, 0, 300, 460, 490, 505, 600, 900, 1000)

# name: (x, js): an input and the leading_svd widths asked of it, so that
# each route runs at j < p and the thin SVD at j = p
FACTOR_INPUTS = {
    "thin-12x10": (synth_gaussian(12, 10, seed=5), (3, 10)),
    "gram-40x10": (synth_gaussian(40, 10, seed=5), (3, 10)),
    "gram-10x40": (synth_gaussian(10, 40, seed=5), (3, 10)),
    "gram-block-120x72": (synth_gaussian(120, 72, seed=5), (3,)),
    "r-svd-40x10": (matrix_with_spectrum(np.geomspace(1.0, 1.0 / 2000.0, 10), 40, 10, seed=5),
                    (4,)),
    "cut-40x10": (synth_low_rank(40, 10, 4, seed=5), (5, 10)),
    "cut-block-72x120": (synth_low_rank(72, 120, 8, seed=5), (9,)),
}
# (x, k, ratios): ratios of CoreSpectrum.ratio_scale that give both regimes
# of each family: k < rank (the Gram route, thin SVD and cut R-SVD
# factors), k = n (full rank, the QR re-PCA) and k = rank < p (low rank)
ATTACK_INPUTS = {
    "gram-40x10-k3": (synth_gaussian(40, 10, seed=3), 3),
    "gram-10x40-k3": (synth_gaussian(10, 40, seed=3), 3),
    "thin-12x10-k3": (synth_gaussian(12, 10, seed=3), 3),
    "gram-block-120x72-k3": (synth_gaussian(120, 72, seed=3), 3),
    "cut-block-120x72-k3": (synth_low_rank(120, 72, 8, seed=3), 3),
    "full-rank-40x10-k10": (synth_gaussian(40, 10, seed=3), 10),
    "low-rank-40x10-k4": (synth_low_rank(40, 10, 4, seed=3), 4),
}
ATTACK_RATIOS = (0.3, 1.5)
# the fields of an attack's JSON in the data's scale; the rank-one "b" is a
# unit vector
SCALED_FIELDS = ("eta", "sigma", "delta_fro_norm", "a", "entries")


def _unscaled(value, m):
    """``value`` with the data's scale 2^m taken out, exactly."""
    if isinstance(value, list):
        return [math.ldexp(v, -m) for v in value]
    return np.ldexp(value, -m) if isinstance(value, np.ndarray) else math.ldexp(value, -m)


def _unscaled_sigma(spectrum, m):
    """A ``Spectrum`` or ``SvdTriple`` with its singular values unscaled."""
    return dataclasses.replace(spectrum, sigma=_unscaled(spectrum.sigma, m))


def _factor_outcomes(m):
    outcomes = []
    for x, js in FACTOR_INPUTS.values():
        x = np.ldexp(x, m)
        outcomes.append(outcome(lambda: _unscaled_sigma(spectrum_of(x), m)))
        outcomes += [outcome(lambda: _unscaled_sigma(leading_svd(x, j), m)) for j in js]
    # the k = n re-PCA of a tall y: its triangle certified untied, and tied
    x = synth_gaussian(40, 10, seed=5)
    svd = full_svd(x)
    tied = x - svd.sigma[-1] * np.outer(svd.u[:, -1], svd.v[:, -1])
    for y in (x + 1e-6 * svd.sigma[-1] * synth_gaussian(40, 10, seed=6), tied):
        outcomes.append(outcome(lambda: pca_distance(np.ldexp(x, m), np.ldexp(y, m), 10)))
    return outcomes


def _attack_outcomes(m):
    outcomes = []
    for x, k in ATTACK_INPUTS.values():
        scale = core_spectrum(spectrum_of(x), k).ratio_scale
        for ratio in ATTACK_RATIOS:
            for attack in (attack_rank_one, attack_unconstrained):
                def run():
                    result, report = attack(np.ldexp(x, m), k, math.ldexp(ratio * scale, m))
                    payload = report.to_json_dict()
                    for fields in (payload, payload["solution"]):
                        for key in SCALED_FIELDS:
                            if key in fields:
                                fields[key] = _unscaled(fields[key], m)
                    return (report.regime.value, json.dumps(payload, allow_nan=False),
                            _unscaled(result.delta, m))
                outcomes.append(outcome(run))
    return outcomes


def _verify_outcomes(m):
    cfg = SearchConfig(trials=200, seed=7)
    outcomes = []
    for x, k in ((synth_low_rank(12, 9, 3, seed=1), 2), (synth_gaussian(6, 5, seed=3), 2)):
        scale = core_spectrum(spectrum_of(x), k).ratio_scale
        for ratio in ATTACK_RATIOS:
            outcomes.append(outcome(lambda: verify(np.ldexp(x, m), k,
                                                   math.ldexp(ratio * scale, m), cfg)))
    return outcomes


def _pcr_outcomes(m):
    # features times 2^m and targets times 2^(m // 2): the two scale apart,
    # and the coefficients, about 2^(-m / 2), stay normal
    outcomes = []
    for features, targets in (synthetic_collinear(seed=0), synthetic_collinear(3, 40, 60, 4)):
        features, targets = np.ldexp(features, m), np.ldexp(targets, m // 2)
        outcomes.append(outcome(lambda: fit_pcr(features, targets, 4).r2_train))
        for strategy in ("rank_one", "unconstrained"):
            outcomes.append(outcome(lambda: attack_pcr(features, targets, 4, strategy=strategy)))
    return outcomes


def _sweep_outcomes(m, path):
    # written at full precision, so the file holds 2^m x exactly
    for x, k in (((synth_gaussian(6, 5, seed=3)), 2), (synth_low_rank(20, 6, 3, seed=3), 3)):
        path.write_text("".join(",".join(repr(v) for v in row) + "\n"
                                for row in np.ldexp(x, m).tolist()))
        rows = run_sweep(SweepSpec(d=x.shape[0], n=x.shape[1], k=k, data_kind="from_file",
                                   data_path=str(path), eta_grid=(0.3, 0.9, 1.5, 3.0),
                                   strategies=("r1-opt", "wr-opt")))
        yield [bits(row._replace(budget_used=None if row.budget_used is None
                                 else _unscaled(row.budget_used, m))) for row in rows]


@functools.cache
def _at_unit_scale(kind):
    return OUTCOMES[kind](0)


OUTCOMES = {"factors": _factor_outcomes, "attacks": _attack_outcomes,
            "verify": _verify_outcomes, "pcr": _pcr_outcomes}


@pytest.mark.parametrize("m", POWERS)
@pytest.mark.parametrize("kind", OUTCOMES)
def test_every_output_bit_exact_at_every_power_of_two_scale(kind, m):
    got, ref = OUTCOMES[kind](m), _at_unit_scale(kind)
    assert len(got) == len(ref)
    for i, (a, b) in enumerate(zip(got, ref)):
        assert a == b, (kind, m, i)


@pytest.mark.parametrize("m", POWERS)
def test_sweep_bit_exact_at_every_power_of_two_scale(tmp_path, m):
    path = tmp_path / "x.csv"
    assert list(_sweep_outcomes(m, path)) == list(_sweep_outcomes(0, path))


def test_attack_corpus_reaches_every_regime():
    # each outcome starts with the bits of its regime's name (or of the
    # error's type: unconstrained has no attack at k = n)
    regimes = {got[0] for got in _at_unit_scale("attacks")}
    assert {bits(regime.value) for regime in Regime} <= regimes
