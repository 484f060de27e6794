"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import random_orthogonal, spearman
from oracles import (brute_force_principal_angles, equivalent_solutions, paired_entries,
                     stationarity_residual)

from pcattack import (SweepSpec, attack_pcr, attack_rank_one,
                      attack_unconstrained, closed_form_lambda, full_svd,
                      klt_rank_closed_form, lift_to_data_space,
                      pca_distance, recover_entries, run_sweep, synth_gaussian,
                      synth_low_rank, synthetic_collinear, theta_from_angles)
from pcattack.oracle import SearchConfig, grid_search_angles, random_unconstrained
from pcattack.pcr import DEFAULT_ETA_RATIOS


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"criterion {label}: PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_rank_one_low_rank_law():
    with criterion("1 (rank-one low-rank law)"):
        start = time.perf_counter()
        x = synth_low_rank(5, 5, 3, seed=11)
        sigma_k = float(full_svd(x).sigma[2])
        # 20 budgets inside (0, sigma_k]; the open interior avoids the tied
        # spectrum at eta = sigma_k exactly, where PCA truncation is undefined.
        for i in range(1, 21):
            frac = (2 * i - 1) / 40.0
            _, report = attack_rank_one(x, 3, frac * sigma_k)
            assert abs(report.theta_achieved - np.arcsin(frac)) < 1e-8
        for frac in (1.05, 1.4, 2.5):
            _, report = attack_rank_one(x, 3, frac * sigma_k)
            assert abs(report.theta_achieved - np.pi / 2) < 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_2_full_rank_law():
    with criterion("2 (full-rank law)"):
        start = time.perf_counter()
        x = synth_gaussian(6, 4, seed=23)
        sigma_n = float(full_svd(x).sigma[-1])
        for i in range(1, 21):
            frac = (2 * i - 1) / 40.0
            _, report = attack_rank_one(x, 4, frac * sigma_n)
            assert abs(report.theta_achieved - np.arcsin(frac)) < 1e-8
        for frac in (1.05, 1.4, 2.5):
            _, report = attack_rank_one(x, 4, frac * sigma_n)
            assert abs(report.theta_achieved - np.pi / 2) < 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_3_k_lt_rank_closed_form():
    with criterion("3 (k<rank closed form vs grid)"):
        start = time.perf_counter()
        cfg = SearchConfig(grid_resolution=400, refine_steps=3)
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            sk1 = float(rng.uniform(0.2, 1.2))
            sk = sk1 + float(rng.uniform(0.3, 1.5))
            eta = float(rng.uniform(0.1, 0.9)) * (sk - sk1)
            cf = klt_rank_closed_form(sk, sk1, eta)
            _, _, grid_theta = grid_search_angles(sk, sk1, eta, cfg)
            assert grid_theta <= cf.theta_star + 1e-5
            assert stationarity_residual(sk, sk1, eta, cf.alpha_star, cf.beta_star) < 1e-6
        assert time.perf_counter() - start < 60.0


def test_criterion_4_unconstrained_closed_form():
    with criterion("4 (unconstrained closed form vs 1e5 random)"):
        start = time.perf_counter()
        ci = closed_form_lambda(2.0, 1.0, 0.5)
        # lambda_max rounds to 1.05719; theta* = atan(lambda_max)/2 follows.
        assert abs(ci.lambda_max - 1.05719) < 1e-4
        assert ci.lambda_max == pytest.approx(1.0571882797418488, abs=1e-10)
        assert ci.theta_star == pytest.approx(0.40659512501895356, abs=1e-10)
        x = np.diag([3.0, 2.0, 1.0])
        _, best = random_unconstrained(x, 2, 0.5, SearchConfig(trials=100_000, seed=77))
        assert best <= ci.theta_star + 1e-3
        assert time.perf_counter() - start < 30.0


@pytest.fixture(scope="module")
def sweeps():
    start = time.perf_counter()
    low_rank = run_sweep(SweepSpec(d=5, n=5, k=3, data_kind="low_rank", seed=11,
                                   oracle_cfg=SearchConfig(trials=10_000, seed=5)))
    # stay below ratio 1.0, where the rank-one attack also saturates at pi/2
    general_grid = tuple(0.048 * i for i in range(1, 21))
    general = run_sweep(SweepSpec(d=5, n=5, k=3, data_kind="gaussian", seed=29,
                                  eta_grid=general_grid,
                                  oracle_cfg=SearchConfig(trials=10_000, seed=6)))
    return low_rank, general, time.perf_counter() - start


def _theta_table(rows):
    table = {}
    for row in rows:
        assert row.error is None, f"sweep cell failed: {row}"
        table[(row.eta_ratio, row.strategy)] = row.theta
    return table


def test_criterion_5_dominance_and_coincidence(sweeps):
    with criterion("5 (dominance and coincidence)"):
        low_rank, general, elapsed = sweeps
        t1 = _theta_table(low_rank)
        for q in sorted({r.eta_ratio for r in low_rank}):
            assert t1[(q, "wr-opt")] >= t1[(q, "r1-opt")] - 1e-8
            if q <= 1.0 / np.sqrt(2.0):
                assert abs(t1[(q, "wr-opt")] - t1[(q, "r1-opt")]) < 1e-8
            else:
                assert abs(t1[(q, "wr-opt")] - np.pi / 2) < 1e-8
        t2 = _theta_table(general)
        for q in sorted({r.eta_ratio for r in general}):
            assert t2[(q, "wr-opt")] - t2[(q, "r1-opt")] > 0.0
        assert elapsed < 120.0


def test_criterion_6_random_baseline_envelopes(sweeps):
    with criterion("6 (random-baseline envelopes)"):
        low_rank, general, _ = sweeps
        for rows in (low_rank, general):
            table = _theta_table(rows)
            for q in sorted({r.eta_ratio for r in rows}):
                assert table[(q, "r1-opt")] >= table[(q, "r1-rnd")] - 1e-6
                assert table[(q, "wr-opt")] >= table[(q, "wr-rnd")] - 1e-6


def test_criterion_7_pcr_degradation():
    with criterion("7 (PCR degradation)"):
        start = time.perf_counter()
        grid = list(DEFAULT_ETA_RATIOS)
        below = max(q for q in grid if q < 1.0 / np.sqrt(2.0))
        above = min(q for q in grid if q > 1.0 / np.sqrt(2.0))
        for seed in range(5):
            features, targets = synthetic_collinear(seed=seed)
            r2 = {}
            for strategy in ("rank_one", "unconstrained"):
                reports = attack_pcr(features, targets, 4, grid, strategy,
                                     split_seed=seed + 1000)
                r2[strategy] = {r.eta_ratio: r.r2_test for r in reports}
                series = [r2[strategy][q] for q in grid]
                assert spearman(grid, series) <= -0.9
            drop = r2["unconstrained"][below] - r2["unconstrained"][above]
            assert drop >= 0.1
        assert time.perf_counter() - start < 60.0


def test_criterion_8_property_suites():
    with criterion("8 (property suites)"):
        # unitary invariance
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((4, 5))
            y = rng.standard_normal((4, 5))
            p = random_orthogonal(rng, 4)
            t = random_orthogonal(rng, 5)
            ref, _ = pca_distance(x, y, 2)
            rot, _ = pca_distance(p @ x @ t.T, p @ y @ t.T, 2)
            assert abs(ref - rot) < 1e-8

        # budget saturation in the small-budget regimes
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            x = rng.standard_normal((5, 6))
            sigma = full_svd(x).sigma
            k = int(rng.integers(1, 4))
            gap = sigma[k - 1] - sigma[k]
            eta_r1 = float(rng.uniform(0.1, 0.9)) * gap
            attack, _ = attack_rank_one(x, k, eta_r1)
            assert abs(attack.budget_used - eta_r1) < 1e-10 * (1.0 + eta_r1)
            eta_wr = float(rng.uniform(0.1, 0.9)) * gap / np.sqrt(2.0)
            pm, _ = attack_unconstrained(x, k, eta_wr)
            assert abs(pm.budget_used - eta_wr) < 1e-8 * (1.0 + eta_wr)

        # four-solution equivalence of the two-angle optimum
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            sk1 = float(rng.uniform(0.2, 1.5))
            sk = sk1 + float(rng.uniform(0.3, 1.5))
            eta = float(rng.uniform(0.1, 0.9)) * (sk - sk1)
            cf = klt_rank_closed_form(sk, sk1, eta)
            thetas = [theta_from_angles(sk, sk1, eta, a, b)
                      for a, b in equivalent_solutions(cf.alpha_star, cf.beta_star)]
            assert max(thetas) - min(thetas) < 1e-10

        # paired-solution equivalence of the unconstrained optimum
        for seed in range(100):
            rng = np.random.default_rng(4000 + seed)
            sk1 = float(rng.uniform(0.2, 1.5))
            sk = sk1 + float(rng.uniform(0.3, 1.5))
            eta = float(rng.uniform(0.1, 0.9)) * (sk - sk1) / np.sqrt(2.0)
            x = np.diag([sk + 1.0, sk, sk1, 0.25 * sk1])
            svd = full_svd(x)
            ci = closed_form_lambda(sk, sk1, eta)
            entries = recover_entries(ci, sk, sk1)
            t1, _ = pca_distance(x, x + lift_to_data_space(entries, svd, 2).delta, 2)
            t2, _ = pca_distance(
                x, x + lift_to_data_space(paired_entries(entries), svd, 2).delta, 2)
            assert abs(t1 - t2) < 1e-10

        # principal-angle oracle equivalence
        cfg = SearchConfig(trials=1, seed=0, grid_resolution=200, refine_steps=4)
        from pcattack import principal_angles
        for seed in range(100):
            rng = np.random.default_rng(5000 + seed)
            k = int(rng.integers(1, 4))
            d = int(rng.integers(max(3, k + 1), 7))
            qa, _ = np.linalg.qr(rng.standard_normal((d, k)))
            qb, _ = np.linalg.qr(rng.standard_normal((d, k)))
            ref = principal_angles(qa, qb)
            got = brute_force_principal_angles(qa, qb, cfg)
            assert np.max(np.abs(got - ref)) < 1e-6
