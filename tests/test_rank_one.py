import math

import numpy as np
import pytest
from conftest import matrix_with_spectrum
from oracles import equivalent_solutions, stationarity_residual

from pcattack import (InvalidDimension, NoOrthogonalComplement, Regime,
                      RegimeError, attack_rank_one, attack_unconstrained,
                      full_svd, klt_rank_closed_form, pca_distance, synth_gaussian,
                      theta_from_angles)
from pcattack.oracle import SearchConfig, random_rank_one
from pcattack.rank_one import solve_rank_one

# sigma_k = 2, sigma_{k+1} = 1, eta = 0.5 reference solution, frozen from the
# closed form and confirmed by grid search, finite differences, and an
# end-to-end PCA recomputation.
REF_H = 6.5625
REF_COS2_ALPHA = 0.1147103847516834
REF_COS2_BETA = 0.9686229485816499
REF_ALPHA = 1.2252728993859026
REF_BETA = 2.9635173054004884
REF_THETA = 0.34552342740899394

# theta* at sigma_k = 2, sigma_{k+1} = 1 for vanishing budgets, evaluated in
# 50-digit arithmetic.
REF_TINY_THETA = {
    1e-2: 0.0066667530901854085,
    1e-4: 6.666666675308642e-05,
    1e-8: 6.6666666666666667e-09,
    1e-12: 6.6666666666666667e-13,
}


def full_rank_fixture():
    # 3x2 with singular values (3, 2)
    return matrix_with_spectrum([3.0, 2.0], 3, 2, seed=0)


class TestDispatch:
    def test_full_rank_regime(self):
        x = matrix_with_spectrum([4.0, 3.0, 2.0, 1.0], 4, 4, seed=1)
        _, report = attack_rank_one(x, 4, 0.0)
        assert report.regime == Regime.FULL_RANK_CASE2
        x_tall = matrix_with_spectrum([4.0, 3.0, 2.0, 1.0], 6, 4, seed=1)
        _, report = attack_rank_one(x_tall, 4, 0.5)
        assert report.regime == Regime.FULL_RANK_CASE2

    def test_low_rank_regime(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
        _, report = attack_rank_one(x, 3, 0.5)
        assert report.regime in (Regime.LOW_RANK_CASE1, Regime.LOW_RANK_CASE2)

    def test_k_lt_rank_regime(self):
        x = np.random.default_rng(3).standard_normal((5, 5))
        _, report = attack_rank_one(x, 3, 0.1)
        assert report.regime in (Regime.K_LT_RANK_CASE1, Regime.K_LT_RANK_CASE2)

    def test_integer_k_required(self):
        x = np.diag([3.0, 2.0, 1.0])
        for attack in (attack_rank_one, attack_unconstrained):
            for bad_k in (2.5, "2", None):
                with pytest.raises(InvalidDimension):
                    attack(x, bad_k, 0.1)
            _, report = attack(x, np.int64(2), 0.1)
            assert report.k == 2

    def test_no_regime(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        with pytest.raises(RegimeError):
            attack_rank_one(x, 3, 0.5)  # k above the rank
        x_wide = np.random.default_rng(5).standard_normal((3, 6))
        with pytest.raises(RegimeError):
            attack_rank_one(x_wide, 3, 0.5)  # k = rank = d < n


class TestFullRank:
    def test_small_budget_law(self):
        x = full_rank_fixture()
        attack, report = attack_rank_one(x, 2, 1.0)
        assert report.regime == Regime.FULL_RANK_CASE2
        theta, _ = pca_distance(x, x + attack.delta, 2)
        assert theta == pytest.approx(np.arcsin(0.5), abs=1e-10)
        assert theta == pytest.approx(np.pi / 6, abs=1e-10)

    def test_zero_budget(self):
        x = full_rank_fixture()
        attack, _ = attack_rank_one(x, 2, 0.0)
        assert np.all(attack.delta == 0.0)
        theta, _ = pca_distance(x, x + attack.delta, 2)
        assert theta == pytest.approx(0.0, abs=1e-7)

    def test_large_budget_max_distance(self):
        x = full_rank_fixture()
        attack, report = attack_rank_one(x, 2, 2.5)
        assert report.regime == Regime.FULL_RANK_CASE1
        theta, _ = pca_distance(x, x + attack.delta, 2)
        assert theta == pytest.approx(np.pi / 2, abs=1e-8)

    def test_square_matrix_rejected(self):
        x = matrix_with_spectrum([3.0, 2.0], 2, 2, seed=2)
        with pytest.raises(NoOrthogonalComplement):
            attack_rank_one(x, 2, 1.0)

    def test_rank_deficient_rejected(self):
        x = np.zeros((4, 2))
        x[0, 0] = 1.0
        with pytest.raises(RegimeError):
            attack_rank_one(x, 2, 0.5)


class TestLowRank:
    def fixture(self):
        return np.diag([3.0, 2.0, 0.0])

    def test_small_budget_law(self):
        attack, report = attack_rank_one(self.fixture(), 2, 1.0)
        assert report.regime == Regime.LOW_RANK_CASE2
        theta, _ = pca_distance(self.fixture(), self.fixture() + attack.delta, 2)
        assert theta == pytest.approx(np.arcsin(0.5), abs=1e-10)

    def test_large_budget_max_distance(self):
        attack, report = attack_rank_one(self.fixture(), 2, 2.5)
        assert report.regime == Regime.LOW_RANK_CASE1
        theta, _ = pca_distance(self.fixture(), self.fixture() + attack.delta, 2)
        assert theta == pytest.approx(np.pi / 2, abs=1e-8)

    def test_zero_budget(self):
        attack, _ = attack_rank_one(self.fixture(), 2, 0.0)
        assert np.all(attack.delta == 0.0)

    def test_budget_at_sigma_k_removes_it(self):
        # eta = sigma_k is Case2's last budget, as at full rank: the attack
        # removes sigma_k, which leaves X + delta's top-k subspace tied
        attack, report = attack_rank_one(self.fixture(), 2, 2.0)
        assert report.regime == Regime.LOW_RANK_CASE2
        assert report.theta_predicted == np.pi / 2
        assert report.ambiguous_subspace
        assert np.allclose(self.fixture() + attack.delta, np.diag([3.0, 0.0, 0.0]), atol=1e-15)

    def test_random_search_never_beats(self):
        cfg = SearchConfig(trials=10_000, seed=9)
        _, best = random_rank_one(self.fixture(), 2, 1.0, cfg)
        assert best <= np.arcsin(0.5) + 1e-6


class TestKLtRank:
    def fixture(self):
        return np.diag([3.0, 2.0, 1.0])

    def test_reference_closed_form(self):
        cf = klt_rank_closed_form(2.0, 1.0, 0.5)
        assert cf.H == pytest.approx(REF_H, abs=1e-12)
        assert np.cos(cf.alpha_star) ** 2 == pytest.approx(REF_COS2_ALPHA, abs=1e-10)
        assert np.cos(cf.beta_star) ** 2 == pytest.approx(REF_COS2_BETA, abs=1e-10)
        assert cf.alpha_star == pytest.approx(REF_ALPHA, abs=1e-12)
        assert cf.beta_star == pytest.approx(REF_BETA, abs=1e-12)
        assert 0.0 <= cf.alpha_star <= np.pi / 2
        assert np.pi / 2 <= cf.beta_star <= np.pi
        # rounded six-figure cross-checks of the same constants
        assert abs(np.cos(cf.alpha_star) ** 2 - 0.114710) < 1e-6
        assert abs(np.cos(cf.beta_star) ** 2 - 0.968623) < 1e-6

    def test_attack_matches_prediction(self):
        x = self.fixture()
        attack, report = attack_rank_one(x, 2, 0.5)
        assert report.regime == Regime.K_LT_RANK_CASE2
        assert report.theta_predicted == pytest.approx(REF_THETA, abs=1e-12)
        theta, _ = pca_distance(x, x + attack.delta, 2)
        assert theta == pytest.approx(report.theta_predicted, abs=1e-8)

    def test_stationarity_at_optimum(self):
        cf = klt_rank_closed_form(2.0, 1.0, 0.5)
        res = stationarity_residual(2.0, 1.0, 0.5, cf.alpha_star, cf.beta_star)
        assert res < 1e-6

    def test_large_budget_max_distance(self):
        x = self.fixture()
        attack, report = attack_rank_one(x, 2, 1.2)
        assert report.regime == Regime.K_LT_RANK_CASE1
        assert report.theta_predicted == pytest.approx(np.pi / 2)
        theta, _ = pca_distance(x, x + attack.delta, 2)
        assert theta == pytest.approx(np.pi / 2, abs=1e-8)

    def test_vanishing_budget(self):
        cf = klt_rank_closed_form(2.0, 1.0, 1e-9)
        assert cf.theta_star < 1e-6
        assert np.cos(cf.alpha_star) ** 2 == pytest.approx(0.0, abs=1e-9)

    def test_tiny_budget_relative_accuracy(self):
        for eta, ref in REF_TINY_THETA.items():
            cf = klt_rank_closed_form(2.0, 1.0, eta)
            assert cf.theta_star == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8])
    def test_near_tie_against_mpmath(self, gap):
        # theta* and the core eta (cos a*, sin a*)^T (cos b*, sin b*) from the
        # unrationalized cos^2 of the two angles, evaluated in 60-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        sk, sk1 = 1.0, 1.0 - gap

        def reference(eta):
            sk_, sk1_, eta_ = mp.mpf(sk), mp.mpf(sk1), mp.mpf(eta)
            gap2 = sk_**2 - sk1_**2
            root = mp.sqrt(((sk_ + sk1_) ** 2 - eta_**2) * ((sk_ - sk1_) ** 2 - eta_**2))
            alpha = mp.acos(mp.sqrt((gap2 + eta_**2 - root) / (2 * gap2)))
            beta = mp.pi - mp.acos(mp.sqrt((gap2 + eta_**2 + root) / (2 * gap2)))
            ca, sa, cb, sb = mp.cos(alpha), mp.sin(alpha), mp.cos(beta), mp.sin(beta)
            ax = (gap2 + 2 * eta_ * (sk_ * ca * cb - sk1_ * sa * sb)
                  + eta_**2 * mp.cos(2 * alpha))
            ay = 2 * eta_ * (sk_ * sa * cb + sk1_ * ca * sb + eta_ * ca * sa)
            core = [eta_ * ca * cb, eta_ * ca * sb, eta_ * sa * cb, eta_ * sa * sb]
            return abs(mp.atan2(ay, ax)) / 2, core

        for frac in [0.5] + [10.0**-exponent for exponent in range(1, 13)]:
            eta = frac * (sk - sk1)
            theta_ref, core_ref = reference(eta)
            regime, theta, core = solve_rank_one(sk, sk1, eta, "k<rank")
            assert regime == Regime.K_LT_RANK_CASE2
            for got in (theta, klt_rank_closed_form(sk, sk1, eta).theta_star):
                assert abs(got - theta_ref) / theta_ref < 1e-12, (eta, got, theta_ref)
            for got, ref in zip(core, core_ref):
                assert abs(got - ref) / eta < 1e-12, (eta, got, ref)

    def test_rejects_out_of_regime(self):
        # a tie, a budget at the gap, where the attack is KLtRankCase1, one
        # past it, one past sigma_k + sigma_{k+1}, where H is positive again,
        # and a negative sigma_{k+1}, below and past -sigma_k
        for sk, sk1, eta in [(1.0, 1.0, 0.1), (2.0, 1.0, 1.0), (2.0, 1.0, 1.5), (2.0, 1.0, 3.5),
                             (2.0, -1.0, 0.5), (2.0, -3.0, 0.5)]:
            with pytest.raises(RegimeError):
                klt_rank_closed_form(sk, sk1, eta)

    def test_boundary_budget_flagged(self):
        x = self.fixture()
        _, report = attack_rank_one(x, 2, 1.0)  # eta exactly sigma_k - sigma_{k+1}
        assert report.regime == Regime.K_LT_RANK_CASE1
        assert report.ambiguous_subspace

    def test_json_degrees_are_of_the_achieved_angle(self):
        # the re-PCA's angle differs from the prediction in its last bits here
        x = synth_gaussian(9, 6, seed=1)
        sigma = full_svd(x).sigma
        _, report = attack_rank_one(x, 2, 0.3 * (sigma[1] - sigma[2]))
        payload = report.to_json_dict()
        assert payload["theta_achieved"] != payload["theta_predicted"]
        assert payload["theta_degrees"] == math.degrees(payload["theta_achieved"])

    def test_wide_and_tall_inputs_agree_with_prediction(self):
        for seed, shape in [(0, (7, 4)), (1, (4, 7)), (2, (6, 6))]:
            x = np.random.default_rng(seed).standard_normal(shape)
            eta = 0.35 * (full_svd(x).sigma[1] - full_svd(x).sigma[2])
            attack, report = attack_rank_one(x, 2, eta)
            theta, _ = pca_distance(x, x + attack.delta, 2)
            assert theta == pytest.approx(report.theta_predicted, abs=1e-8)


class TestSignConvention:
    # b is a unit vector in the span of the factor's v_k and v_{k+1}, signed
    # so that its last nonzero coordinate there is positive; a = delta b
    @pytest.mark.parametrize("x, k, eta, regime", [
        (full_rank_fixture(), 2, 2.5, Regime.FULL_RANK_CASE1),
        (full_rank_fixture(), 2, 1.8, Regime.FULL_RANK_CASE2),
        (full_rank_fixture(), 2, 0.5, Regime.FULL_RANK_CASE2),
        (np.diag([3.0, 2.0, 0.0]), 2, 1.9, Regime.LOW_RANK_CASE2),
        (np.diag([3.0, 2.0, 0.0]), 2, 2.5, Regime.LOW_RANK_CASE1),
        (np.diag([3.0, 2.0, 1.0]), 2, 0.5, Regime.K_LT_RANK_CASE2),
        (np.diag([3.0, 2.0, 1.0]), 2, 1.2, Regime.K_LT_RANK_CASE1),
    ], ids=["full-rank-1", "full-rank-2-past-row", "full-rank-2", "low-rank-2", "low-rank-1",
            "k<rank-2", "k<rank-1"])
    def test_b_ends_positive_on_the_factor(self, x, k, eta, regime):
        attack, report = attack_rank_one(x, k, eta)
        assert report.regime == regime
        coords = full_svd(x).v[:, k - 1:k + 1].T @ attack.b
        assert np.linalg.norm(attack.b) == pytest.approx(1.0, abs=1e-15)
        assert coords[np.abs(coords) > 1e-12][-1] > 0.0
        assert np.allclose(attack.delta @ attack.b, attack.a, atol=1e-15)


class TestEquivalentSolutions:
    def test_four_solutions_same_theta(self):
        cf = klt_rank_closed_form(2.0, 1.0, 0.5)
        thetas = [theta_from_angles(2.0, 1.0, 0.5, a, b)
                  for a, b in equivalent_solutions(cf.alpha_star, cf.beta_star)]
        assert np.max(np.abs(np.array(thetas) - thetas[0])) < 1e-10

    def test_origin(self):
        sols = equivalent_solutions(0.0, 0.0)
        assert sols == [(0.0, 0.0), (0.0, -0.0), (np.pi, np.pi), (-np.pi, -np.pi)]

    def test_involution(self):
        alpha, beta = 0.4, 2.0
        once = equivalent_solutions(alpha, beta)
        again = equivalent_solutions(*once[2])  # (pi - alpha, pi - beta)
        assert any(np.allclose(pair, (alpha, beta)) for pair in again)


class TestThetaFromAngles:
    def test_zero_budget(self):
        assert theta_from_angles(2.0, 1.0, 0.0, 0.7, 2.1) == pytest.approx(0.0)

    def test_lists_broadcast_as_arrays(self):
        alphas, betas = [0.1, 1.2, 2.9], [[0.4], [2.9]]
        got = theta_from_angles(2.0, 1.0, 0.5, alphas, betas)
        assert got.shape == (2, 3)
        want = [[theta_from_angles(2.0, 1.0, 0.5, a, b) for a in alphas] for (b,) in betas]
        assert got == pytest.approx(np.array(want), rel=1e-14)

    def test_matches_assembled_attack(self):
        x = np.diag([3.0, 2.0, 1.0])
        attack, _ = attack_rank_one(x, 2, 0.5)
        cf = klt_rank_closed_form(2.0, 1.0, 0.5)
        theta, _ = pca_distance(x, x + attack.delta, 2)
        ref = theta_from_angles(2.0, 1.0, 0.5, cf.alpha_star, cf.beta_star)
        assert theta == pytest.approx(ref, abs=1e-8)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            alpha = rng.uniform(0, np.pi)
            beta = rng.uniform(0, np.pi)
            t1 = theta_from_angles(2.0, 1.0, 0.5, alpha, beta)
            t2 = theta_from_angles(2.0, 1.0, 0.5, np.pi - alpha, np.pi - beta)
            assert t1 == pytest.approx(t2, abs=1e-12)

    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8])
    def test_near_tie_against_mpmath(self, gap):
        # the objective at the float stationary angles, evaluated on the same
        # inputs in 60-digit arithmetic, where sigma_k^2 - sigma_{k+1}^2 is exact
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        sk, sk1 = 1.0, 1.0 - gap

        def reference(eta, alpha, beta):
            sk_, sk1_, eta_ = mp.mpf(sk), mp.mpf(sk1), mp.mpf(eta)
            ca, sa = mp.cos(mp.mpf(alpha)), mp.sin(mp.mpf(alpha))
            cb, sb = mp.cos(mp.mpf(beta)), mp.sin(mp.mpf(beta))
            ax = (sk_**2 - sk1_**2 + 2 * eta_ * (sk_ * ca * cb - sk1_ * sa * sb)
                  + eta_**2 * (ca**2 - sa**2))
            ay = 2 * eta_ * (sk_ * sa * cb + sk1_ * ca * sb + eta_ * ca * sa)
            return abs(mp.atan2(ay, ax)) / 2

        for frac in [0.3] + [10.0**-exponent for exponent in range(1, 13)]:
            eta = frac * (sk - sk1)
            cf = klt_rank_closed_form(sk, sk1, eta)
            ref = reference(eta, cf.alpha_star, cf.beta_star)
            got = theta_from_angles(sk, sk1, eta, cf.alpha_star, cf.beta_star)
            assert abs(got - ref) / ref < 1e-13, (eta, got, ref)


class TestInvariants:
    def _random_instance(self, seed):
        rng = np.random.default_rng(seed)
        regime = seed % 3
        if regime == 0:     # full column rank
            d = int(rng.integers(3, 7))
            n = int(rng.integers(2, d))
            x = rng.standard_normal((d, n))
            k = n
            sigma = full_svd(x).sigma
            eta = float(rng.uniform(0.05, 0.95)) * sigma[-1]
        elif regime == 1:   # rank deficient, k = rank
            k = int(rng.integers(1, 4))
            d = int(rng.integers(k + 1, 7))
            n = int(rng.integers(k + 1, 7))
            x = rng.standard_normal((d, k)) @ rng.standard_normal((k, n))
            sigma = full_svd(x).sigma
            eta = float(rng.uniform(0.05, 1.4)) * sigma[k - 1]
        else:               # k below rank
            d = int(rng.integers(4, 7))
            n = int(rng.integers(4, 7))
            x = rng.standard_normal((d, n))
            k = int(rng.integers(1, min(d, n) - 1))
            sigma = full_svd(x).sigma
            eta = float(rng.uniform(0.05, 1.4)) * (sigma[k - 1] - sigma[k])
        return x, k, eta

    def test_budget_feasibility_and_saturation(self):
        for seed in range(100):
            x, k, eta = self._random_instance(seed)
            attack, report = attack_rank_one(x, k, eta)
            assert abs(np.linalg.norm(attack.b) - 1.0) < 1e-10
            used = attack.budget_used
            assert used <= eta + 1e-10
            assert used == pytest.approx(eta, abs=1e-10 * (1.0 + eta))

    def test_prediction_consistency(self):
        for seed in range(100):
            x, k, eta = self._random_instance(seed)
            _, report = attack_rank_one(x, k, eta)
            if report.ambiguous_subspace:
                continue
            assert abs(report.theta_predicted - report.theta_achieved) < 1e-8

    def test_theta_monotone_in_budget(self):
        x = np.diag([3.0, 2.0, 1.0])
        thetas = []
        for eta in np.linspace(0.01, 1.6, 50):
            _, report = attack_rank_one(x, 2, float(eta))
            thetas.append(report.theta_predicted)
        assert np.all(np.diff(thetas) >= -1e-12)

        x = np.diag([3.0, 2.0, 0.0])
        thetas = [attack_rank_one(x, 2, float(eta))[1].theta_predicted
                  for eta in np.linspace(0.01, 2.6, 50)]
        assert np.all(np.diff(thetas) >= -1e-12)

    def test_regime_boundary_continuity(self):
        sigma_k = 2.0
        previous = 0.0
        for eps in [1e-2, 1e-4, 1e-6, 1e-8]:
            _, report = attack_rank_one(np.diag([3.0, sigma_k, 0.0]), 2,
                                        sigma_k * (1.0 - eps))
            assert report.theta_predicted >= previous
            previous = report.theta_predicted
        assert np.pi / 2 - previous < 1e-3
        _, above = attack_rank_one(np.diag([3.0, sigma_k, 0.0]), 2, sigma_k * 1.01)
        assert above.theta_predicted == pytest.approx(np.pi / 2)
