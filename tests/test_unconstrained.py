import numpy as np
import pytest
from conftest import matrix_with_spectrum
from oracles import paired_entries

from pcattack import (Regime, RegimeError, attack_rank_one, attack_unconstrained,
                      closed_form_lambda, full_svd, lift_to_data_space,
                      pca_distance, recover_entries)
from pcattack.errors import InvalidDimension
from pcattack.unconstrained import solve_unconstrained

# sigma_k = 2, sigma_{k+1} = 1, eta = 0.5 frozen reference values, re-derived
# from the feasibility chain and confirmed by a refined random-search oracle
# and an end-to-end PCA recomputation.
REF_LAMBDA = 1.0571882797418488
REF_THETA = 0.40659512501895356


def fixture():
    return np.diag([3.0, 2.0, 1.0])


class TestClosedFormChain:
    def test_reference_values(self):
        ci = closed_form_lambda(2.0, 1.0, 0.5)
        assert ci.c == pytest.approx(2.25, abs=1e-14)
        assert ci.w == pytest.approx(0.11805555555555555, abs=1e-14)
        assert ci.e == pytest.approx(2.512402029959847, abs=1e-12)
        assert ci.lambda_max == pytest.approx(REF_LAMBDA, abs=1e-12)
        assert ci.theta_star == pytest.approx(REF_THETA, abs=1e-12)
        # rounded six-figure cross-checks of the same constants
        assert abs(ci.w - 0.118056) < 1e-6
        assert abs(ci.e - 2.51240) < 1e-4
        assert abs(ci.lambda_max - 1.05719) < 1e-4

    def test_case2_invariants(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            sk1 = float(rng.uniform(0.0, 1.5))
            sk = sk1 + float(rng.uniform(0.3, 2.0))
            eta = float(rng.uniform(0.05, 0.95)) * (sk - sk1) / np.sqrt(2.0)
            ci = closed_form_lambda(sk, sk1, eta)
            assert ci.c > sk * sk1
            assert 0.0 < ci.w <= 0.25
            assert ci.lambda_max > 0.0
            assert 0.0 < ci.theta_star <= np.pi / 4
            b_kk, b_k1k, b_kk1, b_k1k1 = recover_entries(ci, sk, sk1)
            b_x = (b_kk + sk) ** 2 + b_kk1**2 - (b_k1k1 + sk1) ** 2 - b_k1k**2
            assert b_x > 0.0

    def test_vanishing_budget_limit(self):
        ci = closed_form_lambda(2.0, 1.0, 1e-9)
        assert ci.w == pytest.approx(0.25, abs=1e-12)
        assert ci.e == pytest.approx(1.0, abs=1e-8)
        assert ci.lambda_max < 1e-6
        assert ci.theta_star < 1e-6

    @pytest.mark.parametrize("sk, sk1", [(2.0, 1.3), (2.0, 1.0), (1.0, 0.0), (5.0, 4.99),
                                         (1.0, 1.0 - 1e-6), (1.0, 1.0 - 1e-8)])
    def test_tiny_budget_relative_accuracy(self, sk, sk1):
        # theta* from the same chain evaluated in 60-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60

        def reference(eta):
            sk_, sk1_, eta_ = mp.mpf(sk), mp.mpf(sk1), mp.mpf(eta)
            gap2 = sk_**2 - sk1_**2
            w = ((sk_ - sk1_) ** 2 - 2 * eta_**2) * ((sk_ + sk1_) ** 2 - 2 * eta_**2) / (4 * gap2**2)
            s = 2 * eta_ * mp.sqrt(sk_**2 + sk1_**2 - eta_**2) / gap2
            e = (1 + s) / (2 * mp.sqrt(w))
            return mp.atan((e**2 - 1) / (2 * e)) / 2

        for exponent in range(1, 13):
            eta = 10.0**-exponent * (sk - sk1)
            ref = reference(eta)
            for theta in (closed_form_lambda(sk, sk1, eta).theta_star,
                          solve_unconstrained(sk, sk1, eta, "k<rank")[1]):
                assert abs(theta - ref) / ref < 1e-12, (eta, theta, ref)

    @pytest.mark.parametrize("sk, sk1", [(2.0, 1.3), (2.0, 1.0), (1.0, 0.0), (5.0, 4.99),
                                         (1.0, 1.0 - 1e-6), (1.0, 1.0 - 1e-8)])
    def test_tiny_budget_entries(self, sk, sk1):
        # P V - diag(sigma_k, sigma_{k+1}) from the same chain evaluated in
        # 60-digit arithmetic; each entry must hold its accuracy relative to eta
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60

        def reference(eta):
            sk_, sk1_, eta_ = mp.mpf(sk), mp.mpf(sk1), mp.mpf(eta)
            gap2 = sk_**2 - sk1_**2
            w = ((sk_ - sk1_) ** 2 - 2 * eta_**2) * ((sk_ + sk1_) ** 2 - 2 * eta_**2) / (4 * gap2**2)
            s = 2 * eta_ * mp.sqrt(sk_**2 + sk1_**2 - eta_**2) / gap2
            e = (1 + s) / (2 * mp.sqrt(w))
            lam = (e**2 - 1) / (2 * e)
            root = mp.sqrt(lam**2 + 1)
            p11 = 1 / mp.sqrt((root + lam) ** 2 + 1)
            p21 = p11 * (root + lam)
            n_a = mp.sqrt(p11**2 * sk_**2 + p21**2 * sk1_**2)
            n_b = mp.sqrt(p21**2 * sk_**2 + p11**2 * sk1_**2)
            r = (n_a + n_b) / 2
            ca, sa = p11 * sk_ / n_a, p21 * sk1_ / n_a
            cb, sb = -p21 * sk_ / n_b, p11 * sk1_ / n_b
            return [r * (p11 * ca - p21 * cb) - sk_, r * (p21 * ca + p11 * cb),
                    r * (p11 * sa - p21 * sb), r * (p21 * sa + p11 * sb) - sk1_]

        for exponent in range(1, 13):
            eta = 10.0**-exponent * (sk - sk1) / np.sqrt(2.0)
            entries = recover_entries(closed_form_lambda(sk, sk1, eta), sk, sk1)
            for got, ref in zip(entries, reference(eta)):
                assert abs(got - ref) / eta < 1e-12, (eta, got, ref)

    def test_boundary_budget_limit(self):
        bound = 1.0 / np.sqrt(2.0)
        ci = closed_form_lambda(2.0, 1.0, bound * (1.0 - 1e-9))
        assert ci.theta_star < np.pi / 4
        assert np.pi / 4 - ci.theta_star < 1e-4
        # just past the boundary the optimum jumps to pi/2 (Case 1)
        _, report = attack_unconstrained(fixture(), 2, bound * (1.0 + 1e-9))
        assert report.theta_predicted == pytest.approx(np.pi / 2)

    def test_rejects_out_of_regime(self):
        with pytest.raises(RegimeError):
            closed_form_lambda(2.0, 1.0, 0.0)
        with pytest.raises(RegimeError):
            closed_form_lambda(2.0, 1.0, 0.8)   # above (sk - sk1)/sqrt(2)
        with pytest.raises(RegimeError):
            closed_form_lambda(2.0, 1.0, (2.0 - 1.0) / np.sqrt(2.0))   # at it
        with pytest.raises(RegimeError):
            closed_form_lambda(1.0, 1.0, 0.1)
        with pytest.raises(RegimeError):
            closed_form_lambda(2.0, -1.0, 0.5)   # a negative sigma_{k+1}


class TestRecoverEntries:
    def test_budget_used_exactly(self):
        ci = closed_form_lambda(2.0, 1.0, 0.5)
        entries = recover_entries(ci, 2.0, 1.0)
        assert np.linalg.norm(entries) == pytest.approx(0.5, abs=1e-8)

    def test_objective_ratio_is_lambda(self):
        ci = closed_form_lambda(2.0, 1.0, 0.5)
        b_kk, b_k1k, b_kk1, b_k1k1 = recover_entries(ci, 2.0, 1.0)
        b_y = 2.0 * ((b_kk + 2.0) * b_k1k + (b_k1k1 + 1.0) * b_kk1)
        b_x = (b_kk + 2.0) ** 2 + b_kk1**2 - (b_k1k1 + 1.0) ** 2 - b_k1k**2
        assert b_x > 0.0
        assert b_y / b_x == pytest.approx(ci.lambda_max, abs=1e-8)

    def test_paired_solution_same_theta(self):
        x = fixture()
        svd = full_svd(x)
        ci = closed_form_lambda(2.0, 1.0, 0.5)
        entries = recover_entries(ci, 2.0, 1.0)
        t1, _ = pca_distance(x, x + lift_to_data_space(entries, svd, 2).delta, 2)
        t2, _ = pca_distance(x, x + lift_to_data_space(paired_entries(entries), svd, 2).delta, 2)
        assert t1 == pytest.approx(t2, abs=1e-10)
        assert t1 == pytest.approx(ci.theta_star, abs=1e-10)


class TestLift:
    def test_zero_entries(self):
        svd = full_svd(fixture())
        pm = lift_to_data_space(np.zeros(4), svd, 2)
        assert np.all(pm.delta == 0.0)
        assert pm.budget_used == 0.0

    def test_identity_factors(self):
        svd = full_svd(np.diag([3.0, 2.0, 1.0]))
        pm = lift_to_data_space([1.0, 2.0, 3.0, 4.0], svd, 2)
        expected = np.zeros((3, 3))
        expected[1, 1], expected[2, 1], expected[1, 2], expected[2, 2] = 1, 2, 3, 4
        assert np.allclose(pm.delta, expected, atol=1e-12)

    def test_norm_preserved_under_rotation(self):
        x = matrix_with_spectrum([4.0, 2.5, 1.0, 0.4], 5, 6, seed=8)
        svd = full_svd(x)
        entries = np.array([0.3, -0.1, 0.2, 0.05])
        pm = lift_to_data_space(entries, svd, 2)
        assert np.linalg.norm(pm.delta) == pytest.approx(np.linalg.norm(entries), abs=1e-12)

    def test_three_entries_rejected(self):
        with pytest.raises(InvalidDimension, match=r"^expected exactly four canonical entries$"):
            lift_to_data_space([1, 2, 3], full_svd(fixture()), 2)

    def test_out_of_room(self):
        svd = full_svd(np.diag([3.0, 2.0]))
        with pytest.raises(InvalidDimension):
            lift_to_data_space([1.0, 0.0, 0.0, 0.0], svd, 2)


class TestAttackUnconstrained:
    def test_case1_max_distance(self):
        x = fixture()
        pm, report = attack_unconstrained(x, 2, 0.8)  # above 1/sqrt(2)
        assert report.regime == Regime.UNCONSTRAINED_CASE1
        assert report.theta_achieved == pytest.approx(np.pi / 2, abs=1e-8)
        assert report.solution["entries"][0] == pytest.approx(-0.8 / np.sqrt(2.0))
        assert report.solution["entries"][3] == pytest.approx(0.8 / np.sqrt(2.0))

    def test_case2_reference(self):
        x = fixture()
        pm, report = attack_unconstrained(x, 2, 0.5)
        assert report.regime == Regime.UNCONSTRAINED_CASE2
        assert report.theta_predicted == pytest.approx(REF_THETA, abs=1e-12)
        assert report.theta_achieved == pytest.approx(REF_THETA, abs=1e-8)
        assert pm.budget_used == pytest.approx(0.5, abs=1e-8)
        # the report's entries are (b_kk, b_k1k, b_kk1, b_k1k1), as
        # recover_entries orders them; b_k1k / b_kk1 = sigma_k / sigma_{k+1}
        entries = recover_entries(closed_form_lambda(2.0, 1.0, 0.5), 2.0, 1.0)
        assert report.solution["entries"] == pytest.approx(entries, rel=1e-14)
        assert entries[1] == pytest.approx(2.0 * entries[2], rel=1e-15)

    def test_zero_budget(self):
        pm, report = attack_unconstrained(fixture(), 2, 0.0)
        assert np.all(pm.delta == 0.0)
        assert report.theta_achieved == pytest.approx(0.0, abs=1e-7)

    def test_zero_budget_at_a_tie(self):
        # at sigma_k = sigma_{k+1} the threshold is 0, yet a zero budget moves
        # nothing: Case2, theta 0, and a zero core of positive zeros
        assert solve_unconstrained(1.0, 1.0, 0.0, "k<rank") == (
            Regime.UNCONSTRAINED_CASE2, 0.0, (0.0, 0.0, 0.0, 0.0))
        pm, report = attack_unconstrained(np.eye(3), 1, 0.0)
        assert report.regime == Regime.UNCONSTRAINED_CASE2
        assert report.theta_predicted == 0.0
        assert report.ambiguous_subspace
        assert not np.signbit(pm.delta).any()

    def test_exact_boundary_flagged(self):
        x = fixture()
        _, report = attack_unconstrained(x, 2, 1.0 / np.sqrt(2.0))
        assert report.regime == Regime.UNCONSTRAINED_CASE1
        assert report.ambiguous_subspace

    def test_canonical_support(self):
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal((5, 6))
            svd = full_svd(x)
            gap = svd.sigma[1] - svd.sigma[2]
            pm, report = attack_unconstrained(x, 2, 0.4 * gap / np.sqrt(2.0))
            b = svd.u.T @ pm.delta @ svd.v
            block = np.linalg.norm(b[1:3, 1:3])
            b[1:3, 1:3] = 0.0
            assert np.max(np.abs(b)) < 1e-10
            # no energy outside the span of the thin factors either
            assert abs(np.linalg.norm(pm.delta) - block) < 1e-10

    def test_achieved_equals_predicted(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(4, 7))
            n = int(rng.integers(4, 7))
            x = rng.standard_normal((d, n))
            k = int(rng.integers(1, min(d, n) - 1))
            sigma = full_svd(x).sigma
            bound = (sigma[k - 1] - sigma[k]) / np.sqrt(2.0)
            eta = float(rng.uniform(0.05, 1.4)) * bound
            pm, report = attack_unconstrained(x, k, eta)
            if report.ambiguous_subspace:
                continue
            assert abs(report.theta_achieved - report.theta_predicted) < 1e-8
            assert pm.budget_used == pytest.approx(eta, abs=1e-8 * (1.0 + eta))

    def test_dominates_rank_one(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((5, 5))
            sigma = full_svd(x).sigma
            eta = float(rng.uniform(0.05, 1.2)) * (sigma[2] - sigma[3])
            _, r1 = attack_rank_one(x, 3, eta)
            _, wr = attack_unconstrained(x, 3, eta)
            assert wr.theta_predicted >= r1.theta_predicted - 1e-8

    def test_matches_rank_one_law_on_low_rank_data(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
        sigma_k = full_svd(x).sigma[2]
        for frac in [0.1, 0.3, 0.5, 0.7]:
            eta = frac * sigma_k
            _, report = attack_unconstrained(x, 3, eta)
            assert abs(report.theta_predicted - np.arcsin(frac)) < 1e-8
            assert abs(report.theta_achieved - np.arcsin(frac)) < 1e-8

    def test_support_projection_near_optimal(self):
        # A refined full-matrix search lands on the four-entry support: after
        # zeroing everything else the achieved distance barely moves.
        worst_gap = 0.0
        worst_loss = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sk1 = float(rng.uniform(0.4, 1.2))
            sk = sk1 + float(rng.uniform(0.5, 1.5))
            eta = float(rng.uniform(0.3, 0.8)) * (sk - sk1) / np.sqrt(2.0)
            x = np.diag([sk + 1.0, sk, sk1, 0.3 * sk1])
            theta_star = attack_unconstrained(x, 2, eta)[1].theta_predicted
            best, best_delta = self._refine(x, 2, eta, rng)
            proj = np.zeros_like(best_delta)
            proj[1:3, 1:3] = best_delta[1:3, 1:3]
            theta_proj, _ = pca_distance(x, x + proj, 2)
            worst_gap = max(worst_gap, theta_star - best)
            worst_loss = max(worst_loss, best - theta_proj)
            assert best <= theta_star + 1e-9
        assert worst_gap < 1e-5
        assert worst_loss < 1e-4

    @staticmethod
    def _refine(x, k, eta, rng, rounds=130, batch=24):
        basis = full_svd(x).u[:, :k]

        def thetas(deltas):
            u_hat = np.linalg.svd(x[None] + deltas)[0][:, :, :k]
            m = np.einsum("ji,bjl->bil", basis, u_hat)
            return np.arccos(np.clip(np.linalg.svd(m, compute_uv=False)[:, -1], 0, 1))

        cand = rng.standard_normal((256,) + x.shape)
        cand *= (eta / np.linalg.norm(cand, axis=(1, 2)))[:, None, None]
        th = thetas(cand)
        i = int(np.argmax(th))
        best, best_delta = float(th[i]), cand[i]
        step = 0.25
        for _ in range(rounds):
            prop = best_delta[None] + step * rng.standard_normal((batch,) + x.shape)
            prop *= (eta / np.linalg.norm(prop, axis=(1, 2)))[:, None, None]
            th = thetas(prop)
            i = int(np.argmax(th))
            if th[i] > best:
                best, best_delta = float(th[i]), prop[i]
            else:
                step *= 0.85
        return best, best_delta
