import operator
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from conftest import random_basis
from oracles import brute_force_principal_angles, stationarity_residual

from pcattack import (InvalidDimension, InvalidMatrix, attack_rank_one,
                      closed_form_lambda, klt_rank_closed_form, principal_angles,
                      synth_gaussian, synth_low_rank, write_matrix_csv)
from pcattack import experiments, oracle
from pcattack.cli import main
from pcattack.linalg import full_svd
from pcattack.oracle import (SearchConfig, grid_search_angles, portable_normal,
                             random_rank_one, random_unconstrained, verify)

BF_CFG = SearchConfig(trials=1, seed=0, grid_resolution=200, refine_steps=4)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(trials=0)
        with pytest.raises(ValueError):
            SearchConfig(grid_resolution=1)
        for seed in (-1, -(2**70)):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                SearchConfig(seed=seed)
        for name in ("trials", "seed", "grid_resolution", "refine_steps"):
            for bad in (2.5, 3.0, "4", None):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    SearchConfig(**{name: bad})
        cfg = SearchConfig(trials=np.int64(7), seed=np.uint8(5), grid_resolution=np.int32(9),
                           refine_steps=True)
        values = (cfg.trials, cfg.seed, cfg.grid_resolution, cfg.refine_steps)
        assert values == (7, 5, 9, 1)
        assert all(type(v) is int for v in values)


class TestPortableNormal:
    def test_deterministic(self):
        a = portable_normal(123, (4, 5))
        b = portable_normal(123, (4, 5))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, portable_normal(124, (4, 5)))

    def test_moments(self):
        z = portable_normal(0, (200_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestRandomRankOne:
    def test_deterministic(self):
        x = np.diag([3.0, 2.0, 0.0])
        cfg = SearchConfig(trials=50, seed=11)
        a1, t1 = random_rank_one(x, 2, 1.0, cfg)
        a2, t2 = random_rank_one(x, 2, 1.0, cfg)
        assert t1 == t2
        assert np.array_equal(a1.a, a2.a) and np.array_equal(a1.b, a2.b)

    def test_never_beats_closed_form(self):
        x = np.diag([3.0, 2.0, 0.0])
        _, best = random_rank_one(x, 2, 1.0, SearchConfig(trials=10_000, seed=3))
        assert best <= np.arcsin(0.5) + 1e-6

    def test_zero_budget(self):
        x = np.diag([3.0, 2.0, 0.0])
        _, best = random_rank_one(x, 2, 0.0, SearchConfig(trials=20, seed=0))
        assert best == pytest.approx(0.0, abs=1e-7)

    def test_budget_exact(self):
        x = np.diag([3.0, 2.0, 0.0])
        attack, _ = random_rank_one(x, 2, 0.7, SearchConfig(trials=25, seed=5))
        assert attack.budget_used == pytest.approx(0.7, abs=1e-12)
        assert np.linalg.norm(attack.b) == pytest.approx(1.0, abs=1e-12)

    def test_nested_trials_monotone(self):
        x = np.diag([3.0, 2.0, 1.0])
        best = [random_rank_one(x, 2, 0.5, SearchConfig(trials=t, seed=7))[1]
                for t in (10, 100, 1000)]
        assert best[0] <= best[1] <= best[2]


class TestRandomUnconstrained:
    def test_never_beats_closed_form(self):
        x = np.diag([3.0, 2.0, 1.0])
        theta_star = closed_form_lambda(2.0, 1.0, 0.5).theta_star
        _, best = random_unconstrained(x, 2, 0.5, SearchConfig(trials=10_000, seed=4))
        assert best <= theta_star + 1e-4

    def test_deterministic(self):
        x = np.diag([3.0, 2.0, 1.0])
        cfg = SearchConfig(trials=40, seed=21)
        p1, t1 = random_unconstrained(x, 2, 0.5, cfg)
        p2, t2 = random_unconstrained(x, 2, 0.5, cfg)
        assert t1 == t2
        assert np.array_equal(p1.delta, p2.delta)

    def test_nested_trials_monotone(self):
        x = np.diag([3.0, 2.0, 1.0])
        best = [random_unconstrained(x, 2, 0.5, SearchConfig(trials=t, seed=9))[1]
                for t in (10, 100, 1000)]
        assert best[0] <= best[1] <= best[2]


class TestGridSearch:
    def test_recovers_closed_form(self):
        cf = klt_rank_closed_form(2.0, 1.0, 0.5)
        alpha, beta, theta = grid_search_angles(2.0, 1.0, 0.5,
                                                SearchConfig(grid_resolution=400))
        assert abs(theta - cf.theta_star) < 1e-5
        assert theta <= cf.theta_star + 1e-6
        assert abs(alpha - cf.alpha_star) < 1e-2
        assert abs(beta - cf.beta_star) < 1e-2

    def test_zero_budget(self):
        _, _, theta = grid_search_angles(2.0, 1.0, 0.0, SearchConfig(grid_resolution=50))
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_minimal_resolution_smoke(self):
        alpha, beta, theta = grid_search_angles(
            2.0, 1.0, 0.5, SearchConfig(grid_resolution=2, refine_steps=0))
        assert 0.0 <= alpha <= np.pi / 2
        assert np.pi / 2 <= beta <= np.pi
        assert 0.0 <= theta <= np.pi / 2

    # (alpha, beta, theta) recorded from one scan of the whole grid; the scan
    # in row blocks must give them bit for bit.  At eta = 0 every cell is 0,
    # so only a strict compare across blocks keeps the lowest grid index.  The
    # refined rows evaluate the objective on scalars, with ``math``.
    @pytest.mark.parametrize("args, refine_steps, res, expected", [
        ((2.0, 1.0, 0.5), 2, 2, (1.1992814827306169, 2.9777385557187546, 0.34543450331354875)),
        ((2.0, 1.0, 0.5), 2, 50, (1.2223938075951135, 2.9650923480855558, 0.3455223427773882)),
        ((2.0, 1.0, 0.5), 2, 400, (1.2251226930854395, 2.9635994727099444, 0.3455234244588851)),
        ((3.1, 2.7, 0.3), 0, 2, (1.5707963267948966, 3.141592653589793, 0.34758959663785716)),
        ((3.1, 2.7, 0.3), 0, 50, (1.121997376282069, 2.756907838864512, 0.4498434075204527)),
        ((3.1, 2.7, 0.3), 0, 400, (1.121997376282069, 2.743972530767025, 0.4499038862127548)),
        ((2.0, 1.0, 0.0), 0, 400, (0.0, 1.5707963267948966, 0.0)),
    ])
    def test_recorded_values(self, args, refine_steps, res, expected):
        cfg = SearchConfig(grid_resolution=res, refine_steps=refine_steps)
        assert grid_search_angles(*args, cfg) == expected

    def test_coverage_over_instances(self):
        # Grid + refinement recovers the stationary-point value, confirming
        # the closed forms are maxima rather than saddle points.
        cfg = SearchConfig(grid_resolution=200, refine_steps=3)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sk1 = float(rng.uniform(0.2, 1.2))
            sk = sk1 + float(rng.uniform(0.3, 1.5))
            eta = float(rng.uniform(0.1, 0.9)) * (sk - sk1)
            cf = klt_rank_closed_form(sk, sk1, eta)
            _, _, theta = grid_search_angles(sk, sk1, eta, cfg)
            assert abs(theta - cf.theta_star) < 1e-4
            assert theta <= cf.theta_star + 1e-6


class TestStationarity:
    def test_small_at_optimum(self):
        cf = klt_rank_closed_form(2.0, 1.0, 0.5)
        assert stationarity_residual(2.0, 1.0, 0.5, cf.alpha_star, cf.beta_star) < 1e-6

    def test_large_away_from_optimum(self):
        assert stationarity_residual(2.0, 1.0, 0.5, 0.0, np.pi / 2) > 1e-3

    def test_step_consistency(self):
        # Central differences: truncation is O(step^2), so shrinking the step
        # barely moves the value at a generic point.
        coarse = stationarity_residual(2.0, 1.0, 0.5, 0.3, 2.0, step=1e-4)
        fine = stationarity_residual(2.0, 1.0, 0.5, 0.3, 2.0, step=1e-5)
        assert abs(coarse - fine) < 1e-6 * (1.0 + coarse)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            stationarity_residual(2.0, 1.0, 0.5, 0.3, 2.0, step=0.0)


class TestBruteForcePrincipalAngles:
    def test_identical_bases(self):
        b = random_basis(np.random.default_rng(2), 5, 2)
        angles = brute_force_principal_angles(b, b, BF_CFG)
        assert np.max(np.abs(angles)) < 1e-6

    def test_known_rotation(self):
        phi = 0.9
        b1 = np.eye(4)[:, [0]]
        b2 = np.array([[np.cos(phi)], [np.sin(phi)], [0.0], [0.0]])
        angles = brute_force_principal_angles(b1, b2, BF_CFG)
        assert angles[0] == pytest.approx(phi, abs=1e-8)

    def test_matches_svd_computation(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = random_basis(rng, 5, 2)
            b = random_basis(rng, 5, 2)
            ref = principal_angles(a, b)
            got = brute_force_principal_angles(a, b, BF_CFG)
            assert np.max(np.abs(got - ref)) < 1e-6

    def test_three_dim_subspaces(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            a = random_basis(rng, 6, 3)
            b = random_basis(rng, 6, 3)
            ref = principal_angles(a, b)
            got = brute_force_principal_angles(a, b, BF_CFG)
            assert np.max(np.abs(got - ref)) < 1e-6

    def test_size_limits(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="brute force limited"):
            brute_force_principal_angles(random_basis(rng, 8, 2),
                                         random_basis(rng, 8, 2), BF_CFG)
        with pytest.raises(ValueError, match="brute force limited"):
            brute_force_principal_angles(random_basis(rng, 6, 4),
                                         random_basis(rng, 6, 4), BF_CFG)


class TestOracleDominance:
    def test_random_never_beats_k_lt_rank_closed_form(self):
        # The oracle evaluates the true achieved angle, so it can approach
        # the optimum but not exceed it beyond evaluation noise.
        cfg = SearchConfig(trials=2000, seed=31)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((5, 5))
            sigma = np.linalg.svd(x, compute_uv=False)
            eta = 0.5 * (sigma[2] - sigma[3])
            _, report = attack_rank_one(x, 3, eta)
            _, best = random_rank_one(x, 3, eta, cfg)
            assert best <= report.theta_predicted + 1e-6


def _gaussian_instance(d, n, k, seed):
    x = np.random.default_rng(seed).standard_normal((d, n))
    sigma = np.linalg.svd(x, compute_uv=False)
    return x, k, 0.5 * (sigma[k - 1] - sigma[k])


def _pin_instance():
    return _gaussian_instance(5, 5, 3, 1)


def _record_batches(monkeypatch, score):
    """Replace the batch scorer with one that logs each batch's angles, and
    check that every batch is scored from the calling thread."""
    batches, caller = [], threading.get_ident()

    def recording(basis, x, deltas):
        assert threading.get_ident() == caller
        batches.append(score(basis, x, deltas))
        return batches[-1]

    monkeypatch.setattr(oracle, "_batched_theta", recording)
    return batches


class TestBestOfTrials:
    def test_pinned_values(self):
        # 5000 trials cross the 4096-trial chunk of earlier versions; the
        # values were recorded there and must not move.
        x, k, eta = _pin_instance()
        cfg = SearchConfig(trials=5000, seed=1)
        assert random_rank_one(x, k, eta, cfg)[1] == pytest.approx(0.3012103795737239, abs=1e-12)
        assert random_unconstrained(x, k, eta, cfg)[1] == pytest.approx(
            0.28028683896448453, abs=1e-12)

    def test_chunking_does_not_change_results(self, monkeypatch):
        x, k, eta = _pin_instance()
        cfg = SearchConfig(trials=5000, seed=1)
        batches = _record_batches(monkeypatch, oracle._batched_theta)
        one_r1, one_t1 = random_rank_one(x, k, eta, cfg)
        one_wr, one_t2 = random_unconstrained(x, k, eta, cfg)
        one = list(batches)
        assert [len(t) for t in one] == [5000, 5000]

        batches.clear()
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", 8 * 5 ** 2 * 1700)
        many_r1, many_t1 = random_rank_one(x, k, eta, cfg)
        many_wr, many_t2 = random_unconstrained(x, k, eta, cfg)
        assert [len(t) for t in batches] == [1700, 1700, 1600] * 2

        # Every trial scores the same, not only the best one.
        assert np.array_equal(np.concatenate(batches[:3]), one[0])
        assert np.array_equal(np.concatenate(batches[3:]), one[1])
        assert many_t1 == one_t1 and many_t2 == one_t2
        assert np.array_equal(many_r1.a, one_r1.a) and np.array_equal(many_r1.b, one_r1.b)
        assert np.array_equal(many_wr.delta, one_wr.delta)

    def test_batches_within_byte_budget(self, monkeypatch):
        # Scoring is stubbed out: only the chunk sizes matter here.
        batches = _record_batches(monkeypatch, lambda basis, x, deltas: np.zeros(len(deltas)))
        x = np.random.default_rng(2).standard_normal((40, 40))
        cfg = SearchConfig(trials=4096, seed=0)
        random_rank_one(x, 5, 0.1, cfg)
        random_unconstrained(x, 5, 0.1, cfg)
        sizes = [len(t) for t in batches]
        assert sum(sizes) == 2 * 4096
        assert all(rows * 8 * 40 ** 2 <= oracle._CHUNK_BYTES for rows in sizes)

    def test_tiny_budget_still_runs_one_trial_per_chunk(self, monkeypatch):
        batches = _record_batches(monkeypatch, oracle._batched_theta)
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", 1)
        _, theta = random_unconstrained(np.diag([3.0, 2.0, 1.0]), 2, 0.5,
                                        SearchConfig(trials=3, seed=0))
        assert [len(t) for t in batches] == [1, 1, 1]
        assert 0.0 <= theta <= np.pi / 2

    @pytest.mark.parametrize("search", [random_rank_one, random_unconstrained])
    @pytest.mark.parametrize("bad", [np.array([1.0, 2.0, 3.0]),
                                     np.array([[1.0, np.nan], [0.0, 1.0]])])
    def test_rejects_invalid_matrix(self, search, bad):
        with pytest.raises(InvalidMatrix):
            search(bad, 1, 0.1, SearchConfig(trials=2, seed=0))

    @pytest.mark.parametrize("search", [random_rank_one, random_unconstrained])
    def test_scale_invariant(self, search):
        # Scaling X and eta together leaves every angle unchanged, also where
        # the squares of the entries would overflow or underflow.
        x, k, eta = _pin_instance()
        cfg = SearchConfig(trials=500, seed=1)
        theta = search(x, k, eta, cfg)[1]
        for c in (1e-170, 1e-150, 1e150, 1e160):
            assert search(c * x, k, c * eta, cfg)[1] == pytest.approx(theta, abs=1e-12)

    @pytest.mark.parametrize("search", [random_rank_one, random_unconstrained])
    def test_non_finite_angles_are_skipped(self, search, monkeypatch):
        # a trial whose angle is not finite is skipped, and with none left
        # there is no best trial to return
        x, k, eta = _pin_instance()
        scores = np.full(10, np.nan)
        monkeypatch.setattr(oracle, "_batched_theta", lambda basis, x, deltas: scores.copy())
        with pytest.raises(ArithmeticError, match="scored a finite angle"):
            search(x, k, eta, SearchConfig(trials=10, seed=0))
        scores[[3, 7]] = 0.5, 0.25
        assert search(x, k, eta, SearchConfig(trials=10, seed=0))[1] == 0.5


ORACLES = [random_rank_one, random_unconstrained]


def _no_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(threading, "Thread", refuse)


class TestScoringThreads:
    # The last two cross the 4096-trial chunk of earlier versions; 63 and 64
    # run as one slice, 129 as two.
    TRIALS = (1, 63, 64, 129, 4097, 5000)

    @pytest.mark.parametrize("search", ORACLES)
    @pytest.mark.parametrize("d, n, k", [(5, 5, 3), (20, 30, 5), (30, 12, 4)])
    def test_results_do_not_depend_on_worker_count(self, monkeypatch, search, d, n, k):
        x, k, eta = _gaussian_instance(d, n, k, 6)
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_WORKERS", workers)
            runs[workers] = [search(x, k, eta, SearchConfig(trials=t, seed=2))
                             for t in self.TRIALS]
        for workers in (2, 3):
            for (attack, theta), (ref, ref_theta) in zip(runs[workers], runs[1]):
                assert theta == ref_theta
                for name in vars(ref):
                    assert np.array_equal(getattr(attack, name), getattr(ref, name)), name

    def test_slices_concatenate_in_order_under_frequent_switches(self, monkeypatch):
        # More workers than cores, switching threads every microsecond.
        monkeypatch.setattr(oracle, "_WORKERS", 5)
        rows = np.arange(4099.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                assert np.array_equal(oracle._by_rows(lambda r: r + 0.5, rows.size, rows),
                                      rows + 0.5)
        finally:
            sys.setswitchinterval(interval)

    def test_one_row_draws_start_no_thread(self, monkeypatch):
        def draws():
            return [portable_normal(0, (200, 100)), synth_gaussian(200, 100, seed=3),
                    synth_low_rank(200, 100, 10, seed=3)]

        one = draws()
        monkeypatch.setattr(oracle, "_WORKERS", 3)
        _no_threads(monkeypatch)
        assert all(np.array_equal(a, b) for a, b in zip(draws(), one))

    @pytest.mark.parametrize("search", ORACLES)
    def test_one_worker_starts_no_thread(self, monkeypatch, search):
        x, k, eta = _pin_instance()
        monkeypatch.setattr(oracle, "_WORKERS", 1)
        _no_threads(monkeypatch)
        search(x, k, eta, SearchConfig(trials=5000, seed=1))

    @pytest.mark.parametrize("search", ORACLES)
    @pytest.mark.parametrize("failing", ["calling thread", "worker thread"])
    def test_failing_slice_raises_after_every_thread_ends(self, monkeypatch, search, failing):
        # With two workers, slice 0 runs on the calling thread and slice 1
        # on a worker.  The worker outlives the call, so what must have
        # ended when the exception arrives is every slice, each kept
        # running for a while so that a caller that did not wait would see it.
        caller, score = threading.get_ident(), oracle._slice_theta
        running, lock = [0], threading.Lock()

        def fails_on_one_slice(basis, x, deltas):
            with lock:
                running[0] += 1
            try:
                time.sleep(0.02)
                if (threading.get_ident() == caller) == (failing == "calling thread"):
                    raise FloatingPointError(failing)
                return score(basis, x, deltas)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(oracle, "_WORKERS", 2)
        monkeypatch.setattr(oracle, "_slice_theta", fails_on_one_slice)
        x, k, eta = _pin_instance()
        with pytest.raises(FloatingPointError, match=failing):
            search(x, k, eta, SearchConfig(trials=5000, seed=1))
        assert running[0] == 0

    def test_workers_outlive_the_call_and_hold_none_of_it(self, monkeypatch):
        # A fresh pool of two threads, once the threads of earlier tests'
        # pool have ended: the first call's slices overlap, so it starts
        # both, and no later call needs a third.
        monkeypatch.setattr(oracle, "_WORKERS", 3)
        oracle._slice_pool().shutdown()
        oracle._slice_pool.cache_clear()
        rows = np.arange(300.0)

        def slow(r):
            time.sleep(0.02)
            return r

        oracle._by_rows(slow, rows.size, rows)
        pool, started = oracle._slice_pool(), threading.active_count()
        try:
            slicers = {t for t in threading.enumerate() if t.name.startswith("pcattack-slice")}
            for _ in range(20):
                assert np.array_equal(oracle._by_rows(lambda r: 2 * r, rows.size, rows), 2 * rows)
            assert threading.active_count() == started
            assert len(slicers) >= 2 and all(t.is_alive() for t in slicers)
            # a worker drops its slice once it has run it, so the last
            # call's arrays die with the caller's reference
            last = weakref.ref(rows)
            del rows
            deadline = time.monotonic() + 5.0
            while last() is not None and time.monotonic() < deadline:
                time.sleep(0.001)
            assert last() is None
        finally:
            pool.shutdown()
            oracle._slice_pool.cache_clear()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_workers(self, monkeypatch):
        monkeypatch.setattr(oracle, "_WORKERS", 2)
        rows = np.arange(300.0)
        oracle._by_rows(lambda r: r, rows.size, rows)
        pid = os.fork()
        if pid == 0:    # the child: exit 0 once its sliced call returns
            os._exit(0 if np.array_equal(oracle._by_rows(lambda r: r + 1, rows.size, rows),
                                         rows + 1) else 1)
        deadline = time.monotonic() + 30.0
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0


def _svd_theta(basis, x, deltas):
    """Reference scorer: the top-k left singular vectors from a full SVD of
    each trial, and the cosine as the smallest singular value."""
    k = basis.shape[1]
    u_hat = np.linalg.svd(x[None, :, :] + deltas)[0][:, :, :k]
    m = np.einsum("ji,bjl->bil", basis, u_hat)
    return np.arccos(np.clip(np.linalg.svd(m, compute_uv=False)[:, -1], 0.0, 1.0))


def _near_tie_instance():
    # sigma_3 - sigma_4 = 3e-6 = 1e-6 * sigma_1.
    rng = np.random.default_rng(4)
    u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    v = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    sigma = np.array([3.0, 2.5, 2.0, 2.0 - 3e-6, 1.0, 0.5])
    return (u * sigma) @ v.T, 3, 1.5e-6


CANDIDATES = [pytest.param(operator.add, oracle._rank_one_candidates, id="rank_one"),
              pytest.param(operator.mul, oracle._dense_candidates, id="dense")]


def _both_scores(x, k, eta, width, candidates):
    d, n = x.shape
    basis = full_svd(x).u[:, :k]
    rng = np.random.Generator(np.random.PCG64(0))
    _, deltas = candidates(oracle._trial_normals(rng, 1000, width(d, n)), d, n, eta)
    return oracle._batched_theta(basis, x, deltas), _svd_theta(basis, x, deltas)


class TestBatchedTheta:
    @pytest.mark.parametrize("width, candidates", CANDIDATES)
    @pytest.mark.parametrize("d, n, k, seed", [(5, 5, 3, 1), (20, 30, 5, 2), (7, 3, 2, 3)])
    def test_matches_svd_reference(self, d, n, k, seed, width, candidates):
        got, ref = _both_scores(*_gaussian_instance(d, n, k, seed), width, candidates)
        assert np.max(np.abs(got - ref)) <= 1e-10
        assert np.argmax(got) == np.argmax(ref)

    @pytest.mark.parametrize("width, candidates", CANDIDATES)
    def test_near_tie_matches_svd_reference(self, width, candidates):
        got, ref = _both_scores(*_near_tie_instance(), width, candidates)
        assert np.max(np.abs(got - ref)) <= 1e-6


class TestVerify:
    """``verify``'s records on the instances whose printed table
    ``tests/test_cli.py`` pins: a 9x6 gaussian (seed 3) at eta = 0.3."""

    X = synth_gaussian(9, 6, seed=3)
    CFG = SearchConfig(trials=300)

    @staticmethod
    def _statuses(checks):
        return [(check.family, check.kind, check.status) for check in checks]

    def test_clean_instance_reads_ok(self):
        checks = verify(self.X, 2, 0.3, self.CFG)
        assert self._statuses(checks) == [("rank_one", "random", "ok"),
                                          ("rank_one", "grid", "ok"),
                                          ("unconstrained", "random", "ok")]
        assert [check.tol for check in checks] == [1e-4, 1e-6, 1e-4]
        assert checks[0].closed == checks[1].closed
        # the angles that test_output_is_pinned prints to 8 decimals
        assert [round(c, 8) for check in checks for c in (check.oracle, check.closed)] == [
            0.10624147, 0.18804631, 0.18804630, 0.18804631, 0.09395547, 0.23805600]
        assert all(check.reason is None for check in checks)

    def test_overshooting_oracle_is_a_violation(self, monkeypatch):
        family = experiments.ATTACKS["rank_one"]

        def overshooting_oracle(x, k, eta, cfg):
            attack, theta = family.oracle(x, k, eta, cfg)
            return attack, theta + 0.2

        monkeypatch.setitem(experiments.ATTACKS, "rank_one",
                            family._replace(oracle=overshooting_oracle))
        assert self._statuses(verify(self.X, 2, 0.3, self.CFG)) == [
            ("rank_one", "random", "VIOLATION"), ("rank_one", "grid", "ok"),
            ("unconstrained", "random", "ok")]

    def test_k_equal_n_skips_unconstrained(self):
        checks = verify(self.X, 6, 0.3, self.CFG)
        assert self._statuses(checks) == [("rank_one", "random", "ok"),
                                          ("unconstrained", None, "skipped")]
        assert checks[1] == ("unconstrained", None, None, None, None, "skipped",
                             "attack needs room at index k+1=7 in a 9x6 matrix")

    def test_every_family_skipped_raises_the_last_reason(self, monkeypatch):
        def no_room(at, eta):
            raise InvalidDimension("no room")

        monkeypatch.setitem(experiments.ATTACKS, "rank_one",
                            experiments.ATTACKS["rank_one"]._replace(closed_form=no_room))
        with pytest.raises(InvalidDimension, match="attack needs room at index k"):
            verify(self.X, 6, 0.3, self.CFG)

    def test_tied_truncation_reads_tied(self):
        checks = verify(np.diag([2.0, 2.0, 2.0]), 2, 0.0, SearchConfig(trials=64))
        assert checks and all(check.status == "tied" for check in checks), checks

    def test_cli_keeps_no_rule_of_its_own(self, monkeypatch, tmp_path, capsys):
        # a negative tolerance fails every check, and the command exits 4 on
        # the records alone
        monkeypatch.setattr(oracle, "_tolerance", lambda kind, closed, at: -1.0)
        checks = verify(self.X, 2, 0.3, self.CFG)
        assert {check.status for check in checks} == {"VIOLATION"}
        assert [check.tol for check in checks] == [-1.0] * 3
        path = tmp_path / "g.csv"
        write_matrix_csv(path, self.X)
        assert main(["verify", str(path), "--k", "2", "--eta", "0.3", "--trials", "300"]) == 4
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 3 and all(line.endswith("  VIOLATION") for line in lines), lines
