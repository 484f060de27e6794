import math

import numpy as np
import pytest
from conftest import factor_svd_shape, matrix_with_spectrum, random_basis, random_orthogonal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_principal_angles

from pcattack import (InvalidDimension, InvalidMatrix, OrthonormalBasis,
                      RankMismatch, asimov_distance, compress_rank_one_problem,
                      full_svd, leading_subspace, pca_distance, principal_angles,
                      unitary_conjugate)
from pcattack.linalg import (_tied, complement_direction, fro_norm, leading_svd, spectrum_of,
                             svd_2x2)
from pcattack.oracle import SearchConfig


class TestFullSvd:
    def test_diagonal(self):
        svd = full_svd(np.diag([3.0, 2.0]))
        assert np.allclose(svd.sigma, [3.0, 2.0])
        assert np.allclose(svd.u, np.eye(2))
        assert np.allclose(svd.v, np.eye(2))
        assert svd.rank == 2

    def test_zero_matrix(self):
        svd = full_svd(np.zeros((2, 2)))
        assert np.allclose(svd.sigma, 0.0)
        assert svd.rank == 0

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((5, 5))
        svd = full_svd(x)
        rel = np.linalg.norm(svd.reconstruct() - x) / np.linalg.norm(x)
        assert rel < 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            full_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidMatrix):
            full_svd(np.array([1.0, 2.0]))

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6))
        svd = full_svd(x)
        for i in range(4):
            col = svd.u[:, i]
            assert col[np.argmax(np.abs(col))] > 0
        rel = np.linalg.norm(svd.reconstruct() - x) / np.linalg.norm(x)
        assert rel < 1e-10

    def test_factor_orthogonality(self):
        for seed, shape in [(0, (5, 3)), (1, (3, 7)), (2, (6, 6))]:
            x = np.random.default_rng(seed).standard_normal(shape)
            svd = full_svd(x)
            p = min(shape)
            assert np.max(np.abs(svd.u.T @ svd.u - np.eye(p))) < 1e-10
            assert np.max(np.abs(svd.v.T @ svd.v - np.eye(p))) < 1e-10
            assert np.all(np.diff(svd.sigma) <= 0)


def _check_matches_full_svd(x, j, units):
    got, ref = leading_svd(x, j), full_svd(x)
    sigma = ref.sigma
    assert got.u.shape == (x.shape[0], j) and got.v.shape == (x.shape[1], j)
    assert np.max(np.abs(got.sigma - sigma)) <= 1e-13 * sigma[0]
    # each pair is determined, in sign too, to O(eps sigma_1 / its gap)
    above = np.append(np.inf, sigma[:-1] - sigma[1:])
    below = np.append(sigma[:-1] - sigma[1:], sigma[-1])
    bound = units * EPS * sigma[0] / np.minimum(above, below)[:j]
    assert np.all(np.linalg.norm(got.u - ref.u[:, :j], axis=0) <= bound)
    assert np.all(np.linalg.norm(got.v - ref.v[:, :j], axis=0) <= bound)


def _check_bit_identical(x, j):
    first, second = leading_svd(x, j), leading_svd(x, j)
    for name in ("sigma", "u", "v"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def _check_zero_matrix(shape):
    svd = leading_svd(np.zeros(shape), 3)
    assert np.all(svd.sigma == 0.0) and svd.rank == 0
    assert np.allclose(svd.u.T @ svd.u, np.eye(3))
    assert np.allclose(svd.v.T @ svd.v, np.eye(3))


class TestLeadingSvd:
    # j = 29 = min(d, n) - 1 is the most pairs the R-SVD takes
    @pytest.mark.parametrize("shape, j", [((40, 10), 4), ((100, 20), 7), ((60, 30), 29),
                                          ((60, 30), 27)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tall_matches_full_svd(self, shape, j, seed):
        # at d >= 11/6 n LAPACK's thin SVD starts with the same QR
        _check_matches_full_svd(np.random.default_rng(seed).standard_normal(shape), j, 16)

    @pytest.mark.parametrize("shape, j", [((10, 40), 4), ((20, 100), 7), ((30, 60), 29),
                                          ((20, 32), 5), ((30, 60), 27)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_matches_full_svd(self, shape, j, seed):
        # the thin SVD of a wide input takes another route, so the two differ
        # by two independent errors of O(eps sigma_1 / gap): up to 22 units on
        # 100 seeds of each shape here
        _check_matches_full_svd(np.random.default_rng(seed).standard_normal(shape), j, 32)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_rank_deficient_trailing_vector_leaves_the_range(self, seed):
        k = 4
        x = _rank_deficient(40, 10, k, seed)
        svd = leading_svd(x, k + 1)
        u_k1 = svd.u[:, k]
        assert np.linalg.norm(u_k1) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(svd.u[:, :k].T @ u_k1)) < 1e-14
        assert np.linalg.norm(x.T @ u_k1) <= 16 * EPS * svd.sigma[0]

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_wide_rank_deficient_trailing_vector_leaves_the_row_space(self, seed):
        k = 4
        x = _rank_deficient(10, 40, k, seed)
        svd = leading_svd(x, k + 1)
        v_k1 = svd.v[:, k]
        assert np.linalg.norm(v_k1) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(svd.v[:, :k].T @ v_k1)) < 1e-14
        assert np.linalg.norm(x @ v_k1) <= 16 * EPS * svd.sigma[0]

    @pytest.mark.parametrize("shape, j, rsvd", [
        ((15, 10), 4, False),       # d = 1.5n, below RSVD_ASPECT
        ((16, 10), 4, True),        # d = 1.6n
        ((16, 10), 9, True),        # j = n - 1
        ((16, 10), 10, False),      # j = n
        ((10, 15), 4, False),       # n = 1.5d
        ((10, 16), 4, True),        # n = 1.6d
        ((10, 16), 9, True),        # j = d - 1
        ((10, 16), 10, False),      # j = d
        ((32, 20), 18, True),
        ((32, 20), 19, True),       # j = n - 1
        ((20, 32), 19, True),
    ])
    def test_path_boundaries(self, svd_calls, shape, j, rsvd):
        assert (factor_svd_shape(shape, j) != shape) == rsvd
        svd = leading_svd(np.random.default_rng(3).standard_normal(shape), j)
        assert svd_calls == [(factor_svd_shape(shape, j), True)]
        assert (svd.u.shape[1], svd.v.shape[1]) == (j, j)

    def test_zero_matrix(self):
        _check_zero_matrix((40, 10))

    def test_wide_zero_matrix(self):
        _check_zero_matrix((10, 40))

    def test_bit_identical(self):
        _check_bit_identical(np.random.default_rng(9).standard_normal((50, 12)), 5)

    def test_wide_bit_identical(self):
        _check_bit_identical(np.random.default_rng(9).standard_normal((12, 50)), 5)

    @pytest.mark.parametrize("j", [-1, 0, 12])
    def test_rejects_j_outside_1_to_p(self, j):
        with pytest.raises(InvalidDimension, match="min\\(d, n\\)=10"):
            leading_svd(np.random.default_rng(5).standard_normal((40, 10)), j)

    def test_reconstruct_is_the_rank_j_truncation(self):
        x = np.random.default_rng(4).standard_normal((30, 8))
        full = full_svd(x)
        assert np.linalg.norm(full.reconstruct() - x) <= 1e-13 * np.linalg.norm(x)
        truncation = (full.u[:, :3] * full.sigma[:3]) @ full.v[:, :3].T
        assert np.allclose(leading_svd(x, 3).reconstruct(), truncation, rtol=0.0, atol=1e-12)


EPS = np.finfo(float).eps
# zero, or at least 1e-8 in magnitude, so that no scaled entry is subnormal
_UNIT = st.one_of(st.just(0.0), st.floats(1e-8, 1.0), st.floats(-1.0, -1e-8))


@st.composite
def _two_by_two(draw):
    """Entries ``(a, b, c, d)`` of a 2x2 matrix at a scale from 1e-150 to
    1e150: random, diagonal, near-tied (a rotation plus a relative
    perturbation down to 1e-15) or zero."""
    kind = draw(st.sampled_from(["random", "diagonal", "near-tied", "zero"]))
    a, b, c, d = (draw(_UNIT) for _ in range(4))
    if kind == "diagonal":
        b = c = 0.0
    elif kind == "near-tied":
        t = draw(st.floats(0.0, 2.0 * math.pi))
        tilt = 10.0 ** -draw(st.integers(1, 15))
        a, b, c, d = (math.cos(t) + tilt * a, -math.sin(t) + tilt * b,
                      math.sin(t) + tilt * c, math.cos(t) + tilt * d)
    elif kind == "zero":
        a = b = c = d = 0.0
    scale = 10.0 ** draw(st.integers(-150, 150))
    return scale * a, scale * b, scale * c, scale * d


def _leading_sine(w, u):
    """The sine of the angle between unit 2-vectors ``w`` and ``u``."""
    return abs(w[0] * u[1] - w[1] * u[0])


def _svd_2x2_reference(a, b, c, d):
    """``(s_1, s_2, (u_1, u_2))`` of ``[[a, b], [c, d]]`` in 40-digit arithmetic,
    ``u`` its leading left singular vector."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    u, s, _ = mp.svd_r(mp.matrix([[a, b], [c, d]]))
    return float(s[0]), float(s[1]), (float(u[0, 0]), float(u[1, 0]))


@settings(max_examples=400, deadline=None, derandomize=True)
@example((1.0, 0.0, -7.421875e-15, 1.0))
@given(_two_by_two())
def test_svd_2x2_matches_mpmath(entries):
    # The closed form errs by ~1 eps s_1 in the singular values and ~1.5 eps
    # s_1 / (s_1 - s_2) in the leading vector (test_svd_2x2_against_mpmath);
    # the bounds leave room.  The explicit example is one on which LAPACK's
    # own s_1 is 17 eps off, so LAPACK cannot be the reference.
    s_1, s_2, w_1, w_2 = svd_2x2(*entries)
    ref_1, ref_2, leading = _svd_2x2_reference(*entries)
    assert s_1 >= s_2 >= 0.0
    assert abs(s_1 - ref_1) <= 16 * EPS * ref_1
    assert abs(s_2 - ref_2) <= 16 * EPS * ref_1
    assert math.hypot(w_1, w_2) == pytest.approx(1.0, abs=4 * EPS)
    if ref_1 > ref_2:
        assert _leading_sine((w_1, w_2), leading) <= 32 * EPS / (1.0 - ref_2 / ref_1)


def test_svd_2x2_against_mpmath():
    rng = np.random.default_rng(5)
    for i in range(300):
        a, b, c, d = rng.uniform(-1.0, 1.0, 4)
        if i % 2:       # near-tied: a rotation plus a relative tilt down to 1e-15
            t, tilt = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** -(1 + i % 15)
            a, b, c, d = (math.cos(t) + tilt * a, -math.sin(t) + tilt * b,
                          math.sin(t) + tilt * c, math.cos(t) + tilt * d)
        s_1, s_2, w_1, w_2 = svd_2x2(a, b, c, d)
        ref_1, ref_2, leading = _svd_2x2_reference(a, b, c, d)
        assert abs(s_1 - ref_1) <= 2 * EPS * ref_1
        assert abs(s_2 - ref_2) <= 2 * EPS * ref_1
        if ref_1 > ref_2:
            assert _leading_sine((w_1, w_2), leading) <= 3 * EPS / (1.0 - ref_2 / ref_1)


@pytest.mark.parametrize("c", [1e-160, 1e-100, 1.0, 1e100, 1e155, 1e300])
def test_fro_norm_at_any_scale(c):
    m = np.array([[3.0, 0.0], [4.0, 12.0]])
    assert fro_norm(c * m) == pytest.approx(13.0 * c, rel=4 * EPS)
    assert fro_norm(np.zeros((2, 3))) == 0.0


def overflowing(shape):
    """A finite matrix whose sigma_1 exceeds the float64 range: a first column
    of +-1.5e308 (each entry finite, the column's norm not)."""
    x = np.random.default_rng(0).standard_normal(shape)
    x[:, 0] = 1.5e308 * np.where(np.arange(shape[0]) % 2, 1.0, -1.0)
    return x


SIGMA_OVERFLOW = "largest singular value exceeds the float64 range"


class TestSigmaOverflow:
    # each SVD route: a values-only SVD, a thin SVD, and the SVD of a QR's
    # triangle, which holds inf or nan (tall) or is finite with an infinite
    # sigma_1 (wide)
    def test_spectrum_of(self):
        with pytest.raises(InvalidMatrix, match=SIGMA_OVERFLOW):
            spectrum_of(overflowing((20, 5)))

    @pytest.mark.parametrize("shape, j", [((20, 5), 2), ((20, 5), 5), ((6, 5), 2), ((5, 20), 2)])
    def test_leading_svd(self, shape, j):
        with pytest.raises(InvalidMatrix, match=SIGMA_OVERFLOW):
            leading_svd(overflowing(shape), j)

    @pytest.mark.parametrize("k", [2, 5])
    def test_leading_subspace(self, k):
        with pytest.raises(InvalidMatrix, match=SIGMA_OVERFLOW):
            leading_subspace(overflowing((20, 5)), k)

    def test_sigma_1_near_the_top_of_the_range_is_finite(self):
        x = np.zeros((4, 3))
        x[:3, :3] = np.diag([1e308, 1e307, 1e306])
        for m in (x, x.T):
            for sigma in (spectrum_of(m).sigma, leading_svd(m, 2).sigma):
                assert sigma == pytest.approx([1e308, 1e307, 1e306], rel=1e-15)


class TestComplementDirection:
    def test_unit_and_orthogonal(self):
        rng = np.random.default_rng(6)
        eye = np.eye(6)
        # random columns, and columns that contain coordinate axes
        for u in (random_basis(rng, 6, 3), random_basis(rng, 200, 40),
                  eye[:, :5], eye[:, [0, 2, 4]] @ random_orthogonal(rng, 3)):
            w = complement_direction(u)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(u.T @ w)) < 1e-14

    def test_deterministic(self):
        u = random_basis(np.random.default_rng(8), 9, 4)
        assert np.array_equal(complement_direction(u), complement_direction(u))


class TestLeadingSubspace:
    def test_diagonal(self):
        basis = leading_subspace(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(np.abs(basis.columns), np.eye(3)[:, :2])
        assert not basis.ambiguous

    def test_rotated_diagonal(self):
        rng = np.random.default_rng(3)
        q = random_orthogonal(rng, 3)
        x = q @ np.diag([3.0, 2.0, 1.0])
        basis = leading_subspace(x, 1)
        ref = full_svd(x).u[:, :1]
        assert np.allclose(np.abs(basis.columns.T @ q[:, :1]), 1.0, atol=1e-12)
        assert np.allclose(basis.columns, ref)

    def test_tied_spectrum_flagged(self):
        assert leading_subspace(np.eye(3), 2).ambiguous
        assert not leading_subspace(np.diag([3.0, 2.0, 1.0]), 2).ambiguous

    def test_k_out_of_range(self):
        with pytest.raises(InvalidDimension):
            leading_subspace(np.diag([3.0, 2.0]), 3)
        with pytest.raises(InvalidDimension):
            leading_subspace(np.diag([3.0, 2.0]), 0)

    def test_tall_matrix_zero_tail_flagged(self):
        # d > n and sigma_n = 0: the trailing implicit zeros tie with sigma_n.
        x = np.zeros((4, 2))
        x[0, 0] = 1.0
        assert leading_subspace(x, 2).ambiguous


def _rank_deficient(d, n, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))


# (matrix, k): tall inputs with d >= 2n at k < n (R-SVD) and k = n (thin SVD),
# a near-square tall one at k < n and k = n (thin SVD), rank-deficient tall
# ones at k = rank and above it, the zero matrix, and sigma_k = 1e-8 sigma_1.
REFERENCE_CASES = {
    "d>=2n-k<n": (np.random.default_rng(1).standard_normal((40, 10)), 3),
    "d>=2n-k=n": (np.random.default_rng(2).standard_normal((40, 10)), 10),
    "near-square-k<n": (np.random.default_rng(3).standard_normal((15, 10)), 3),
    "near-square-k=n": (np.random.default_rng(4).standard_normal((12, 10)), 10),
    "rank-deficient-k=rank": (_rank_deficient(40, 10, 4, seed=5), 4),
    "rank-deficient-k>rank": (_rank_deficient(40, 10, 4, seed=6), 6),
    "rank-deficient-k=n": (_rank_deficient(40, 10, 4, seed=7), 10),
    "zero-k<n": (np.zeros((40, 10)), 3),
    "zero-k=n": (np.zeros((40, 10)), 10),
    "sigma_k=1e-8": (matrix_with_spectrum([1.0, 0.5, 1e-8, 1e-9], 40, 10, seed=8), 3),
}


@pytest.mark.parametrize("m, k", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_leading_subspace_matches_dense_svd(m, k):
    # the reference basis comes straight from a dense SVD; the largest angle
    # is read from its sine, which keeps its accuracy near 0
    u, sigma, _ = np.linalg.svd(m, full_matrices=False)
    basis = leading_subspace(m, k)
    assert np.all(np.isfinite(basis.columns))
    assert basis.ambiguous == _tied(full_svd(m).sigma, k, m.shape[0])
    ref = u[:, :k]
    sine = np.linalg.norm(basis.columns - ref @ (ref.T @ basis.columns), 2)
    angle = np.arcsin(min(sine, 1.0))
    gap = sigma[k - 1] - (sigma[k] if k < sigma.size else 0.0)
    eps = np.finfo(float).eps
    bound = 1e-12 if gap >= 1e-3 * sigma[0] else 100 * eps * sigma[0] / max(gap, 1e-300)
    assert angle <= bound, (angle, bound)


class TestPrincipalAngles:
    def test_identical(self):
        rng = np.random.default_rng(0)
        b = random_basis(rng, 5, 2)
        assert np.allclose(principal_angles(b, b), 0.0, atol=1e-7)

    def test_partial_overlap(self):
        e = np.eye(3)
        angles = principal_angles(e[:, [0, 1]], e[:, [0, 2]])
        assert np.allclose(angles, [0.0, np.pi / 2])

    def test_matches_recursive_definition(self):
        cfg = SearchConfig(trials=1, seed=0, grid_resolution=200, refine_steps=4)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = random_basis(rng, 5, 2)
            b = random_basis(rng, 5, 2)
            ref = brute_force_principal_angles(a, b, cfg)
            assert np.max(np.abs(principal_angles(a, b) - ref)) < 1e-6

    def test_dimension_mismatch(self):
        e = np.eye(4)
        with pytest.raises(InvalidDimension):
            principal_angles(e[:, :2], e[:, :3])
        with pytest.raises(InvalidDimension):
            principal_angles(np.eye(3)[:, :2], np.eye(4)[:, :2])


class TestPcaDistance:
    def test_different_ambient_dimension(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InvalidDimension, match="ambient dimensions differ: 8 vs 9"):
            pca_distance(rng.standard_normal((8, 5)), rng.standard_normal((9, 5)), 2)

    @pytest.mark.parametrize("shape, k", [((30, 8), 3), ((8, 30), 3), ((30, 8), 8)])
    def test_matches_the_distance_of_the_leading_subspaces(self, shape, k):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape)
        y = x + 0.1 * rng.standard_normal(shape)
        theta, ambiguous = pca_distance(x, y, k)
        assert not ambiguous
        ref = asimov_distance(leading_subspace(x, k), leading_subspace(y, k))
        assert theta == pytest.approx(ref, rel=1e-12)


class TestAsimovDistance:
    def test_identical(self):
        b = random_basis(np.random.default_rng(1), 4, 2)
        assert asimov_distance(b, b) < 1e-7

    def test_orthogonal_lines(self):
        e = np.eye(3)
        assert asimov_distance(e[:, [0]], e[:, [1]]) == pytest.approx(np.pi / 2)

    def test_known_rotation(self):
        for phi in [0.1, 0.4, 1.2, 1.5]:
            b1 = np.eye(4)[:, [0]]
            b2 = np.array([[np.cos(phi)], [np.sin(phi)], [0.0], [0.0]])
            assert asimov_distance(b1, b2) == pytest.approx(phi, abs=1e-12)

    # angles on both sides of pi/4, and for asimov_distance on both sides of
    # sin = 1/4: (0.2,) * 4 has squared sines summing past 1/16 with every
    # sine below 1/4, so its cosines are taken and not used
    @pytest.mark.parametrize("phi", [(1e-12,), (0.0, 0.0, 1e-9), (1e-12, 1e-6, 0.3, 1.2),
                                     (0.2,) * 4, (0.3,), (0.0, np.pi / 2), (0.7, 0.9)])
    def test_small_angles_keep_their_relative_accuracy(self, phi):
        # b_i = cos(phi_i) e_i + sin(phi_i) e_{k+i}, both bases rotated at random
        k = len(phi)
        p = random_orthogonal(np.random.default_rng(k), 2 * k + 1)
        a = p[:, :k]
        b = a * np.cos(phi) + p[:, k:2 * k] * np.sin(phi)
        want = np.sort(phi)
        assert np.allclose(principal_angles(a, b), want, rtol=1e-12, atol=1e-15)
        assert asimov_distance(a, b) == pytest.approx(want[-1], rel=1e-12, abs=1e-15)


class TestCompression:
    def test_identity_when_already_compressed(self):
        x = np.diag([3.0, 2.0, 0.0, 0.0])[:, :3]  # 4x3, rank 2
        svd = full_svd(x)
        a = svd.u @ np.array([0.5, -0.2, 0.7])
        b = svd.v @ np.array([0.1, 0.3, -0.4])
        _, a_c, b_c = compress_rank_one_problem(x, 2, a, b)
        assert np.allclose(a_c, [0.5, -0.2, 0.7], atol=1e-12)
        assert np.allclose(b_c, [0.1, 0.3, -0.4], atol=1e-12)

    def test_preserves_distance(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            k = 2
            x = rng.standard_normal((6, k)) @ rng.standard_normal((k, 8))
            a = rng.standard_normal(6)
            b = rng.standard_normal(8)
            sigma_tilde, a_c, b_c = compress_rank_one_problem(x, k, a, b)
            lhs, _ = pca_distance(x, x + np.outer(a, b), k)
            rhs, _ = pca_distance(sigma_tilde, sigma_tilde + np.outer(a_c, b_c), k)
            assert abs(lhs - rhs) < 1e-8

    def test_zero_tail(self):
        x = np.diag([3.0, 2.0, 0.0])
        svd = full_svd(x)
        b = svd.v[:, 0]  # no component beyond the first k coordinates
        a = np.array([1.0, 2.0, 3.0])
        _, _, b_c = compress_rank_one_problem(x, 2, a, b)
        assert b_c[-1] == pytest.approx(0.0, abs=1e-12)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            compress_rank_one_problem(np.diag([3.0, 2.0, 1.0]), 2,
                                      np.ones(3), np.ones(3))


class TestUnitaryConjugate:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(unitary_conjugate(x, np.eye(2), np.eye(3)), x)

    def test_distance_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 5))
        y = rng.standard_normal((5, 5))
        p = random_orthogonal(rng, 5)
        t = random_orthogonal(rng, 5)
        ref, _ = pca_distance(x, y, 2)
        rot, _ = pca_distance(unitary_conjugate(x, p, t), unitary_conjugate(y, p, t), 2)
        assert abs(ref - rot) < 1e-8

    def test_permutation(self):
        perm = np.eye(3)[:, [2, 0, 1]]
        x = np.diag([1.0, 2.0, 3.0])
        out = unitary_conjugate(x, perm, perm)
        assert np.allclose(out, perm @ x @ perm.T)

    def test_rejects_nonorthogonal(self):
        with pytest.raises(InvalidMatrix):
            unitary_conjugate(np.eye(2), np.array([[1.0, 0.0], [1.0, 1.0]]), np.eye(2))


class TestInvariants:
    def test_symmetry(self):
        # Mathematically exact; numerically the two SVDs agree to the ulp.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = random_basis(rng, 6, 3)
            b = random_basis(rng, 6, 3)
            assert abs(asimov_distance(a, b) - asimov_distance(b, a)) < 1e-14

    def test_angle_ranges(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 4))
            a = random_basis(rng, 6, k)
            b = random_basis(rng, 6, k)
            angles = principal_angles(a, b)
            assert np.all(angles >= 0.0) and np.all(angles <= np.pi / 2)
            assert np.all(np.diff(angles) >= 0.0)

    def test_unitary_invariance(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((4, 5))
            y = rng.standard_normal((4, 5))
            p = random_orthogonal(rng, 4)
            t = random_orthogonal(rng, 5)
            ref, _ = pca_distance(x, y, 2)
            rot, _ = pca_distance(p @ x @ t.T, p @ y @ t.T, 2)
            assert abs(ref - rot) < 1e-8

    def test_reconstruction(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            x = rng.standard_normal((d, n))
            svd = full_svd(x)
            assert np.linalg.norm(svd.reconstruct() - x) / np.linalg.norm(x) < 1e-10

    def test_basis_invariance(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = random_basis(rng, 5, 2)
            b = random_basis(rng, 5, 2)
            q = random_orthogonal(rng, 2)
            ref = principal_angles(a, b)
            rot = principal_angles(OrthonormalBasis(a @ q), b)
            assert np.max(np.abs(ref - rot)) < 1e-10

    def test_spectrum_construction_helper(self):
        x = matrix_with_spectrum([3.0, 2.0, 1.0], 5, 6, seed=4)
        assert np.allclose(full_svd(x).sigma[:3], [3.0, 2.0, 1.0])
