import math

import numpy as np
import pytest
from conftest import (factor_call, matrix_with_spectrum, random_basis, random_orthogonal,
                      re_pca_calls)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (RankMismatch, brute_force_principal_angles, compress_rank_one_problem,
                     reconstruct)

from pcattack import (InvalidDimension, InvalidMatrix, OrthonormalBasis, asimov_distance,
                      attack_rank_one, full_svd, leading_subspace, pca_distance,
                      principal_angles, synth_gaussian, synth_low_rank, unitary_conjugate)
from pcattack.linalg import (GRAM_BLOCK, UNIT_BAND, _gram_certificate, _pca_distance_from_svd,
                             _tied, as_matrix, complement_direction, fro_norm, leading_svd,
                             spectrum_of, svd_2x2)
from pcattack.oracle import SearchConfig


# each non-finite value at the first, a middle and the last entry of a 4x3
# matrix, and nan and inf together
NONFINITE = {f"{name}-{where}": [(index, value)]
             for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))
             for where, index in (("first", (0, 0)), ("middle", (2, 1)), ("last", (3, 2)))}
NONFINITE["nan-and-inf"] = [((1, 0), np.nan), ((2, 2), np.inf)]
NONFINITE_READERS = {
    "as_matrix": as_matrix,
    "full_svd": full_svd,
    "spectrum_of": spectrum_of,
    "leading_svd": lambda m: leading_svd(m, 2),
    "pca_distance-y": lambda m: pca_distance(np.arange(1.0, 13.0).reshape(4, 3), m, 2),
}


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
        rel = np.linalg.norm(reconstruct(svd) - x) / np.linalg.norm(x)
        assert rel < 1e-10

    @pytest.mark.parametrize("read", NONFINITE_READERS.values(), ids=NONFINITE_READERS.keys())
    @pytest.mark.parametrize("entries", NONFINITE.values(), ids=NONFINITE.keys())
    def test_rejects_nonfinite(self, entries, read):
        m = np.arange(1.0, 13.0).reshape(4, 3)
        for index, value in entries:
            m[index] = value
        with pytest.raises(InvalidMatrix, match="matrix entries must be finite"):
            read(m)

    def test_rejects_a_vector(self):
        with pytest.raises(InvalidMatrix, match="expected a nonempty 2-D matrix"):
            full_svd(np.array([1.0, 2.0]))

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6))
        svd = full_svd(x)
        for i in range(4):
            col = svd.u[:, i]
            assert col[np.argmax(np.abs(col))] > 0
        rel = np.linalg.norm(reconstruct(svd) - x) / np.linalg.norm(x)
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
        assert (factor_call(shape, j)[0] != shape) == rsvd
        svd = leading_svd(np.random.default_rng(3).standard_normal(shape), j)
        assert svd_calls == [factor_call(shape, j)]
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
        assert np.linalg.norm(reconstruct(full) - x) <= 1e-13 * np.linalg.norm(x)
        truncation = (full.u[:, :3] * full.sigma[:3]) @ full.v[:, :3].T
        assert np.allclose(reconstruct(leading_svd(x, 3)), truncation, rtol=0.0, atol=1e-12)


# condition 300, with sigma_7 = sigma_1 / 60 above the Gram route's separation
# of sigma_1 / 64 and sigma_8 = sigma_1 / 70 below it
NEAR_SEPARATION = np.concatenate((np.geomspace(1.0, 1.0 / 60.0, 7),
                                  np.geomspace(1.0 / 70.0, 1.0 / 300.0, 3)))
# (make, j, eigh, rank): each fails the Gram route's condition (1), which
# declines before the eigh, or only (2), which declines after it (eigh True);
# the R-SVD of the rank-4 one runs on the triangle's leading j = 5 rows
DECLINED = {
    "rank-4": (lambda shape, seed: _rank_deficient(*shape, 4, seed), 5, False, 4),
    "condition-2000": (lambda shape, seed: matrix_with_spectrum(
        np.geomspace(1.0, 1.0 / 2000.0, 10), *shape, seed=seed), 4, False, None),
    "sigma_j-below-1/64": (lambda shape, seed: matrix_with_spectrum(
        NEAR_SEPARATION, *shape, seed=seed), 8, True, None),
}
# (make, j): each clears both conditions, by 1.1-1.5x in (1) at condition 700
# and by 1.14x in (2)
NEAR_LIMITS = {
    "condition-700": (lambda shape, seed: matrix_with_spectrum(
        np.geomspace(1.0, 1.0 / 700.0, 10), *shape, seed=seed), 4),
    "sigma_j-at-1/60": (lambda shape, seed: matrix_with_spectrum(
        NEAR_SEPARATION, *shape, seed=seed), 7),
}


def _check_gram_pairs(x, j, units):
    """``leading_svd(x, j)`` against ``full_svd(x)``: sigma_1 .. sigma_{j+1}
    within 1e-13 sigma_1, the rest within 2^10 eps sigma_1, and each pair
    within ``units`` eps sigma_1 / its gap, as in ``_check_matches_full_svd``."""
    got, ref = leading_svd(x, j), full_svd(x)
    sigma = ref.sigma
    error = np.abs(got.sigma - sigma)
    assert np.max(error[:j + 1]) <= 1e-13 * sigma[0]
    assert np.max(error[j + 1:]) <= 2.0**10 * EPS * sigma[0]
    assert np.all(np.diff(got.sigma) <= 0.0)
    above = np.append(np.inf, sigma[:-1] - sigma[1:])
    below = np.append(sigma[:-1] - sigma[1:], sigma[-1])
    # a pair in a null space whose values tie exactly has no bound
    with np.errstate(divide="ignore"):
        bound = units * EPS * sigma[0] / np.minimum(above, below)[:j]
    assert np.all(np.linalg.norm(got.u - ref.u[:, :j], axis=0) <= bound)
    assert np.all(np.linalg.norm(got.v - ref.v[:, :j], axis=0) <= bound)


class TestGramRoute:
    @pytest.mark.parametrize("shape", [(40, 10), (10, 40)], ids=["tall", "wide"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", DECLINED)
    def test_declined_input_takes_the_r_svd(self, svd_calls, kind, seed, shape):
        make, j, eigh, rank = DECLINED[kind]
        leading_svd(make(shape, seed), j)
        assert svd_calls == ([factor_call(shape, j)] * eigh
                             + [factor_call(shape, j, gram=False, rank=rank)])

    @pytest.mark.parametrize("shape", [(40, 10), (10, 40)], ids=["tall", "wide"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", NEAR_LIMITS)
    def test_accepted_near_either_limit_matches_full_svd(self, svd_calls, kind, seed, shape):
        make, j = NEAR_LIMITS[kind]
        x = make(shape, seed)
        leading_svd(x, j)
        assert svd_calls == [factor_call(shape, j)]
        # a wide input's thin SVD takes another route (test_wide_matches_full_svd)
        _check_gram_pairs(x, j, 16 if shape[0] > shape[1] else 32)

    @pytest.mark.parametrize("shape", [(40, 10), (10, 40)], ids=["tall", "wide"])
    def test_bit_identical_at_every_power_of_two_scale(self, svd_calls, shape):
        # the Gram is formed in the unit of the largest entry, so 2^e x gives
        # the same vectors and 2^e times the singular values, from one eigh a
        # scale
        x = np.random.default_rng(4).standard_normal(shape)
        ref = leading_svd(x, 3)
        for e in (-900, -600, 600, 1015):
            got = leading_svd(np.ldexp(x, e), 3)
            assert np.array_equal(got.sigma, np.ldexp(ref.sigma, e)), e
            assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v), e
        assert svd_calls == [factor_call(shape, 3)] * 5

    @pytest.mark.parametrize("shape", [(40, 10), (10, 40)], ids=["tall", "wide"])
    def test_tied_trailing_values_stay_nonincreasing(self, svd_calls, shape):
        # sigma_3 .. sigma_10 tied at 1: sigma_3 is a column norm and sigma_4
        # the root of an eigenvalue, and in about half of these inputs the
        # latter rounds above the former, so the route must order them
        for seed in range(8):
            x = matrix_with_spectrum(np.concatenate(([3.0, 2.0], np.ones(8))), *shape, seed=seed)
            svd = leading_svd(x, 2)
            assert np.all(np.diff(svd.sigma) <= 0.0), seed
            assert np.max(np.abs(svd.sigma - full_svd(x).sigma)) <= 2.0**10 * EPS * 3.0
        assert svd_calls == [factor_call(shape, 2), (shape, True)] * 8

    @pytest.mark.parametrize("shape", [(40, 10), (10, 40)], ids=["tall", "wide"])
    def test_sigma_1_past_the_float64_range(self, svd_calls, shape):
        x = np.random.default_rng(4).standard_normal(shape)
        with pytest.raises(InvalidMatrix, match=SIGMA_OVERFLOW):
            leading_svd(x * (1.5e308 / np.abs(x).max()), 3)
        # the Gram route scales back from its own unit and raises there
        assert svd_calls == [factor_call(shape, 3)]


class TestGramCertificate:
    def test_rank_below_the_block_declines(self):
        assert _gram_certificate(synth_low_rank(120, 72, GRAM_BLOCK - 2, seed=1)) is None

    # the largest |entry| of synth_gaussian(120, 72, seed=1) has the
    # exponent 3, so each of these scales keeps it inside the band
    @pytest.mark.parametrize("e", [3 - UNIT_BAND, -100, 0, 100, UNIT_BAND - 3])
    def test_in_band_gram_is_that_of_the_matrix_as_given(self, e):
        # no unit of its own: G = a^T a, which at any other scale in the band
        # is 4^e times the same bits, and the decision is the same
        a = synth_gaussian(120, 72, seed=1)
        g = _gram_certificate(np.ldexp(a, e))
        assert np.array_equal(g, np.ldexp(a, e).T @ np.ldexp(a, e))
        assert np.array_equal(g, np.ldexp(_gram_certificate(a), 2 * e))
        low_rank = synth_low_rank(120, 72, GRAM_BLOCK - 2, seed=1)
        assert _gram_certificate(np.ldexp(low_rank, e)) is None
        assert _gram_certificate(np.ldexp(low_rank[:, :GRAM_BLOCK], e)) is None

    def test_a_declined_leading_block_proves_that_the_whole_declines(self):
        # ranks about the block's width, and the full rank p, each with
        # sigma_rank / sigma_1 from 2^-12 to 2^-8 (about the 2^-10 the
        # certificate proves); a wide input is tested transposed, as
        # _factor tests it
        outcomes = []
        for rank in [*range(GRAM_BLOCK - 2, GRAM_BLOCK + 5), 72]:
            for i, ratio in enumerate(np.geomspace(2.0**-12, 2.0**-8, 7)):
                sigma = np.geomspace(1.0, ratio, rank)
                for a in (matrix_with_spectrum(sigma, 120, 72, seed=100 * rank + i),
                          matrix_with_spectrum(sigma, 72, 120, seed=100 * rank + i).T):
                    block = _gram_certificate(a[:, :GRAM_BLOCK]) is not None
                    whole = _gram_certificate(a) is not None
                    assert block or not whole, (rank, ratio)
                    outcomes.append((block, whole))
        assert len(outcomes) >= 100
        # every combination that the implication allows occurs
        assert set(outcomes) == {(False, False), (True, False), (True, True)}


def _with_dud_columns(x):
    """``x`` with its first 5 columns zero or copies of later ones.  Its rank
    is unchanged, but each such column leaves a row of the triangle of a QR
    that is not null, so the null rows start 5 rows past the rank."""
    x = x.copy()
    x[:, [0, 2]] = 0.0
    x[:, [1, 3, 4]] = x[:, [6, 7, 6]]
    return x


# (make, rank, rows): tall 120x72 inputs of rank below p = 72, and the row of
# the triangle of their QR from which its rows are null; a wide input is the
# transpose of a tall one, so that its first rows are the dud ones
NULL_ROW_INPUTS = {
    "rank-1": (lambda seed: _rank_deficient(120, 72, 1, seed), 1, 1),
    "rank-8": (lambda seed: _rank_deficient(120, 72, 8, seed), 8, 8),
    "rank-block+4": (lambda seed: _rank_deficient(120, 72, GRAM_BLOCK + 4, seed),
                     GRAM_BLOCK + 4, GRAM_BLOCK + 4),
    "rank-8-dud-columns": (lambda seed: _with_dud_columns(_rank_deficient(120, 72, 8, seed)),
                           8, 13),
}


def _null_row_input(kind, seed, wide):
    make, rank, rows = NULL_ROW_INPUTS[kind]
    x = make(seed)
    return (x.T if wide else x), rank, rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
class TestNullRows:
    # the R-SVD of a rank-deficient input takes the SVD of the leading rows of
    # its triangle alone, and only where the rest are null
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["j=rank-1", "j=rank", "j=rank+1"])
    @pytest.mark.parametrize("kind", NULL_ROW_INPUTS)
    def test_cut_matches_full_svd(self, svd_calls, kind, offset, seed, wide):
        x, rank, rows = _null_row_input(kind, seed, wide)
        j = max(1, rank + offset)
        svd = leading_svd(x, j)
        assert svd_calls == [((max(j, rows), 72), True)]
        if rows == rank:
            assert svd_calls == [factor_call(x.shape, j, gram=False, rank=rank)]
        assert svd.rank == rank and np.all(svd.sigma[max(j, rows):] == 0.0)
        _check_gram_pairs(x, j, 32 if wide else 16)

    @pytest.mark.parametrize("kind", NULL_ROW_INPUTS)
    def test_bit_identical_at_every_power_of_two_scale(self, svd_calls, kind, wide):
        x, rank, rows = _null_row_input(kind, 3, wide)
        ref = leading_svd(x, rank + 1)
        for e in (-900, 600, 1015):
            got = leading_svd(np.ldexp(x, e), rank + 1)
            assert np.array_equal(got.sigma, np.ldexp(ref.sigma, e)), e
            assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v), e
        assert svd_calls == [((max(rank + 1, rows), 72), True)] * 4

    @pytest.mark.parametrize("j", [4, 8])
    def test_trailing_values_at_1e_11_decline_the_cut(self, svd_calls, j, wide):
        # sigma_9 .. sigma_72 at 1e-11 sigma_1: numerical rank 8, but the last
        # row of the triangle is at least sigma_72, above 2^-40 sigma_1
        sigma = np.concatenate((np.geomspace(1.0, 0.1, 8), np.full(64, 1e-11)))
        x = matrix_with_spectrum(sigma, 120, 72, seed=5)
        x = x.T if wide else x
        svd = leading_svd(x, j)
        assert svd_calls == [factor_call(x.shape, j, gram=False)] == [((72, 72), True)]
        assert svd.rank == 8 and np.all(svd.sigma[8:] > 0.0)
        _check_gram_pairs(x, j, 32 if wide else 16)

    @pytest.mark.parametrize("kind", NULL_ROW_INPUTS)
    def test_entries_below_1e_300(self, svd_calls, kind, wide):
        x, rank, rows = _null_row_input(kind, 4, wide)
        x = np.ldexp(x, -1000 - math.frexp(np.abs(x).max())[1])
        assert np.abs(x).max() < 1e-300
        leading_svd(x, rank + 1)
        assert svd_calls == [((max(rank + 1, rows), 72), True)]
        _check_gram_pairs(x, rank + 1, 32 if wide else 16)


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


def _exponent(x):
    """The exponent ``s`` of the largest |entry| of ``x``, in [2^(s-1), 2^s)."""
    return math.frexp(float(np.abs(x).max()))[1]


def _at_exponent(x, s):
    """``x`` times the power of two that puts its largest |entry| in [2^(s-1), 2^s)."""
    return np.ldexp(x, s - _exponent(x))


@pytest.fixture
def scalings(monkeypatch):
    """The shape of each matrix that ``np.ldexp`` scales, in call order."""
    shapes = []
    ldexp = np.ldexp

    def recording(x, *args, **kwargs):
        if np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return ldexp(x, *args, **kwargs)

    monkeypatch.setattr(np, "ldexp", recording)
    return shapes


def _assert_scaled(got, ref, e):
    """``got`` is the factor ``ref`` of a matrix 2^-e times got's, bit for bit."""
    assert np.array_equal(got.sigma, np.ldexp(ref.sigma, e))
    assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v)


# edge: (s, scaled): a largest |entry| at the exponent s = +-UNIT_BAND is
# factored as given, and one just past either edge in the unit of that entry
EDGES = {"top": (UNIT_BAND, False), "past-top": (UNIT_BAND + 1, True),
         "bottom": (-UNIT_BAND, False), "past-bottom": (-UNIT_BAND - 1, True)}
# (shape, j): the Gram route, tall and wide and with p past GRAM_BLOCK, and a
# thin SVD at j < p and j = p
FACTORS = {"gram-tall": ((40, 10), 3), "gram-wide": ((10, 40), 3),
           "gram-block": ((120, GRAM_BLOCK + 8), 3), "thin": ((12, 10), 3),
           "thin-j=p": ((40, 10), 10)}


@pytest.mark.parametrize("edge", EDGES)
class TestUnitBand:
    # at either edge of the band and just past it, every route gives the
    # bits of the matrix at unit scale, and only _in_unit scales a matrix:
    # once past the band, never inside it
    @pytest.mark.parametrize("kind", FACTORS)
    def test_factor(self, svd_calls, scalings, kind, edge):
        (shape, j), (s, scaled) = FACTORS[kind], EDGES[edge]
        x = synth_gaussian(*shape, seed=2)
        ref, scaled_x = leading_svd(x, j), _at_exponent(x, s)
        svd_calls.clear()
        scalings.clear()
        got = leading_svd(scaled_x, j)
        assert scalings == [shape] * scaled
        assert svd_calls == [factor_call(shape, j)]
        _assert_scaled(got, ref, s - _exponent(x))

    def test_r_svd_factor(self, svd_calls, scalings, edge):
        s, scaled = EDGES[edge]
        x = matrix_with_spectrum([3.0, 2.0, 1.0], 40, 10, seed=1)
        ref, scaled_x = leading_svd(x, 2), _at_exponent(x, s)
        svd_calls.clear()
        scalings.clear()
        got = leading_svd(scaled_x, 2)
        assert scalings == [(40, 10)] * scaled
        assert svd_calls == [factor_call((40, 10), 2, gram=False, rank=3)] == [((3, 10), True)]
        _assert_scaled(got, ref, s - _exponent(x))

    def test_spectrum_of(self, scalings, edge):
        s, scaled = EDGES[edge]
        x = synth_gaussian(12, 10, seed=2)
        scaled_x = _at_exponent(x, s)
        scalings.clear()
        got = spectrum_of(scaled_x).sigma
        assert scalings == [(12, 10)] * scaled
        assert np.array_equal(got, np.ldexp(spectrum_of(x).sigma, s - _exponent(x)))

    @pytest.mark.parametrize("tied", [False, True], ids=["certified", "tied"])
    def test_k_equals_n_re_pca(self, svd_calls, scalings, edge, tied):
        # y's triangle certified untied, which runs no SVD of it, or y with its
        # last singular pair removed, whose triangle's values-only SVD runs
        s, scaled = EDGES[edge]
        x = np.random.default_rng(2).standard_normal((40, 10))
        svd = full_svd(x)
        y = (x - svd.sigma[-1] * np.outer(svd.u[:, -1], svd.v[:, -1]) if tied
             else x + 1e-3 * np.random.default_rng(3).standard_normal((40, 10)))
        ref, scaled_y = _pca_distance_from_svd(svd, y, 10), _at_exponent(y, s)
        svd_calls.clear()
        scalings.clear()
        got = _pca_distance_from_svd(svd, scaled_y, 10)
        assert scalings == [(40, 10)] * scaled
        assert [call for call in svd_calls if call[1] is not False] == (
            [factor_call((40, 10), 10)] if tied else re_pca_calls((40, 10), 10))
        assert got == ref and got[1] == tied


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

    @pytest.mark.parametrize("d", [50, 200])
    def test_orthogonal_to_eps_beside_d_minus_1_columns(self, d):
        # the e of a k = n rank-one attack on a d x (d - 1) matrix: every row
        # of u has a squared norm near 1 - 1/d, so one projection leaves a
        # remainder of about 1/sqrt(d) and errs by 6-10 eps; the second
        # brings that below 1/2 eps
        u = full_svd(synth_gaussian(d, d - 1, seed=d)).u
        assert np.max(np.abs(u.T @ complement_direction(u))) <= EPS


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

    @pytest.mark.parametrize("shape", [(10, 40), (60, 60), (72, 120)])
    def test_k_equals_d_is_the_whole_space(self, shape):
        # the top-d subspace of any d x n matrix, d <= n, is R^d itself
        x, y = synth_gaussian(*shape, seed=1), synth_gaussian(*shape, seed=2)
        assert pca_distance(x, y, shape[0]) == (0.0, False)

    def test_an_attack_at_k_equals_d_achieves_no_angle(self):
        _, report = attack_rank_one(synth_gaussian(5, 5, seed=3), 5, 0.0)
        assert report.theta_achieved == 0.0


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

    @pytest.mark.parametrize("name", ["p", "t"])
    def test_rejects_an_empty_factor(self, name):
        factors = {"p": np.eye(2), "t": np.eye(3)}
        factors[name] = np.zeros((0, 0))
        with pytest.raises(InvalidDimension, match="do not match matrix shape"):
            unitary_conjugate(np.ones((2, 3)), factors["p"], factors["t"])

    def test_rejects_a_factor_that_is_not_square(self):
        wide = np.eye(2, 3)
        with pytest.raises(InvalidMatrix, match=r"^p must be square$"):
            unitary_conjugate(np.eye(2), wide, np.eye(2))
        with pytest.raises(InvalidMatrix, match=r"^t must be square$"):
            unitary_conjugate(np.eye(2), np.eye(2), wide)


def test_basis_with_columns_that_are_not_orthonormal_rejected():
    with pytest.raises(InvalidMatrix, match=r"^basis columns are not orthonormal$"):
        OrthonormalBasis(np.ones((3, 2)))


def test_single_precision_factors_rejected():
    # orthonormal to about 1e-8 only: an angle read from such a basis would
    # carry that error, far past the eps-level accuracy that principal_angles
    # and asimov_distance keep
    u = np.linalg.svd(synth_gaussian(50, 8, seed=1).astype(np.float32),
                      full_matrices=False)[0].astype(float)[:, :3]
    q = np.linalg.qr(synth_gaussian(6, 6, seed=2).astype(np.float32))[0].astype(float)
    assert 1e-9 < np.max(np.abs(u.T @ u - np.eye(3))) < 1e-7
    assert 1e-9 < np.max(np.abs(q.T @ q - np.eye(6))) < 1e-7
    with pytest.raises(InvalidMatrix, match=r"^basis columns are not orthonormal$"):
        OrthonormalBasis(u)
    with pytest.raises(InvalidMatrix, match=r"^basis columns are not orthonormal$"):
        asimov_distance(u, np.eye(50)[:, :3])
    with pytest.raises(InvalidMatrix, match=r"^p is not orthogonal$"):
        unitary_conjugate(np.ones((6, 6)), q, np.eye(6))


# nan, inf and -inf at two entries of an orthonormal factor
NONFINITE_ENTRY = {f"{name}-{index}": (index, value)
                   for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))
                   for index in ((0, 0), (2, 1))}


def _spoiled(q, entry):
    q = q.copy()
    q[entry[0]] = entry[1]
    return q


@pytest.mark.parametrize("entry", NONFINITE_ENTRY.values(), ids=NONFINITE_ENTRY.keys())
class TestNonFiniteOrthonormalFactor:
    def test_basis(self, entry):
        with pytest.raises(InvalidMatrix, match=r"^basis columns are not orthonormal$"):
            OrthonormalBasis(_spoiled(np.eye(3)[:, :2], entry))

    @pytest.mark.parametrize("angles", [asimov_distance, principal_angles])
    def test_raw_basis_of_either_side(self, entry, angles):
        bad, good = _spoiled(np.eye(3)[:, :2], entry), np.eye(3)[:, 1:]
        with pytest.raises(InvalidMatrix, match=r"^basis columns are not orthonormal$"):
            angles(bad, good)
        with pytest.raises(InvalidMatrix, match=r"^basis columns are not orthonormal$"):
            angles(good, bad)

    @pytest.mark.parametrize("name", ["p", "t"])
    def test_unitary_conjugate_factor(self, entry, name):
        factors = {"p": np.eye(3), "t": np.eye(3)}
        factors[name] = _spoiled(factors[name], entry)
        with pytest.raises(InvalidMatrix, match=rf"^{name} is not orthogonal$"):
            unitary_conjugate(np.arange(9.0).reshape(3, 3), factors["p"], factors["t"])


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
            assert np.linalg.norm(reconstruct(svd) - x) / np.linalg.norm(x) < 1e-10

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
