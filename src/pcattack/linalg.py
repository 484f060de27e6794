"""Dense linear-algebra core: deterministic SVD, orthonormal bases, principal
angles, and the Asimov distance (largest principal angle) between subspaces.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidMatrix

RANK_TOL = 1e-10   # sigma_i counts toward rank iff sigma_i > RANK_TOL * sigma_1
TIE_TOL = 1e-9     # sigma_k ~ sigma_{k+1} within TIE_TOL * sigma_1 flags ambiguity
ORTHO_TOL = 1e-10
# the aspect max(d, n) / min(d, n) from which leading_svd takes the R-SVD:
# the measured crossover against a thin SVD, in both orientations (CHANGES.md)
RSVD_ASPECT = 1.6
# every Gram G that chooses a route passes when G - GRAM_SHIFT ||G||_1 I has a
# Cholesky factor, which proves sigma_p >= 2^-10 sigma_1 (_gram_certificate).
# Where it would take the R-SVD, leading_svd takes the Gram route instead once
# the whole Gram passes and its j-th eigenvalue is at least GRAM_SEPARATION
# times its first, so sigma_j >= sigma_1 / 64
GRAM_SHIFT = 2.0**-20
GRAM_SEPARATION = 2.0**-12
# the columns of the leading block whose Gram is tested, by the same rule,
# before the whole Gram is formed: a block that fails proves that the whole
# fails, so a rank-deficient input declines for a block's cost
GRAM_BLOCK = 32
# A factor runs on a matrix as given while the exponent s of its largest
# |entry| (in [2^(s-1), 2^s)) has |s| <= UNIT_BAND, and past that on the
# matrix / 2^s (``_in_unit``); every route then runs in that one unit.  In
# the band no LAPACK routine that a route calls rescales the matrix it is
# given, so each route gives the same bits at every power-of-two scale.
# dgesdd rescales a matrix whose largest |entry| lies outside [2^-459,
# 2^459] (its SMLNUM = sqrt(safe_min) / eps and BIGNUM = 1 / SMLNUM): that
# of a, m x p the tall one of the matrix and its transpose, lies in [2^(s-1),
# 2^s), and that of the triangle R of a's QR in [2^(s-1) / sqrt(p), sqrt(m)
# 2^s], since each entry of R is at most its column's norm in a.  dsyevd
# rescales one whose largest |entry| lies outside [2^-485, 2^485] (its RMIN =
# sqrt(safe_min / eps) and RMAX = 1 / RMIN): that of the Gram a^T a, its
# largest diagonal entry, lies in [4^(s-1), m 4^s).  |s| <= 200 keeps all
# three inside for any m below 2^85, and every entry of a Gram, its shifted
# Cholesky and sigma_1 far inside the float64 range
UNIT_BAND = 200
# the R-SVD's triangle R has null rows from the first row m >= j at which the
# rows m .. p - 1 have a Frobenius norm of at most NULL_ROWS times R's largest
# row norm, and its SVD skips them (``_kept_rows``)
NULL_ROWS = 2.0**-40


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-D float array (d x n, columns are samples)."""
    return _checked(x)[0]


def _checked(x) -> tuple[np.ndarray, int]:
    """``as_matrix(x)`` and the exponent ``s`` of its largest |entry|, both
    from one pass: the entries of ``m / 2^s`` are below 1, and the largest
    is at least 1/2 (``s = 0`` for a zero matrix).  A nan makes both the
    max and the min nan and an inf makes one of them infinite, so a finite
    largest |entry| proves every entry finite."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidMatrix(f"expected a nonempty 2-D matrix, got shape {m.shape!r}")
    peak = max(float(m.max()), -float(m.min()))
    if not math.isfinite(peak):
        raise InvalidMatrix("matrix entries must be finite")
    return m, math.frexp(peak)[1]


def _in_unit(x) -> tuple[np.ndarray, int]:
    """``(a, e)`` with ``2^e a`` the finite matrix ``x``: ``x`` itself and e
    = 0 while the exponent ``s`` of its largest |entry| has ``|s| <=
    UNIT_BAND``, else ``x / 2^s`` and e = s.  The pass that proves ``x``
    finite finds ``s``.  This is the only place where a factor scales a
    matrix: scaling by a power of two is exact, and in the band no route
    rescales, so a factor of ``2^m x`` is that of ``x`` with its singular
    values times 2^m, bit for bit."""
    m, s = _checked(x)
    return (m, 0) if abs(s) <= UNIT_BAND else (np.ldexp(m, -s), s)


def check_eta(eta) -> float:
    """The energy budget as a float; finite and nonnegative or ValueError."""
    eta = float(eta)
    if not math.isfinite(eta) or eta < 0.0:
        raise ValueError(f"energy budget must be finite and >= 0, got {eta}")
    return eta


def check_k(k, shape: tuple[int, int]) -> int:
    """The subspace dimension as an int with 1 <= k <= min(d, n).

    Anything ``operator.index`` rejects, or an out-of-range value, raises
    InvalidDimension.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidDimension(f"k must be an integer, got {k!r}") from None
    p = min(shape)
    if not 1 <= k <= p:
        raise InvalidDimension(f"k must satisfy 1 <= k <= min(d, n)={p}, got {k}")
    return k


def check_attack(x, k, eta) -> tuple[np.ndarray, int, float]:
    """Validated ``(matrix, k, eta)`` for an attack on the k-dim PCA subspace."""
    x = as_matrix(x)
    eta = check_eta(eta)
    return x, check_k(k, x.shape), eta


@dataclass(frozen=True)
class Spectrum:
    """The singular values of a d x n matrix, without its singular vectors.

    The closed forms, their regime checks and the split of a 2x2 core read
    only ``sigma``, ``rank`` and ``shape``; an ``SvdTriple`` is a spectrum
    that also holds the singular vectors.
    """

    sigma: np.ndarray       # min(d, n) nonnegative, nonincreasing
    shape: tuple[int, int]

    @property
    def rank(self) -> int:
        """Numerical rank: count of sigma_i > RANK_TOL * sigma_1.
        ``report.core_spectrum`` reads it once per record, and every closed
        form reads the record's ``rank``."""
        return int(np.count_nonzero(self.sigma > RANK_TOL * self.sigma[0]))


def spectrum_of(m) -> Spectrum:
    """The singular values of a finite matrix, from one values-only SVD."""
    a, e = _in_unit(m)
    return Spectrum(_svd(a, e, False), a.shape)


@dataclass(frozen=True)
class SvdTriple(Spectrum):
    """All ``p = min(d, n)`` singular values, nonincreasing, and the leading
    ``j`` singular pairs.

    ``u`` is d x j and ``v`` is n x j, both with orthonormal columns: ``j =
    p`` from ``full_svd``, any ``j <= p`` from ``leading_svd``.  Signs are
    canonicalized: each left singular vector has its largest-magnitude entry
    positive, with the paired right vector flipped to preserve the product,
    so repeated factorizations are bit-identical.
    """

    u: np.ndarray           # d x j, orthonormal columns
    v: np.ndarray           # n x j, orthonormal columns


@dataclass(frozen=True)
class OrthonormalBasis:
    """Columns form an orthonormal basis of a subspace of R^d.

    ``ambiguous`` marks bases produced by a PCA truncation whose trailing
    singular value was tied with the first discarded one; the spanned
    subspace is then not well defined and downstream consumers must not
    rely on it.
    """

    columns: np.ndarray
    ambiguous: bool = False

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise InvalidMatrix("basis must be a 2-D array of column vectors")
        d, k = cols.shape
        if not 1 <= k <= d:
            raise InvalidDimension(f"basis needs 1 <= k <= d, got k={k}, d={d}")
        if not _orthonormal(cols):
            raise InvalidMatrix("basis columns are not orthonormal")
        object.__setattr__(self, "columns", cols)


def _orthonormal(q: np.ndarray) -> bool:
    """Whether every entry of ``q^T q`` is within ORTHO_TOL of the identity's.
    A nan or inf in ``q`` makes some entry nan or infinite, which fails."""
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= ORTHO_TOL)


def _as_basis(b) -> OrthonormalBasis:
    return b if isinstance(b, OrthonormalBasis) else OrthonormalBasis(np.asarray(b, dtype=float))


def full_svd(m) -> SvdTriple:
    """Thin SVD of a finite matrix, with deterministic sign choices.

    Returns d x p and n x p factors, ``p = min(d, n)``.  Raises
    InvalidMatrix on non-finite input, or when sigma_1 overflows
    (``_scale_back``).
    """
    a, e = _in_unit(m)
    return _factor(a, e, min(a.shape))


def leading_svd(m, j: int) -> SvdTriple:
    """All singular values of a finite matrix and its leading ``j`` singular
    pairs, with ``full_svd``'s signs.

    ``full_svd`` is this routine at ``j = p``, ``p = min(d, n)``, and
    ``leading_subspace`` and an attack's re-PCA read their bases from it, so
    its routing rule is stated here only.  Once one side is long, ``max(d, n)
    >= RSVD_ASPECT * p``, and fewer than ``p`` pairs are asked for, it skips
    the long factor of a thin SVD (Chan's R-SVD, ACM TOMS 8, 1982).  With
    ``a`` the tall one of ``m`` and ``m^T``, the singular values and the
    short side's vectors (``V`` of a tall ``m``, ``U`` of a wide one) come
    from the p x p SVD of the ``R`` of a Householder QR of ``a`` that keeps
    only ``R``.  The long side's leading ``j`` vectors are the ``Q`` of a QR
    of the block ``a W_j``, where ``W_j`` holds the short side's leading
    ``j``, each column signed so that ``m v_i = sigma_i u_i``.  Since ``a
    W_j`` is the long side's leading ``j`` vectors times ``S_j`` to eps *
    sigma_1 per column, each long vector is accurate to O(eps sigma_1 /
    gap), the same order as a dense SVD, and nothing is divided by a
    singular value: for a rank-deficient ``m`` a trailing one is still a unit
    vector orthogonal to the leading ones.  The rows of such an ``R`` from
    about its rank on hold only roundoff, and the SVD skips them: it runs
    on ``R``'s leading ``m`` rows, ``m >= j`` the first row from which the
    rows have a Frobenius norm of at most ``NULL_ROWS`` = 2^-40 times R's
    largest row norm, so at most 2^-40 sigma_1, and their ``m`` values
    followed by ``p - m`` zeros are the spectrum.  Each kept value then
    moves by at most 2^-80 sigma_1^2 / (2 sigma_i), and each dropped one is
    at most 2^-40 sigma_1, far below ``RANK_TOL`` and ``TIE_TOL``, so the
    rank and the tie flags are those of the whole triangle's SVD
    (``_r_svd_pairs``); a dropped value is exactly 0 where that SVD gives
    roundoff.  Where the R-SVD does not run (nearer square,
    where the two QRs cost as much as they save, or with all ``p`` pairs) a
    thin SVD runs and its leading ``j`` pairs are kept.  A ``j`` outside 1
    .. ``p`` raises InvalidDimension, as ``check_k`` does for k.

    Every route factors ``m`` as given while the exponent ``s`` of its
    largest |entry| has ``|s| <= UNIT_BAND``, and past that ``m / 2^s``;
    the pass that proves ``m`` finite finds ``s`` (``_in_unit``), and no
    route scales again.  In that band no SVD or ``eigh`` that a route runs
    rescales what it is given, so ``2^k m`` gives the bits of ``m`` with
    the singular values times 2^k.  The singular values are then scaled
    back, and a sigma_1 past the float64 range raises InvalidMatrix
    (``_scale_back``).

    Where the R-SVD would run, a well-conditioned ``a`` takes the Gram route
    instead, which replaces the R-only QR and the triangle's SVD with one p x
    p ``eigh`` of ``G = a^T a``, in which no entry overflows or underflows
    (``UNIT_BAND``).  It runs only when both hold: (1) ``G - tau I`` has a
    Cholesky factor, with ``tau = GRAM_SHIFT ||G||_1``, ``||G||_1`` the
    largest column abs-sum of ``G`` and at least ``lambda_1``, which proves
    ``sigma_p >= 2^-10 sigma_1`` and with it that the rank is ``p``
    (``_gram_certificate``); (2) ``G``'s eigenvalues show ``lambda_j >=
    GRAM_SEPARATION lambda_1``, that is ``sigma_j >= sigma_1 / 64`` (an
    ``a`` that fails only this has paid for the ``eigh`` too).  When ``p``
    exceeds ``GRAM_BLOCK``, (1) first tests the Gram ``G_B`` of the leading
    ``GRAM_BLOCK`` columns by the same rule, before ``G`` is formed:
    ``G_B - GRAM_SHIFT ||G_B||_1 I``.  ``G_B`` is a leading principal block
    of ``G``, so each of its column abs-sums is at most that column's
    abs-sum in ``G`` and its shift is at most ``tau``: were ``G - tau I``
    positive definite, so would be its block ``G_B - tau I`` and with it
    the block's own shifted Gram.  A block that fails thus proves that (1)
    fails, and an ``a`` of rank below the block's width declines for the
    block's Gram and an early pivot of its Cholesky, as a rank-deficient
    ``G`` does at its own.  The short side's vectors are then ``G``'s top
    ``j`` eigenvectors ``W_j``, and the long side's the signed ``Q`` of a
    QR of ``a W_j``, as above.
    ``sigma_1 .. sigma_{j+1}``, which the closed forms, the tie test and the
    split of a core read, are the column norms ``||a w_i||``, within about
    eps sigma_1 of a dense SVD's; the rest are ``sqrt(lambda_i)``, within
    ``2^10 eps sigma_1``, since an eigenvalue is within eps ``lambda_1`` and
    sigma_p >= 2^-10 sigma_1.  The whole spectrum is kept nonincreasing.  An
    eigenvector of ``G`` is within eps ``lambda_1 / (lambda_i -
    lambda_{i+1})``, at most ``sigma_1 / (sigma_i + sigma_{i+1})`` times a
    dense SVD's bound, which (2) keeps within 64 for every pair returned.
    """
    a, e = _in_unit(m)
    return _factor(a, e, check_k(j, a.shape))


def _factor(m: np.ndarray, e: int, j: int) -> SvdTriple:
    """``leading_svd`` of the matrix ``2^e m``, given as ``m`` and ``e``: a
    thin SVD, or on a long side the Gram route, or the R-SVD where the Gram
    route declines, each on ``m`` as given."""
    d, n = m.shape
    p = min(d, n)
    if max(d, n) < RSVD_ASPECT * p or j >= p:
        u, sigma, vt = _svd(m, e)
        return _signed_triple(sigma, m.shape, u[:, :j], vt[:j].T)
    a = m.T if d < n else m
    sigma, short, long = _gram_pairs(a, e, j) or _r_svd_pairs(a, e, j)
    return _signed_triple(sigma, m.shape, *((short, long) if d < n else (long, short)))


def _r_svd_pairs(a: np.ndarray, e: int, j: int):
    """``(sigma, W_j, Q)`` of the matrix ``2^e a``, tall, from the SVD of the
    triangle ``R`` of an R-only QR of ``a`` (``leading_svd``), or of its
    leading ``m < p`` rows where ``_kept_rows`` finds the rest null: their
    ``m`` singular values followed by ``p - m`` zeros are the spectrum.

    With ``E`` the dropped rows, ``R^T R = R[:m]^T R[:m] + E^T E``, so each
    kept sigma_i moves by at most ``||E||^2 / (2 sigma_i)`` and each right
    vector by at most ``||E||^2 / (sigma_i^2 - sigma_{i+1}^2)``, and each
    dropped value is at most ``||E|| <= NULL_ROWS sigma_1``, far below
    ``RANK_TOL`` and ``TIE_TOL``.  The kept rows are factored in ``a``'s
    unit, where the SVD does not rescale them (``UNIT_BAND``)."""
    r = np.linalg.qr(a, mode="r")
    _, sigma, vt = _svd(_kept_rows(r, j), e)
    short = vt[:j].T
    return np.pad(sigma, (0, len(r) - len(sigma))), short, _signed_q(a @ short)


def _kept_rows(r: np.ndarray, j: int) -> np.ndarray:
    """The leading ``m`` rows of the p x p triangle ``r``, with ``m`` the
    smallest ``>= j`` such that rows ``m ..`` have a Frobenius norm of at
    most ``NULL_ROWS`` times r's largest row norm (itself at most sigma_1),
    or all of ``r`` if there is none.  ``r`` is the triangle of a d x p
    matrix from ``_in_unit``, so its largest squared row norm lies between
    about 4^-UNIT_BAND / p and d p 4^UNIT_BAND, where the largest squares
    neither overflow nor underflow and the cut is the same at every
    power-of-two scale; a square that underflows there is far below the
    cut."""
    squares = np.einsum("ij,ij->i", r, r)
    # tail[i] is the squared Frobenius norm of rows i .., nonincreasing in i
    tail = np.cumsum(squares[::-1])[::-1]
    null = tail[j:] <= NULL_ROWS**2 * float(squares.max())
    return r[:j + int(np.argmax(null))] if null[-1] else r


def _gram_pairs(a: np.ndarray, e: int, j: int):
    """``(sigma, W_j, Q)`` of the matrix ``2^e a``, tall, from the eigenpairs
    of the Gram ``G = a^T a`` that ``_gram_certificate(a)`` forms, or None
    when the certificate of a's leading ``GRAM_BLOCK`` columns or of ``a``
    declines, or ``G`` fails condition (2) of the Gram route
    (``leading_svd``)."""
    if (a.shape[1] > GRAM_BLOCK and _gram_certificate(a[:, :GRAM_BLOCK]) is None
            or (g := _gram_certificate(a)) is None):
        return None
    lam, w = np.linalg.eigh(g)
    if not lam[-j] >= GRAM_SEPARATION * lam[-1]:
        return None
    # the top j + 1 eigenvectors, the largest first; j < p here
    top = w[:, -j - 1:][:, ::-1]
    y = a @ top
    sigma = np.concatenate((np.linalg.norm(y, axis=0), np.sqrt(lam[:-j - 1][::-1])))
    return _scale_back(np.minimum.accumulate(sigma), e), top[:, :j], _signed_q(y[:, :j])


def _gram_certificate(a: np.ndarray):
    """``G = a^T a`` when ``G - tau I`` has a Cholesky factor, ``tau =
    GRAM_SHIFT ||G||_1``; else None.  ``a`` is a matrix from ``_in_unit``,
    its leading columns or the triangle of its QR, so no entry of ``G`` that
    the test reads overflows or underflows, and ``eigh`` does not rescale
    ``G`` (``UNIT_BAND``).  A factor that exists proves ``G - tau I``
    positive definite to within its backward error (Higham 2002, ch. 10),
    so every eigenvalue of ``G`` exceeds ``tau >= GRAM_SHIFT lambda_1``,
    that is sigma_p(a) >= 2^-10 sigma_1(a); at a pivot that is not positive
    the factor stops."""
    g = a.T @ a
    try:
        np.linalg.cholesky(g - GRAM_SHIFT * float(np.abs(g).sum(axis=0).max()) * np.eye(len(g)))
    except np.linalg.LinAlgError:
        return None
    return g


def _signed_q(y: np.ndarray) -> np.ndarray:
    """The ``Q`` of a QR of ``y``, each column signed so that ``y``'s columns
    have positive coordinates on it."""
    q, r = np.linalg.qr(y)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _svd(a: np.ndarray, e: int, compute_uv: bool = True):
    """``np.linalg.svd(a, full_matrices=False)`` of a matrix ``a`` in the unit
    2^e, or of the triangle of a QR of one, or of the triangle's kept rows
    (``_kept_rows``), with the singular values scaled back by
    ``_scale_back``.  The largest |entry| of a matrix from ``_in_unit`` has
    an exponent within ``UNIT_BAND`` of 0, and that of its triangle or kept
    rows is within a factor sqrt(d) of it, so no SVD of any rescales or
    comes near overflow."""
    out = np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    if not compute_uv:
        return _scale_back(out, e)
    return out[0], _scale_back(out[1], e), out[2]


def _scale_back(sigma: np.ndarray, e: int) -> np.ndarray:
    """``2^e sigma``: the singular values of a matrix from those of the
    matrix in the unit 2^e, or InvalidMatrix when sigma_1 overflows float64."""
    with np.errstate(over="ignore"):
        sigma = np.ldexp(sigma, e)
    if not math.isfinite(sigma[0]):
        raise InvalidMatrix(f"entries are finite, but the largest singular value exceeds "
                            f"the float64 range ({sys.float_info.max:.4g})")
    return sigma


def _signed_triple(sigma: np.ndarray, shape: tuple[int, int], u: np.ndarray,
                   v: np.ndarray) -> SvdTriple:
    """The triple with each ``u_i``'s largest-|entry| positive, ``v_i`` flipped with it."""
    signs = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return SvdTriple(sigma=sigma, shape=shape, u=u * signs, v=v * signs)


def fro_norm(m) -> float:
    """Frobenius norm of an array, taken after scaling it by the power of two
    that brings its largest |entry| into [1/2, 1): that scaling is exact, so
    no square overflows or underflows at any scale.  An empty or zero array
    gives 0.0, and one with an inf or nan gives inf or nan, through the same
    lines: ``math.frexp`` of 0, inf and nan has the exponent 0."""
    m = np.asarray(m, dtype=float)
    peak = float(np.abs(m).max()) if m.size else 0.0
    exponent = math.frexp(peak)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(m, -exponent))), exponent)


def svd_2x2(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """``(s_1, s_2, w_1, w_2)``: the singular values ``s_1 >= s_2 >= 0`` of
    ``[[a, b], [c, d]]`` and its leading left singular vector ``w``.

    The matrix is ``Q Rot(a_2) + R Refl(a_1)``, a scaled rotation plus a
    scaled reflection, with ``Q = hypot((a + d)/2, (c - b)/2)`` and ``R =
    hypot((a - d)/2, (c + b)/2)``, so it equals ``Rot(phi) diag(Q + R, Q - R)
    Rot(psi)`` with ``phi = (a_1 + a_2) / 2`` (Blinn, "Consider the lowly 2x2
    matrix", 1996).  Only ``hypot`` and ``atan2`` touch the entries, so nothing
    is squared.  Each ``atan2`` keeps its relative accuracy, so ``w`` is
    accurate to O(eps s_1 / (s_1 - s_2)); and where both angles are small and
    of one sign, as for a perturbation much smaller than the gap of a diagonal
    matrix, so is ``phi``.
    """
    e, f = 0.5 * a + 0.5 * d, 0.5 * a - 0.5 * d
    g, h = 0.5 * c + 0.5 * b, 0.5 * c - 0.5 * b
    q, r = math.hypot(e, h), math.hypot(f, g)
    phi = 0.5 * (math.atan2(g, f) + math.atan2(h, e))
    return q + r, abs(q - r), math.cos(phi), math.sin(phi)


def complement_direction(u: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the columns of ``u`` (d x p, p < d).

    Projects the span of ``u`` out of the coordinate axis with the smallest
    row norm of ``u`` (at least ``1 - p/d`` of it remains), twice for
    orthogonality to working precision.  Costs O(dp); deterministic.
    """
    i = int(np.argmin(np.einsum("ij,ij->i", u, u)))
    w = np.zeros(u.shape[0])
    w[i] = 1.0
    for _ in range(2):
        w -= u @ (u.T @ w)
    return w / np.linalg.norm(w)


def leading_subspace(m, k: int) -> OrthonormalBasis:
    """First k left singular vectors of ``m`` as an orthonormal basis.

    The result carries ``ambiguous=True`` when sigma_k and sigma_{k+1} are
    tied within ``TIE_TOL`` relative to sigma_1 (the PCA truncation is then
    ill defined).  For d > n the implicit trailing singular values are zero.
    The columns are ``leading_svd(m, k).u``.
    """
    svd = leading_svd(m, k)
    return OrthonormalBasis(svd.u, _tied(svd.sigma, svd.u.shape[1], svd.shape[0]))


def _tied(sigma: np.ndarray, k: int, d: int) -> bool:
    """Whether the top-k truncation of a matrix with ``d`` rows and the
    nonincreasing spectrum ``sigma`` is tied: sigma_k - sigma_{k+1} <=
    ``TIE_TOL * sigma_1``."""
    # for d > n the trailing spectrum is implicitly zero; at k = d the subspace is R^d
    next_sigma = sigma[k] if k < sigma.size else 0.0 if k < d else None
    return next_sigma is not None and bool(sigma[k - 1] - next_sigma <= TIE_TOL * sigma[0])


def _cross(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of two bases of k-dim subspaces of one R^d, and ``a^T b``."""
    a, b = _as_basis(a).columns, _as_basis(b).columns
    if a.shape[0] != b.shape[0]:
        raise InvalidDimension(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] != b.shape[1]:
        raise InvalidDimension(f"subspace dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return a, b, a.T @ b


def principal_angles(a, b) -> np.ndarray:
    """Principal angles (radians, nondecreasing) between two k-dim subspaces.

    An angle of at least pi/4 is the arccosine of a singular value of ``a^T
    b``; a smaller one is the arcsine of a singular value of ``b - a (a^T
    b)``, both clamped to [0, 1] against roundoff (Björck & Golub 1973;
    Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002).  A cosine near 1
    holds a small angle only to about sqrt(eps); its sine keeps it to about
    eps absolute.
    """
    a, b, cross = _cross(a, b)
    theta = np.arccos(np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0))
    # the sines in decreasing order belong to the angles in increasing order
    sines = np.linalg.svd(b - a @ cross, compute_uv=False)[::-1]
    small = theta < math.pi / 4
    theta[small] = np.arcsin(np.clip(sines[small], 0.0, 1.0))
    return theta


def asimov_distance(a, b) -> float:
    """Largest principal angle between two equal-dimensional subspaces:
    ``_largest_angle`` of ``a^T b`` and ``b - a (a^T b)``."""
    a, b, cross = _cross(a, b)
    return _largest_angle(cross, lambda: b - a @ cross)


def _largest_angle(cosines: np.ndarray, sines) -> float:
    """The largest principal angle between two k-dim subspaces, from the k x
    k matrix ``cosines``, whose singular values are the angles' cosines, or
    from the matrix ``sines()``, whose singular values are their sines.

    A small angle is read from its sine, as in ``principal_angles``: the
    square root of the largest eigenvalue of the Gram matrix of ``sines()``,
    which keeps the relative accuracy of the largest sine.  Once the sine
    reaches 1/4, the arccosine of the smallest singular value of
    ``cosines`` holds the angle to within four times the sine's error, and
    its k x k SVD costs less than forming the sines' d x k matrix once d is
    a few times k.  The squared sines sum to ``k - ||cosines||_F^2``; below
    (1/4)^2 no cosine is computed.

    Neither read needs a clamp.  Past that gate the smallest singular value
    squared of the matrix ``cosines`` as computed is at most
    ``||cosines||_F^2 / k <= 1 - 1/(16 k)``, so the one LAPACK returns,
    nonnegative, stays below 1: the rounding of the sum and of the SVD, a
    few k eps, is far below 1/(32 k) for any k below 10^6.  The sines are
    read only below a sine of 1/4, far from 1; and a Gram with a nonzero
    entry has a positive largest computed eigenvalue (``eigvalsh`` is
    backward stable and the Gram's largest diagonal entry bounds it from
    below), while a zero Gram gives 0.0.
    """
    if cosines.shape[1] - float(np.sum(cosines * cosines)) >= 0.25**2:
        smallest = float(np.linalg.svd(cosines, compute_uv=False)[-1])
        theta = math.acos(smallest)
        if math.sin(theta) >= 0.25:
            return theta
    residual = sines()
    return math.asin(math.sqrt(float(np.linalg.eigvalsh(residual.T @ residual)[-1])))


def pca_distance(x, y, k: int) -> tuple[float, bool]:
    """Asimov distance between the k-dim PCA subspaces of two matrices.

    Returns ``(theta, ambiguous)`` where ``ambiguous`` is True if either
    truncation had a tied trailing singular value.  ``x`` is factored by
    ``leading_svd(x, k)`` and ``y`` read as an attack's re-PCA reads it
    (``_pca_distance_from_svd``).
    """
    x, y = as_matrix(x), as_matrix(y)
    k = check_k(k, x.shape)
    check_k(k, y.shape)
    if x.shape[0] != y.shape[0]:
        raise InvalidDimension(f"ambient dimensions differ: {x.shape[0]} vs {y.shape[0]}")
    return _pca_distance_from_svd(leading_svd(x, k), y, k)


def _pca_distance_from_svd(svd: SvdTriple, y, k: int) -> tuple[float, bool]:
    """``pca_distance`` with ``x`` given by its factors; ``y`` is factored
    on its own, so a perturbed ``y`` is checked independently of them.

    At k = n < d the top-n subspace of ``y`` is its column space, whose
    basis ``Q = y R^-1`` comes from an R-only QR of ``y``, and ``Q`` is
    never formed (Björck & Golub 1973): with ``U`` the clean basis, the
    cosines are those of ``U^T Q = (U^T y) R^-1``, and the sines those of
    ``(y - U (U^T y)) R^-1``.  The cosines take one solve with the n x n
    ``R``; the sines, formed only for a small angle, a product with ``R``'s
    inverse, cheaper than a solve with d right-hand sides and usually as
    accurate (Higham 2002, ch. 14).  ``R``'s condition, sigma_1 / sigma_n of
    ``y``, is below 1 / ``TIE_TOL`` when its truncation is not tied, and
    scales the error of either by at most what it scales the span's own
    error.  Otherwise, a tied k = n ``y`` included, ``y``'s basis is the
    ``u`` of ``leading_svd(y, k)``, and a tie sets ``ambiguous``.

    Whether ``R`` ties is certified without its SVD where it can be
    (``_untied_triangle``): ``_gram_certificate(R)``, condition (1) of
    ``leading_svd``'s Gram route, proves sigma_n >= 2^-10 sigma_1 when it
    clears, far above the tie at ``TIE_TOL sigma_1``.  So theta and the flag
    are those that the values-only SVD of ``R`` and ``_tied`` would give.
    Only an ``R`` that fails the test, or whose sigma_1 scaled back from
    ``y``'s unit (``_in_unit``) may pass the float64 range, runs that SVD,
    so the InvalidMatrix there fires where it did.

    At k = d <= n the top-d subspace of any d x n matrix is R^d itself, as
    ``_tied`` assumes, so theta is 0.0 exactly.  ``y`` is still factored, so
    its validation, errors and tie flag are those of any other k.

    Either way the span is accurate to O(eps sigma_1 / (sigma_k -
    sigma_{k+1})), as a dense SVD's is, and ``_largest_angle`` reads a small
    angle from its sine, so a tiny budget's achieved angle keeps that order:
    at k = n it is within 16 eps sigma_1 / sigma_n of the predicted one from
    eta = 1e-12 sigma_n to 0.5 sigma_n, at condition up to 1e8
    (``tests/test_core_verify.py``).  The clean basis ``svd.u`` is read as a
    plain array; ``OrthonormalBasis`` re-checks only a basis that a caller
    passes in or ``leading_subspace`` returns.
    """
    u, ambiguous = svd.u[:, :k], _tied(svd.sigma, k, svd.shape[0])
    y, e = _in_unit(y)
    d, n = y.shape
    if d > n and k == n:
        r = np.linalg.qr(y, mode="r")
        if _untied_triangle(r, e) or not _tied(_svd(r, e, compute_uv=False), k, d):
            cross = u.T @ y
            theta = _largest_angle(np.linalg.solve(r.T, cross.T).T,
                                   lambda: (y - u @ cross) @ np.linalg.inv(r))
            return theta, ambiguous
    factor = _factor(y, e, k)
    cross = u.T @ factor.u
    return (0.0 if k == d else _largest_angle(cross, lambda: factor.u - u @ cross),
            ambiguous or _tied(factor.sigma, k, d))


def _untied_triangle(r: np.ndarray, e: int) -> bool:
    """Whether ``_gram_certificate(r)`` proves that the triangle ``r`` of a
    QR of the matrix ``2^e y`` has sigma_n >= 2^-10 sigma_1, with 2^e
    sigma_1 inside the float64 range, where ``_svd`` of ``r`` would scale it
    back without InvalidMatrix; the bound on sigma_1 is read from the
    certificate's ``G``.  ``y`` comes from ``_in_unit``, so ``r`` is finite
    and ``trace G`` does not overflow."""
    if (g := _gram_certificate(r)) is None:
        return False
    # sigma_1 <= ||r||_F = sqrt(trace g) < 2^f, f the root's exponent, so 2^e
    # sigma_1 is finite while f + e <= 1024.  That holds for the computed
    # values too: at n = 1 the SVD's sigma_1 is |r|, and the root of the
    # rounded r^2 reaches every power of two that |r| reaches; past it the
    # certificate's sigma_n >= 2^-10 sigma_1 puts ||r||_F above sigma_1 by a
    # factor 1 + 2^-21, far more than the rounding of trace g and of sigma_1
    return math.frexp(math.sqrt(float(np.trace(g))))[1] + e <= sys.float_info.max_exp


def unitary_conjugate(x, p, t) -> np.ndarray:
    """Return ``p @ x @ t.T`` after checking p and t are orthogonal."""
    x = as_matrix(x)
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    for name, q, size in (("p", p, x.shape[0]), ("t", t, x.shape[1])):
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise InvalidMatrix(f"{name} must be square")
        # before q^T q is read, so that a 0 x 0 factor is rejected here too
        if q.shape[0] != size:
            raise InvalidDimension("conjugation factors do not match matrix shape")
        if not _orthonormal(q):
            raise InvalidMatrix(f"{name} is not orthogonal")
    return p @ x @ t.T
