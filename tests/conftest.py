import dataclasses

import numpy as np
import pytest

from pcattack import PcattackError
from pcattack.linalg import GRAM_BLOCK, RSVD_ASPECT


@pytest.fixture
def svd_calls(monkeypatch):
    """Each dense decomposition, in call order: ``(shape, compute_uv)`` of a
    matrix passed to ``np.linalg.svd``, ``compute_uv`` False for a
    values-only SVD, and ``(shape, "eigh")`` of one passed to
    ``np.linalg.eigh``."""
    calls = []
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counting_svd(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        calls.append((np.shape(a), "eigh"))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The shape of each matrix passed to ``np.linalg.cholesky``, in call
    order: the shifted Cholesky tests that choose a factor's route."""
    shapes = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return shapes


def svd_shapes(calls):
    """The shapes alone of the calls that ``svd_calls`` recorded."""
    return [shape for shape, _ in calls]


def factor_call(shape, j, gram=True, rank=None):
    """The one dense decomposition that ``linalg.leading_svd(m, j)`` runs on a
    ``shape`` matrix, as ``svd_calls`` records it.  Once ``max(d, n) >=
    RSVD_ASPECT * p`` (``p = min(d, n)``) and ``j < p`` it is of a p x p
    matrix: the ``eigh`` of the Gram of ``m`` when ``gram`` says that ``m``
    clears both conditions of the Gram route, else the SVD of the triangle
    of a QR.  For an ``m`` of rank ``rank < p`` whose leading ``rank``
    columns, or rows if it is wide, are independent, the triangle's rows
    from ``rank`` on hold only roundoff, and that SVD is of its leading
    ``max(j, rank)`` rows.  Otherwise it is the thin SVD of ``m`` itself.
    The Cholesky tests that choose the route are ``factor_choleskys``."""
    p = min(shape)
    if max(shape) >= RSVD_ASPECT * p and j < p:
        return ((p, p), "eigh") if gram else ((max(j, rank or p), p), True)
    return shape, True


def factor_choleskys(shape, j):
    """The shapes of the shifted Cholesky tests of the Gram route that
    ``linalg.leading_svd(m, j)`` runs on a ``shape`` matrix that clears them,
    as ``cholesky_calls`` records them: where the R-SVD would run, that of
    the Gram of the leading ``GRAM_BLOCK`` columns when ``p`` is wider, then
    that of the p x p Gram; none where a thin SVD runs."""
    p = min(shape)
    if max(shape) >= RSVD_ASPECT * p and j < p:
        return [(GRAM_BLOCK, GRAM_BLOCK)] * (p > GRAM_BLOCK) + [(p, p)]
    return []


def re_pca_choleskys(shape, k):
    """The shapes of the Cholesky tests that an attack's re-PCA runs on a
    ``shape`` matrix that clears them: that of the n x n Gram of the triangle
    at k = n < d, else ``factor_choleskys(shape, k)``."""
    d, n = shape
    return [(n, n)] if d > n and k == n else factor_choleskys(shape, k)


def re_pca_calls(shape, k, gram=True):
    """The dense decompositions that an attack's re-PCA runs on a ``shape``
    matrix whose truncation at ``k`` the Cholesky tests certify untied.  At
    k = n < d none: the column space is read through the n x n triangle of
    an R-only QR, whose Gram clears the test, so no SVD of it runs (one that
    fails runs the triangle's values-only SVD).  Otherwise
    ``[factor_call(shape, k, gram)]``."""
    d, n = shape
    return [] if d > n and k == n else [factor_call(shape, k, gram)]


def re_pca_call(shape, k, gram=True):
    """The one dense decomposition of a re-PCA at k < n or d <= n, where
    ``re_pca_calls`` always names one; at k = n < d it raises ValueError."""
    (call,) = re_pca_calls(shape, k, gram)
    return call


def bits(value):
    """Every bit of a result: arrays by their bytes, floats by their hex."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return float.hex(value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(bits(getattr(value, f.name))
                                           for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, dict):
        return tuple((key, bits(v)) for key, v in value.items())
    return repr(value)


def outcome(call):
    """``bits(call())``, or the type and message of the PcattackError it raises."""
    try:
        return bits(call())
    except PcattackError as exc:
        return type(exc).__name__, str(exc)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_basis(rng, d, k):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q


def matrix_with_spectrum(sigmas, d, n, seed):
    """Random-orientation matrix with the given leading singular values."""
    sigmas = np.asarray(sigmas, dtype=float)
    rng = np.random.default_rng(seed)
    p = random_orthogonal(rng, d)
    q = random_orthogonal(rng, n)
    core = np.zeros((d, n))
    core[: sigmas.size, : sigmas.size] = np.diag(sigmas)
    return p @ core @ q.T


def spearman(x, y):
    """Rank correlation with average ranks on ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        r[order] = np.arange(v.size, dtype=float)
        sorted_v = v[order]
        i = 0
        while i < v.size:
            j = i
            while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
                j += 1
            if j > i:
                r[order[i:j + 1]] = 0.5 * (i + j)
            i = j + 1
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
