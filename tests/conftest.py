import numpy as np
import pytest

from pcattack.linalg import RSVD_ASPECT, RSVD_SHARE


@pytest.fixture
def svd_calls(monkeypatch):
    """``(shape, compute_uv)`` of each matrix passed to ``np.linalg.svd``, in
    call order; ``compute_uv`` is False for a values-only SVD."""
    calls = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def svd_shapes(calls):
    """The shapes alone of the calls that ``svd_calls`` recorded."""
    return [shape for shape, _ in calls]


def factor_svd_shape(shape, j):
    """The shape of the one dense SVD that ``linalg.leading_svd(m, j)`` runs on
    a ``shape`` matrix: the p x p triangle of a QR (``p = min(d, n)``) once
    ``max(d, n) >= RSVD_ASPECT * p`` and ``j <= RSVD_SHARE * p``, else
    ``shape`` itself."""
    p = min(shape)
    return (p, p) if max(shape) >= RSVD_ASPECT * p and j <= RSVD_SHARE * p else shape


def re_pca_svd_shape(shape, k):
    """The shape of the one dense SVD that ``linalg.leading_subspace(m, k)``
    runs: the n x n triangle of a reduced QR at k = n < d, else
    ``factor_svd_shape(shape, k)``."""
    d, n = shape
    return (n, n) if d > n and k == n else factor_svd_shape(shape, k)


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
