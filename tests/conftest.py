import numpy as np
import pytest

from pcattack.linalg import RSVD_ASPECT


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


def svd_shapes(calls):
    """The shapes alone of the calls that ``svd_calls`` recorded."""
    return [shape for shape, _ in calls]


def factor_call(shape, j, gram=True):
    """The one dense decomposition that ``linalg.leading_svd(m, j)`` runs on a
    ``shape`` matrix, as ``svd_calls`` records it.  Once ``max(d, n) >=
    RSVD_ASPECT * p`` (``p = min(d, n)``) and ``j < p`` it is of a p x p
    matrix: the ``eigh`` of the Gram of ``m`` when ``gram`` says that ``m``
    clears both conditions of the Gram route, else the SVD of the triangle
    of a QR.  Otherwise it is the thin SVD of ``m`` itself."""
    p = min(shape)
    if max(shape) >= RSVD_ASPECT * p and j < p:
        return (p, p), "eigh" if gram else True
    return shape, True


def re_pca_call(shape, k, gram=True):
    """The one dense decomposition that an attack's re-PCA runs on a ``shape``
    matrix whose truncation at ``k`` is not tied: the values-only SVD of the
    n x n triangle of an R-only QR at k = n < d, else ``factor_call(shape,
    k, gram)``."""
    d, n = shape
    return ((n, n), False) if d > n and k == n else factor_call(shape, k, gram)


def re_pca_svd_shape(shape, k):
    """The shape of ``re_pca_call(shape, k)``'s decomposition, on either route."""
    return re_pca_call(shape, k)[0]


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
