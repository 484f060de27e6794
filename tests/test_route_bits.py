"""The shifted Cholesky tests that choose a route change no output bit.

Two tests only skip work whose answer they already prove: the Cholesky of
the Gram of the leading ``GRAM_BLOCK`` columns, which declines the Gram
route before the p x p Gram is formed, and the Cholesky of the Gram of the
triangle of a k = n < d re-PCA, which certifies that its truncation is not
tied without the triangle's SVD.  Each seeded instance runs ``leading_svd``,
``pca_distance`` and both attacks with those two tests on, and with both
forced off (the block never tested, no triangle certified), and the two
runs must agree in every bit, errors included.
"""

import numpy as np
import pytest
from conftest import matrix_with_spectrum, outcome

from pcattack import (attack_rank_one, attack_unconstrained, full_svd, pca_distance,
                      synth_gaussian, synth_low_rank)
from pcattack import linalg
from pcattack.linalg import GRAM_BLOCK, leading_svd

D, N = 120, 72     # p = 72 is wider than the block, and d >= RSVD_ASPECT * p
assert N > GRAM_BLOCK and D >= linalg.RSVD_ASPECT * N
SEEDS = range(24)
RATIOS = (0.3, 0.9, 1.5, 3.0)   # budgets in units of the gap at k
NOISE = (1e-9, 1e-6, 1e-3, 0.3)  # y's distance from x in units of the gap at k


def _spectrum(sigma, seed, shape=(D, N)):
    return matrix_with_spectrum(sigma, *shape, seed=seed)


def _without_last_pair(x):
    """``x`` with its last singular pair removed: tied at k = n."""
    svd = full_svd(x)
    return x - svd.sigma[-1] * np.outer(svd.u[:, -1], svd.v[:, -1])


# kind: seed -> (x, k, y or None); y None is x plus seeded noise
KINDS = {
    "rank-8-tall": lambda s: (synth_low_rank(D, N, 8, seed=s), 3 + s % 4, None),
    "rank-8-wide": lambda s: (synth_low_rank(N, D, 8, seed=s), 3 + s % 4, None),
    "rank-block+4-tall": lambda s: (synth_low_rank(D, N, GRAM_BLOCK + 4, seed=s),
                                    (3, N)[s % 2], None),
    "rank-block+4-wide": lambda s: (synth_low_rank(N, D, GRAM_BLOCK + 4, seed=s), 3, None),
    "condition-below-2^10": lambda s: (_spectrum(np.geomspace(1.0, 1.02 * 2.0**-10, N), s),
                                       (3, N)[s % 2], None),
    "condition-above-2^10": lambda s: (_spectrum(np.geomspace(1.0, 2.0**-10 / 1.02, N), s),
                                       (3, N)[s % 2], None),
    "k=n-sigma_n-near-1e-9": lambda s: (
        _spectrum(np.geomspace(1.0, (0.5, 0.9, 1.1, 2.0)[s % 4] * 1e-9, N), s), N, None),
    "k=n-tied-y": lambda s: (synth_gaussian(D, N, seed=s), N,
                             _without_last_pair(synth_gaussian(D, N, seed=s))),
    "gaussian-2^-900": lambda s: (np.ldexp(synth_gaussian(D, N, seed=s), -900), (3, N)[s % 2],
                                  None),
    "gaussian-2^600": lambda s: (np.ldexp(synth_gaussian(D, N, seed=s), 600), (3, N)[s % 2],
                                 None),
    "gaussian-2^1015": lambda s: (np.ldexp(synth_gaussian(D, N, seed=s), 1015), (3, N)[s % 2],
                                  None),
}


def _outcomes(x, k, y, seed):
    sigma = np.append(full_svd(x).sigma, 0.0)
    gap = sigma[k - 1] - sigma[k]
    if y is None:
        noise = synth_gaussian(*x.shape, seed=seed + 1000)
        y = x + NOISE[seed % 4] * gap / np.linalg.norm(noise, 2) * noise
    eta = RATIOS[seed % 4] * gap
    p = min(x.shape)
    return [outcome(lambda: leading_svd(x, min(k + 1, p))),
            outcome(lambda: leading_svd(x, k)),
            outcome(lambda: pca_distance(x, y, k)),
            outcome(lambda: attack_rank_one(x, k, eta)),
            outcome(lambda: attack_unconstrained(x, k, eta))]


@pytest.fixture
def choleskys(monkeypatch):
    """``(shape, cleared)`` of each shifted Cholesky test, in call order:
    every ``np.linalg.cholesky`` call, and whether it found a factor."""
    calls = []
    cholesky = np.linalg.cholesky

    def recording(a, *args, **kwargs):
        try:
            factor = cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            calls.append((np.shape(a), False))
            raise
        calls.append((np.shape(a), True))
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_route_tests_change_no_bit(monkeypatch, choleskys, kind):
    on = []
    for seed in SEEDS:
        on.append(_outcomes(*KINDS[kind](seed), seed))
    seen = set(choleskys)
    with monkeypatch.context() as off:
        off.setattr(linalg, "GRAM_BLOCK", 10**9)
        off.setattr(linalg, "_untied_triangle", lambda r, e: False)
        for seed in SEEDS:
            assert _outcomes(*KINDS[kind](seed), seed) == on[seed], (kind, seed)
    block = (GRAM_BLOCK, GRAM_BLOCK)
    # each kind reaches the outcome of the tests it is there for
    if kind.startswith("rank-8"):
        assert (block, False) in seen
    if kind.startswith("rank-block+4"):
        assert {(block, True), ((N, N), False)} <= seen
    if kind == "k=n-sigma_n-near-1e-9":
        assert ((N, N), False) in seen and ((N, N), True) not in seen
    if kind == "k=n-tied-y":
        assert ((N, N), False) in seen
    if kind.startswith("gaussian"):
        assert {(block, True), ((N, N), True)} <= seen
