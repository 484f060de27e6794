"""Search-based verification oracles for the closed-form attacks, and
``verify``, the one table of checks that ``pcattack verify`` prints.

Randomized baselines, which ``verify`` and the ``-rnd`` sweep strategies
run, and exhaustive grid search over the two-angle reduction, which
``verify`` runs.  These never consult the closed forms they are used to
check (beyond evaluating the shared two-angle objective where that IS the
search space).

``verify(x, k, eta, cfg)`` checks each family of ``experiments.ATTACKS``,
read when it is called: its closed form against its random oracle, and
rank-one in ``KLtRankCase2`` against ``grid_search_angles`` too.  It returns
one ``Check`` per check, in family order.  A check passes when ``oracle <=
closed + tol``, with ``tol`` from ``_tolerance``: 1e-4 rad for a random
oracle and 1e-6 rad for the grid, absolute at every scale.  On a tied clean
top-k truncation (``report.CoreSpectrum.tied``) the oracles' top-k basis and
the closed forms' differ by a tie-break, so every check reads ``tied`` and
none fails.  A family with no room for its attack (``InvalidDimension``)
gives one ``skipped`` record with the reason, and when every family is
skipped, the last one's ``InvalidDimension`` is raised instead.

Reproducibility contract: randomness comes from a PCG64 stream seeded with
``cfg.seed``; trial i consumes the i-th fixed-size block of that uniform
stream, drawn on the calling thread in stream order, and normals are
produced from uniforms by the Box-Muller transform.  Each trial is
transformed and scored by the same numpy calls on the same numbers
whichever slice of a chunk it falls in, so results are independent of
chunking and of the number of scoring threads, and identical across runs;
the best over trials is reduced with a lowest-index tie-break.  The thread
count is the number of cores in the process's CPU affinity, read once at
import; there is no option or environment variable for it.  The scoring
threads are a standard ``concurrent.futures.ThreadPoolExecutor``: the first
batch long enough to slice imports ``concurrent.futures`` and makes the
pool, of ``_WORKERS - 1`` threads as ``_WORKERS`` reads at that moment, and
its threads stay, idle between calls, for the life of the process.  A
process that never slices a batch starts no thread and never imports it.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimension
from .experiments import ATTACKS
from .linalg import check_attack, full_svd, spectrum_of
from .rank_one import RankOneAttack, theta_from_angles
from .report import CoreSpectrum, Regime, core_spectrum
from .unconstrained import PerturbationMatrix

# Bytes of one chunk's largest temporary (the d x n stack, its Gram matrix or
# their eigenvectors), each within 8 * max(d, n)**2 per trial.
_CHUNK_BYTES = 16 * 2**20

# Row slices of a chunk run concurrently, one per usable core: numpy releases
# the GIL in batched eigh/eigvalsh/matmul and in float ufuncs.  A batch
# shorter than two slices of _MIN_SLICE rows runs as one call, with no thread.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_MIN_SLICE = 64


@dataclass(frozen=True)
class SearchConfig:
    trials: int = 10_000
    seed: int = 0
    grid_resolution: int = 400
    refine_steps: int = 2

    def __post_init__(self):
        for name, least in (("trials", 1), ("seed", 0), ("grid_resolution", 2),
                            ("refine_steps", 0)):
            count = getattr(self, name)
            try:
                count = operator.index(count)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {count!r}") from None
            if count < least:
                raise ValueError(f"{name} must be >= {least}")
            object.__setattr__(self, name, count)


def _box_muller(uniforms: np.ndarray, count: int) -> np.ndarray:
    """Standard normals from uniform rows via Box-Muller; returns (rows, count)."""
    pairs = uniforms.shape[1] // 2
    u1 = uniforms[:, :pairs]
    u2 = uniforms[:, pairs:2 * pairs]
    radius = np.sqrt(-2.0 * np.log1p(-u1))   # u1 in [0, 1) keeps the log finite
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return z[:, :count]


def normal_stream(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals drawn from the generator's uniform stream."""
    return _trial_normals(rng, 1, int(np.prod(shape))).reshape(shape)


def portable_normal(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic standard-normal array, stable across platforms."""
    return normal_stream(np.random.Generator(np.random.PCG64(seed)), shape)


def _by_rows(fn, rows: int, *arrays: np.ndarray) -> np.ndarray:
    """``fn(*arrays)``, computed over contiguous row slices of the arrays'
    leading axis, one per usable core and none under ``_MIN_SLICE`` rows.

    Slice 0 runs on the calling thread and the others on ``_slice_pool()``,
    a standard ``concurrent.futures.ThreadPoolExecutor`` that the first call
    with more than one slice imports and makes, of ``_WORKERS - 1`` threads
    as ``_WORKERS`` reads at that moment.  Every slice has ended
    (``concurrent.futures.wait``) before the results are concatenated in
    slice order, or before the exception of the first slice that raised is
    re-raised."""
    parts = min(_WORKERS, rows // _MIN_SLICE)
    if parts <= 1:
        return fn(*arrays)
    from concurrent.futures import wait
    bounds = [rows * i // parts for i in range(parts + 1)]
    rest = [_slice_pool().submit(fn, *(a[bounds[i]:bounds[i + 1]] for a in arrays))
            for i in range(1, parts)]
    try:
        first = fn(*(a[:bounds[1]] for a in arrays))
    finally:
        wait(rest)
    return np.concatenate([first] + [part.result() for part in rest])


@functools.cache
def _slice_pool():
    """The slice pool of ``_by_rows``, made once per process and not per
    call: a thread started per call can take a fresh malloc arena before
    the last one has handed its arena back, and each arena keeps the freed
    slice temporaries.  A worker drops each slice once it has run it, so an
    idle one holds nothing of the last call.  Two first calls at once may
    each make a pool; the one not kept is collected with its threads."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="pcattack-slice")


if hasattr(os, "register_at_fork"):     # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_slice_pool.cache_clear)


def _trial_normals(rng: np.random.Generator, rows: int, count: int) -> np.ndarray:
    block = 2 * ((count + 1) // 2)
    return _by_rows(lambda u: _box_muller(u, count), rows, rng.random((rows, block)))


def _batched_theta(basis: np.ndarray, x: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Achieved Asimov distance for a stack of candidate perturbations,
    scored by ``_slice_theta`` over row slices of the stack (``_by_rows``)."""
    return _by_rows(lambda part: _slice_theta(basis, x, part), len(deltas), deltas)


def _slice_theta(basis: np.ndarray, x: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Achieved Asimov distance for a stack of candidate perturbations.

    Each trial ``m = x + delta`` is first scaled by the power of two that
    brings its largest |entry| into [1/2, 1), which is exact and keeps the
    Gram matrix ``m m^T`` clear of overflow and underflow at any scale of
    ``x`` and eta.  The top-k eigenvectors ``U`` of that Gram matrix span
    the perturbed PCA subspace; the smallest eigenvalue of ``C^T C``, with
    ``C = basis^T U``, is cos^2 of the largest principal angle.  On 300
    random instances up to 30 x 30, the angles agreed with those from a full
    SVD of each ``m`` to 6.2e-12, and to 2.8e-9 where sigma_k and
    sigma_{k+1} of ``x`` were 1e-6 to 1e-4 apart relative to sigma_k.
    """
    k = basis.shape[1]
    m = x + deltas
    exponent = np.frexp(np.abs(m).max(axis=(1, 2)))[1]
    m = np.ldexp(m, -exponent[:, None, None], out=m)
    u_top = np.linalg.eigh(m @ m.transpose(0, 2, 1))[1][:, :, -k:]
    c = basis.T @ u_top
    cos2 = np.linalg.eigvalsh(c.transpose(0, 2, 1) @ c)[:, 0]
    return np.arccos(np.sqrt(np.clip(cos2, 0.0, 1.0)))


def _best_of_trials(x, k, eta, cfg: SearchConfig, width, candidates):
    """Best of ``cfg.trials`` random perturbations by achieved angle.

    Trial i maps the i-th block of ``width(d, n)`` normals through
    ``candidates(z, d, n, eta)``, which returns per-trial records and the
    stack of d x n perturbations they define.  Chunks hold at most
    ``_CHUNK_BYTES`` per temporary.  Returns the records of the first best
    trial and its angle.  A trial whose angle is not finite is skipped, and
    ArithmeticError is raised when no trial scores a finite angle.

    ``x + delta`` can pass the float64 maximum only when ``|x|`` or eta is
    past a quarter of it; the trials are then scored on ``x / 4`` and
    ``delta / 4``, which span the same subspaces, and the records stay in
    the data's scale.  Otherwise they are scored as they are.
    """
    x, k, eta = check_attack(x, k, eta)
    d, n = x.shape
    basis = full_svd(x).u[:, :k]
    shrink = 4.0 if max(float(np.abs(x).max()), eta) >= 2.0**1021 else 1.0
    scored = x / shrink
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    chunk = max(1, _CHUNK_BYTES // (8 * max(d, n) ** 2))

    best_theta, best = -1.0, None
    for done in range(0, cfg.trials, chunk):
        # the normals live only until the candidates are built, not while they score
        records, deltas = candidates(_trial_normals(rng, min(chunk, cfg.trials - done),
                                                     width(d, n)), d, n, eta)
        theta = np.nan_to_num(_batched_theta(basis, scored, deltas if shrink == 1.0
                                             else deltas / shrink), nan=-1.0)
        i = int(np.argmax(theta))
        if theta[i] > best_theta:
            best_theta, best = float(theta[i]), tuple(r[i].copy() for r in records)
    if best is None:
        raise ArithmeticError(f"no random trial at eta={eta!r} scored a finite angle")
    return best, best_theta


# Both build unit candidates and multiply by eta last: eta / ||a|| overflows
# for a budget near the float64 maximum.
def _rank_one_candidates(z, d, n, eta):
    a, b = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (z[:, :d], z[:, d:]))
    a *= eta
    return (a, b), a[:, :, None] * b[:, None, :]


def _dense_candidates(z, d, n, eta):
    z = z.reshape(-1, d, n)
    deltas = z / np.linalg.norm(z, axis=(1, 2))[:, None, None]
    deltas *= eta
    return (deltas,), deltas


def random_rank_one(x, k: int, eta: float, cfg: SearchConfig) -> tuple[RankOneAttack, float]:
    """Best of ``cfg.trials`` random rank-one attacks at budget eta.

    Each trial draws standard-normal (a, b), normalizes b to unit length and
    rescales a so the perturbation energy equals eta exactly.
    """
    (a, b), theta = _best_of_trials(x, k, eta, cfg, operator.add, _rank_one_candidates)
    return RankOneAttack(a=a, b=b), theta


def random_unconstrained(x, k: int, eta: float, cfg: SearchConfig) -> tuple[PerturbationMatrix, float]:
    """Best of ``cfg.trials`` dense Gaussian attacks scaled to energy eta."""
    (delta,), theta = _best_of_trials(x, k, eta, cfg, operator.mul, _dense_candidates)
    return PerturbationMatrix(delta=delta), theta


def _golden_max(f, lo: float, hi: float, iters: int = 40) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def grid_search_angles(sigma_k: float, sigma_k1: float, eta: float,
                       cfg: SearchConfig) -> tuple[float, float, float]:
    """Exhaustive maximization of the two-angle objective plus refinement.

    Scans a grid over [0, pi/2] x [pi/2, pi] and then runs coordinate-wise
    golden-section rounds inside the best cell.  Returns (alpha, beta,
    theta); ties resolve to the lowest grid index.
    """
    # The objective is homogeneous in (sigma_k, sigma_k1, eta), so it runs in
    # units of the largest rounded down to a power of two, which is exact and
    # keeps eta**2 in range at any scale.
    unit = math.ldexp(1.0, math.frexp(max(sigma_k, eta))[1] - 1)
    sigma_k, sigma_k1, eta = sigma_k / unit, sigma_k1 / unit, eta / unit
    res = cfg.grid_resolution
    alphas = np.linspace(0.0, math.pi / 2.0, res)
    betas = np.linspace(math.pi / 2.0, math.pi, res)
    # Row blocks of at most 128 KiB per temporary, glibc's default mmap
    # threshold.  Between random-oracle calls, one whole 400 x 400 grid took
    # 5.5-5.8 ms against 3.3-4.1 ms in blocks (medians of 60 calls, one BLAS
    # thread); alone, either took 3.3-4.2 ms.  The blocks do not make the
    # cost independent of what ran before: with them, 200 calls took 4.2 ms
    # in a fresh process and 3.0-3.3 ms after one 2 MB alloc and free.
    rows = max(1, 2**17 // (8 * res))
    best = (0.0, 0.0, -math.inf)
    for start in range(0, res, rows):
        block = theta_from_angles(sigma_k, sigma_k1, eta,
                                  alphas[start:start + rows, None], betas[None, :])
        i, j = divmod(int(np.argmax(block)), res)
        if block[i, j] > best[2]:       # strict, so a tie keeps the lowest grid index
            best = (float(alphas[start + i]), float(betas[j]), float(block[i, j]))

    alpha, beta, _ = best
    half = (math.pi / 2.0) / (res - 1)
    for _ in range(cfg.refine_steps):
        alpha, _ = _golden_max(
            lambda a: theta_from_angles(sigma_k, sigma_k1, eta, a, beta),
            max(0.0, alpha - half), min(math.pi / 2.0, alpha + half))
        beta, t = _golden_max(
            lambda b: theta_from_angles(sigma_k, sigma_k1, eta, alpha, b),
            max(math.pi / 2.0, beta - half), min(math.pi, beta + half))
        if t > best[2]:
            best = (alpha, beta, t)
        half *= 0.5
    return best


class Check(NamedTuple):
    """One check of ``verify``: the ``experiments.ATTACKS`` family and its
    ``kind`` (``random`` or ``grid``), the oracle's and the closed form's
    angles, the tolerance and the status: ``ok``, ``VIOLATION``, ``tied`` or
    ``skipped``.  A ``skipped`` record has only a family and the reason."""

    family: str
    kind: str | None
    oracle: float | None
    closed: float | None
    tol: float | None
    status: str
    reason: str | None = None


def _tolerance(kind: str, closed: float, at: CoreSpectrum) -> float:
    """How far a ``kind`` oracle's angle may pass the closed form's angle
    ``closed`` on the spectrum ``at``: an absolute angle per kind, whatever
    ``closed`` and ``at``."""
    return 1e-4 if kind == "random" else 1e-6


def _check(family: str, kind: str, oracle: float, closed: float, at: CoreSpectrum) -> Check:
    """The record of one check: the one place that compares the angles."""
    tol = _tolerance(kind, closed, at)
    return Check(family, kind, oracle, closed, tol,
                 "tied" if at.tied else "ok" if oracle <= closed + tol else "VIOLATION")


def verify(x, k: int, eta: float, cfg: SearchConfig) -> list[Check]:
    """The checks of each attack family at budget eta, as the module
    docstring states them.

    Both closed forms read one values-only SVD of ``x``; each oracle factors
    on its own, so that it stays independent of the closed form it checks."""
    x, k, eta = check_attack(x, k, eta)
    at = core_spectrum(spectrum_of(x), k)
    checks = []
    for name, family in ATTACKS.items():
        try:
            regime, closed, _ = family.closed_form(at, eta)
        except InvalidDimension as exc:
            checks.append(Check(name, None, None, None, None, "skipped", str(exc)))
            continue
        checks.append(_check(name, "random", family.oracle(x, k, eta, cfg)[1], closed, at))
        if regime == Regime.K_LT_RANK_CASE2:
            # the unit is a power of two, so these are sigma_k and sigma_{k+1} exactly
            grid = grid_search_angles(at.sigma_k * at.unit, at.sigma_k1 * at.unit, eta, cfg)
            checks.append(_check(name, "grid", grid[2], closed, at))
    if all(check.status == "skipped" for check in checks):
        raise InvalidDimension(checks[-1].reason)
    return checks

