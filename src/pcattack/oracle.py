"""Search-based verification oracles for the closed-form attacks.

Randomized baselines, exhaustive grid search over the two-angle reduction,
finite-difference stationarity checks, and a from-the-definition principal
angle solver.  These never consult the closed forms they are used to check
(beyond evaluating the shared two-angle objective where that IS the search
space).

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
threads start on first use and stay, idle between calls, for the life of
the process.
"""

from __future__ import annotations

import math
import operator
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, OracleTooExpensive
from .linalg import _as_basis, check_attack, full_svd
from .rank_one import RankOneAttack, _rotation_angle, theta_from_angles
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")


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

    Slice 0 runs on the calling thread and the others on ``_slice_workers``.
    Every slice has ended before the results are concatenated in slice
    order, or before the exception of the first slice that raised is
    re-raised."""
    parts = min(_WORKERS, rows // _MIN_SLICE)
    if parts <= 1:
        return fn(*arrays)
    bounds = [rows * i // parts for i in range(parts + 1)]
    results, errors = [None] * parts, [None] * parts

    def run(i):
        try:
            results[i] = fn(*(a[bounds[i]:bounds[i + 1]] for a in arrays))
        except BaseException as exc:    # re-raised on the calling thread
            errors[i] = exc

    tasks, done = _slice_workers(parts - 1), queue.SimpleQueue()
    for i in range(1, parts):
        tasks.put((run, i, done))
    run(0)
    for _ in range(1, parts):
        done.get()
    for exc in errors:
        if exc is not None:
            raise exc
    return np.concatenate(results)


_tasks = queue.SimpleQueue()
_workers: list[threading.Thread] = []
_workers_lock = threading.Lock()


def _slice_workers(count: int) -> queue.SimpleQueue:
    """The task queue of at least ``count`` daemon threads, started on first
    need and kept for the life of the process: a thread started per call
    can take a fresh malloc arena before the last one has handed its arena
    back, and each arena keeps the freed slice temporaries.  A task is
    ``(run, i, done)``: the worker calls ``run(i)``, which does not raise,
    then puts ``i`` on ``done``."""
    with _workers_lock:
        while len(_workers) < count:
            _workers.append(threading.Thread(target=_serve, name="pcattack-slice", daemon=True))
            _workers[-1].start()
    return _tasks


def _forget_workers() -> None:
    """Start afresh in a forked child, which inherits the queue and the lock
    but none of the threads."""
    global _tasks, _workers_lock
    _tasks, _workers_lock = queue.SimpleQueue(), threading.Lock()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _serve() -> None:
    while True:
        run, i, done = _tasks.get()
        run(i)
        # an idle worker holds nothing of the last call: its arrays and results
        run = None
        done.put(i)


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


def stationarity_residual(sigma_k: float, sigma_k1: float, eta: float,
                          alpha: float, beta: float, step: float = 1e-5) -> float:
    """Max |central finite difference| of the rotation angle at (alpha, beta).

    Near zero only at stationary points of the two-angle objective.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    d_alpha = (_rotation_angle(sigma_k, sigma_k1, eta, alpha + step, beta)
               - _rotation_angle(sigma_k, sigma_k1, eta, alpha - step, beta)) / (2.0 * step)
    d_beta = (_rotation_angle(sigma_k, sigma_k1, eta, alpha, beta + step)
              - _rotation_angle(sigma_k, sigma_k1, eta, alpha, beta - step)) / (2.0 * step)
    return float(max(abs(d_alpha), abs(d_beta)))


def _max_on_sphere(g: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, float]:
    """Maximize ||g c|| over unit c in R^m (m <= 3) by search.

    A hemisphere grid seeds the search; great-circle coordinate ascent
    (golden-section along tangent arcs, re-orthonormalized each round)
    refines it without any pole pathology.
    """
    m = g.shape[1]
    if m == 1:
        c = np.array([1.0])
        return c, float(np.linalg.norm(g @ c))
    res = max(cfg.grid_resolution, 64)
    if m == 2:
        psis = np.linspace(0.0, math.pi, res)
        cands = np.stack([np.cos(psis), np.sin(psis)])
        span = math.pi / (res - 1)
    else:
        psis = np.linspace(0.0, 2.0 * math.pi, 2 * res)
        chis = np.linspace(0.0, math.pi / 2.0, res // 2 + 1)
        pp, cc = np.meshgrid(psis, chis, indexing="ij")
        cands = np.stack([np.sin(cc) * np.cos(pp),
                          np.sin(cc) * np.sin(pp),
                          np.cos(cc)]).reshape(3, -1)
        span = max(2.0 * math.pi / (2 * res - 1), (math.pi / 2.0) / max(1, res // 2))
    vals = np.linalg.norm(g @ cands, axis=0)
    best = int(np.argmax(vals))
    c = cands[:, best].copy()

    def fval(vec: np.ndarray) -> float:
        return float(np.linalg.norm(g @ vec))

    # Pattern-search step control: keep the arc span generous while the
    # iterate is still traveling, shrink only once moves stall.
    initial = 2.0 * span
    span = initial
    for _ in range(40):
        moved = 0.0
        for t in _drop_direction(np.eye(c.size), c).T:   # a tangent basis at c
            omega, _ = _golden_max(
                lambda w, t=t: fval(math.cos(w) * c + math.sin(w) * t),
                -span, span, iters=40)
            if omega != 0.0:
                c = math.cos(omega) * c + math.sin(omega) * t
                c /= np.linalg.norm(c)
            moved = max(moved, abs(omega))
        span = min(max(2.5 * moved, 0.35 * span), initial)
        if span < 1e-9:
            break
    return c, fval(c)


def _drop_direction(cols: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(cols) with ``direction`` projected out."""
    m = cols.shape[1]
    resid = cols - np.outer(direction, direction @ cols)
    kept = []
    for j in range(m):
        w = resid[:, j].copy()
        for q in kept:
            w -= (q @ w) * q
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            kept.append(w / nw)
        if len(kept) == m - 1:
            break
    return np.stack(kept, axis=1) if kept else np.zeros((cols.shape[0], 0))


def brute_force_principal_angles(a, b, cfg: SearchConfig) -> np.ndarray:
    """Principal angles from the recursive definition, by projected search.

    At each step the cosine is maximized over unit vectors in the remaining
    subspaces (the inner maximization over the second subspace is a
    projection; the outer one is an angle-grid search), then both subspaces
    are deflated.  Intended purely as a small-scale test oracle.
    """
    cols_a, cols_b = _as_basis(a).columns.copy(), _as_basis(b).columns.copy()
    if cols_a.shape != cols_b.shape:
        raise InvalidDimension("bases must match in shape")
    d, k = cols_a.shape
    if k > 3 or d > 6:
        raise OracleTooExpensive(f"brute force limited to k <= 3, d <= 6; got k={k}, d={d}")
    angles = []
    for _ in range(k):
        g = cols_b.T @ cols_a
        c, best = _max_on_sphere(g, cfg)
        u = cols_a @ c
        w = cols_b.T @ u
        nw = np.linalg.norm(w)
        v = cols_b @ (w / nw) if nw > 1e-12 else cols_b[:, 0]
        angles.append(math.acos(min(1.0, max(0.0, best))))
        cols_a = _drop_direction(cols_a, u)
        cols_b = _drop_direction(cols_b, v)
        if cols_a.shape[1] == 0 or cols_b.shape[1] == 0:
            break
    return np.sort(np.array(angles))
