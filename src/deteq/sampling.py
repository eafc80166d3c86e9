"""Monte Carlo sampling of profile ensembles and validation statistics.

Hermitian draws follow the GUE convention: diagonal entries are real
standard Gaussians, off-diagonal entries are complex with unit total
variance (real and imaginary parts of variance 1/2 each), everything
scaled by gamma(i, j) / sqrt(N).  Rectangular draws use gamma(i, j)
x_ij / sqrt(M) with the same complex entry convention.  Batches derive one
independent child stream per draw from the batch seed via
numpy.random.SeedSequence.spawn, so draw j is reproducible on its own.

Every Hermitian draw is built by ``_gue_draws``: ``_gue_fill`` draws each
seeded draw's Gaussian fields, and the stack of draws is then scaled and
mirrored into an output buffer of any layout, which the caller owns.
``sample_gue_profile`` allocates the buffers per draw; the two checks reuse
theirs from draw to draw.  The concentration loop takes the transposed view
of a Fortran-ordered buffer as the output, turns the draw there into
lambda - H - Y, and LAPACK factors and inverts it in place.

Both checks run their draws through ``_in_order``: a standard-library thread
pool with one worker per CPU in the affinity set runs the tasks, and the
calling thread takes their results in task order.  At most workers + 1
tasks are started and not yet taken, and the first failure, in a task or in
the calling thread, is raised once no worker is left.  Each concentration
task computes one draw's deviation in two workspaces that its worker keeps.
Their LAPACK calls, made through ``deteq._lapack`` into numpy's own
OpenBLAS, release the interpreter lock and run on one OpenBLAS thread: the
threaded LU factorization rounds otherwise, and the result then depends on
neither setting.  That OpenBLAS is a pthreads build, whose thread count
holds for the whole process, so the one pin around the pool holds in every
worker.

The master check cuts its draws into blocks of ``_block_draws(n)`` draws,
each block one stack of about ``_STACK_BYTES`` and one task.  Each draw is
seeded and filled on its own; every later step runs once over the block's
stack, through numpy's own LU inverse, matrix product and matrix-vector
products, which release the interpreter lock and round each draw as they
round one matrix.  The calling thread adds each block's terms to the two
running sums in draw order, so the sums are the ones the draw-by-draw loop
adds up, bit for bit, on any number of workers and with any block size.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._lapack import _inverse_trace, _one_blas_thread
from .dyson import (ConcentrationBound, SpectralParameter, _apply_r, _classify_deformation,
                    _prepare, _solve_path, _variance_map)
from .profiles import VarianceProfile

__all__ = [
    "SampleBatch",
    "sample_gue_profile",
    "sample_rect_gaussian",
    "check_master_equality",
    "validate_concentration",
]


@dataclass(frozen=True)
class SampleBatch:
    """Seeded description of a batch of draws from one ensemble."""

    seed: int
    count: int
    n: int

    def __post_init__(self) -> None:
        # spawn() takes only an integer count and an integer seed >= 0, and
        # would fail on either only after the caller's set-up
        if not _is_integer(self.count) or self.count < 1:
            raise ValueError("a sample batch needs an integer count >= 1")
        if not _is_integer(self.n) or self.n < 1:
            raise ValueError("a sample batch needs an integer n >= 1")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError("a sample batch needs an integer seed >= 0")

    def child_seeds(self):
        return np.random.SeedSequence(self.seed).spawn(self.count)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# numpy divides a complex array by the real sqrt(2) as a complex (Smith)
# division, which multiplies each part by this rounded reciprocal; every
# seeded draw, and each result built on one, depends on that rounding.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _gue_fill(rng: np.random.Generator, normals: np.ndarray, diag: np.ndarray) -> None:
    """Draw one Hermitian draw's Gaussian fields into buffers the caller owns.

    ``normals`` (float64, 2 x n x n) receives the real and then the imaginary
    off-diagonal field, and ``diag`` (float64, n) the diagonal after them.
    """
    rng.standard_normal(out=normals[0])
    rng.standard_normal(out=normals[1])
    rng.standard_normal(out=diag)


def _gue_draws(seeds, gamma: np.ndarray, normals: np.ndarray, z: np.ndarray,
               diag: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the Hermitian draws of ``seeds``, one per seed, into ``out[:m]``,
    m = len(seeds), and return that stack.

    Each buffer holds one draw per leading index, at least m of them:
    ``normals`` (float64, 2 x n x n) and ``diag`` (float64, n) receive each
    draw's Gaussian fields from ``_gue_fill``, ``z`` (complex, n x n) the
    entries gamma(i, j) x_ij / sqrt(N); ``out`` (complex, n x n) receives
    triu(z, 1) plus its conjugate transpose, with the real diagonal.  ``z``
    must overlap neither ``normals`` nor ``out``; ``out`` may overlap
    ``normals``, and may have any layout.  ``gamma`` is sqrt(profile).
    Each entry is rounded as in a draw built on its own.
    """
    m = len(seeds)
    for j, seed in enumerate(seeds):
        _gue_fill(np.random.default_rng(seed), normals[j], diag[j])
    normals, z, diag, out = normals[:m], z[:m], diag[:m], out[:m]
    scale = 1.0 / np.sqrt(gamma.shape[0])
    np.multiply(normals[:, 0], _INV_SQRT2, out=z.real)
    np.multiply(normals[:, 1], _INV_SQRT2, out=z.imag)
    z *= gamma  # complex products, as the draw has always rounded them
    z *= scale
    np.multiply(np.diagonal(gamma), diag, out=diag)
    diag *= scale
    np.copyto(z, 0.0, where=np.tri(z.shape[-1], dtype=bool))  # z is now triu(z, 1)
    np.conjugate(np.swapaxes(z, -1, -2), out=out)
    out += z
    np.einsum("...ii->...i", out)[...] = diag
    return out


def sample_gue_profile(profile: VarianceProfile, seed) -> np.ndarray:
    """One Hermitian draw H = (gamma(i, j) x_ij / sqrt(N))_ij.

    The output is exactly Hermitian by construction: the strict upper
    triangle is drawn, mirrored conjugately, and the diagonal is real.
    """
    if profile.mode != "hermitian":
        raise ValueError("sample_gue_profile needs a hermitian-mode profile")
    n = profile.rows
    out = np.empty((1, n, n), dtype=np.complex128)
    return _gue_draws([seed], np.sqrt(profile.entries), np.empty((1, 2, n, n)),
                      np.empty_like(out), np.empty((1, n)), out)[0]


def sample_rect_gaussian(profile: VarianceProfile, seed) -> np.ndarray:
    """One rectangular draw X = (gamma(i, j) x_ij / sqrt(M))_ij, x_ij complex."""
    if profile.mode != "rectangular":
        raise ValueError("sample_rect_gaussian needs a rectangular-mode profile")
    rng = np.random.default_rng(seed)
    n, m = profile.rows, profile.cols
    z = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)
    return np.sqrt(profile.entries) * z / np.sqrt(m)


# The master check's blocks of draws are sized so that one n x n complex
# stack of them takes about this many bytes; a running block holds three such
# stacks: the two terms of each draw, and the inverses.
_STACK_BYTES = 640_000


def _block_draws(n: int) -> int:
    """Draws per block of the master check: 16 at n = 50, one from n = 142."""
    return max(1, _STACK_BYTES // (16 * n * n))


def check_master_equality(profile: VarianceProfile, y, lam: SpectralParameter,
                          batch: SampleBatch) -> float:
    """Operator-norm deviation in the resolvent identity

        E[X (Lambda - H)^(-1)] = E[R(diag resolvent) (Lambda - H)^(-1)],

    H = X + Y, estimated with ``batch.count`` Monte Carlo draws.  The
    deviation tends to 0 like count^(-1/2); both sides share every draw, so
    the statistic is a pure fluctuation measure.  The draws run in blocks on
    ``_worker_count`` threads; the result depends on neither the worker count
    nor the block size.
    """
    w = _variance_map(profile)
    n = w.shape[0]
    if batch.n != n or lam.dim != n:
        raise ValueError("batch, profile and Lambda dimensions disagree")
    y = _classify_deformation(y, n)
    lam_mat = np.diag(lam.diag)
    gamma = np.sqrt(profile.entries)
    children = batch.child_seeds()
    size = _block_draws(n)
    sums = np.zeros((2, n, n), dtype=np.complex128)  # sum R(diag M) M and sum X M
    spares = []  # stacks of terms whose block is in the sums

    def block(k: int):
        """Block k's stack of terms, and its number of draws."""
        # terms[:, j] receives the two terms of the block's draw j.  Before
        # that, terms[0] holds the block's Gaussian fields and then its draws
        # X, and terms[1] its entries z and then Lambda - X - Y.
        try:
            terms = spares.pop()
        except IndexError:
            terms = np.empty((2, size, n, n), dtype=np.complex128)
        normals = terms[0].view(np.float64).reshape(size, 2, n, n)
        seeds = children[k * size:(k + 1) * size]
        m = len(seeds)
        x = _gue_draws(seeds, gamma, normals, terms[1], np.empty((size, n)), terms[0])
        shifted = terms[1, :m]
        np.subtract(lam_mat, x, out=shifted)
        y.combine(shifted, np.subtract)
        resolvent = np.linalg.inv(shifted)
        np.matmul(x, resolvent, out=shifted)
        # one matrix-vector product per draw, as for one draw: a stacked
        # (m, n) @ w.T product would round otherwise
        r = _apply_r(w, np.einsum("...ii->...i", resolvent)[..., np.newaxis])
        np.multiply(r, resolvent, out=x)
        return terms, m

    def add(result) -> None:
        terms, m = result
        # ((sums + t_1) + t_2) + ..., in draw order; a reduction over the
        # stack may sum pairwise, as it does where n = 1
        for j in range(m):
            np.add(sums, terms[:, j], out=sums)
        spares.append(terms)

    _in_order(block, -(-batch.count // size), add)
    rhs, lhs = sums
    return float(np.linalg.norm((lhs - rhs) / batch.count, 2))


def _worker_count(tasks: int) -> int:
    """One worker per CPU this process may run on, and at most one per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, tasks)


def _in_order(task: Callable, count: int, take: Callable) -> None:
    """Run task(k) for k = 0, ..., count - 1 on ``_worker_count(count)``
    threads, and take(result) on the calling thread in order of k.

    At most workers + 1 tasks are started and not yet taken at a time: one
    result waiting per worker is enough, since ``take`` is quick, and it
    bounds the results held.  The first failure, in a task or in
    ``take``, is raised once the running tasks have ended; no task starts
    after it.
    """
    # imported on first use: concurrent.futures loads logging, which
    # ``import deteq`` does not need
    from concurrent.futures import ThreadPoolExecutor

    workers = _worker_count(count)
    pool = ThreadPoolExecutor(workers)
    try:
        started = deque()
        for k in range(count):
            started.append(pool.submit(task, k))
            if len(started) > workers:
                take(started.popleft().result())
        while started:
            take(started.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


def validate_concentration(profile: VarianceProfile, y, lam: complex, d: float,
                           delta: float, draws: int, seed: int) -> dict:
    """Empirical check of the trace-level concentration bound.

    Draws ``draws`` matrices, compares each empirical Stieltjes trace at
    ``lam`` with the Dyson value, and reports the fraction of draws whose
    deviation stays within epsilon_tilde.  Raises ValueError, before any
    draw, when Im ``lam`` is too small for the bound to apply.  The draws
    run on ``_worker_count`` threads, with OpenBLAS on one thread, so the
    result depends neither on the worker count nor on the BLAS setting.
    """
    batch = SampleBatch(seed=seed, count=draws, n=profile.rows)
    model = _prepare(profile, y)
    n = model.n
    bound = ConcentrationBound(gamma_max=np.sqrt(model.gamma_max_sq),
                               delta=delta, d=d, n=n, im_lambda=complex(lam).imag,
                               diagonal_y=not model.y.dense)
    if not bound.admissible:
        raise ValueError(f"the concentration bound needs Im lambda >= "
                         f"{bound.min_im_lambda:.6g} here, got {bound.im_lambda:.6g}")
    sol = next(_solve_path(model, [SpectralParameter.scalar(lam, n)]))
    if not sol.converged:
        raise RuntimeError("Dyson solve did not converge; cannot validate")
    g_det = complex(sol.g_square.diag.mean())

    gamma = np.sqrt(profile.entries)
    strict_lower = np.tri(n, k=-1, dtype=bool)
    children = batch.child_seeds()
    local = threading.local()  # each worker's workspaces

    def deviation(j: int) -> float:
        # Two workspaces serve every draw of a worker.  ``a`` holds
        # lambda - H - Y in Fortran order, and its memory holds the draw's
        # Gaussian fields before that; ``lower`` holds the draw's entries z,
        # then L^(-1).  The draw goes into a.T, so ``a`` holds H^T = conj(H),
        # and negating its real part leaves -H.  H is Hermitian by
        # construction, and _prepare has checked Y, so neither is checked again.
        if not hasattr(local, "a"):
            local.a = np.empty((n, n), dtype=np.complex128, order="F")
            local.lower = np.empty_like(local.a)
            local.diag = np.empty((1, n))
        a, lower = local.a, local.lower
        normals = a.reshape(-1, order="F").view(np.float64).reshape(1, 2, n, n)
        _gue_draws(children[j:j + 1], gamma, normals, lower.T[np.newaxis], local.diag,
                   a.T[np.newaxis])
        np.negative(a.real, out=a.real)
        model.y.combine(a, np.subtract)
        a.T.flat[::n + 1] += lam
        return abs(_inverse_trace(a, lower, strict_lower) - g_det)

    deviations = []
    with _one_blas_thread():
        _in_order(deviation, draws, deviations.append)
    deviations = np.array(deviations)
    passes = int(np.sum(deviations <= bound.epsilon_tilde))
    return {
        "draws": draws,
        "passes": passes,
        "pass_rate": passes / draws,
        "epsilon_tilde": bound.epsilon_tilde,
        "admissible": bound.admissible,
        "max_deviation": float(deviations.max()),
    }
