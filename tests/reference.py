"""The helpers the tests share, and the dense references they compare deteq with.

Each reference computes its result the plain, slow way, one matrix or one
row at a time.  pytest's default import mode puts this directory on
``sys.path``, so a test module imports this one as ``reference``.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from scipy.linalg import lapack

from deteq import _lapack, dyson
from deteq.dilation import RectangularModel, dilate_model
from deteq.dyson import (OperatorStieltjes, SpectralParameter, _Prepared, omega_square,
                         psi_step, solve_dyson)
from deteq.outliers import SpikeSet
from deteq.profiles import VarianceProfile, constant_profile


def g_semicircle(lam: complex) -> complex:
    """The semicircle's Stieltjes transform, with the branch cut on [-2, 2]."""
    return (lam - np.sqrt(complex(lam - 2.0)) * np.sqrt(complex(lam + 2.0))) / 2.0


def random_profile(n: int, seed) -> VarianceProfile:
    """A symmetric profile of uniform entries; ``seed`` is an integer or a
    Generator, whose stream the draw continues."""
    a = np.random.default_rng(seed).random((n, n))
    return VarianceProfile((a + a.T) / 2.0, "hermitian")


def criterion_5_profile() -> VarianceProfile:
    """Criterion 5's model: the dilated 360 x 400 constant profile."""
    return dilate_model(RectangularModel(profile=constant_profile(360, 400, 1.0))).profile


def reference_trace(h: np.ndarray, lam: complex) -> complex:
    """The LU trace (1/n) tr (lam - H)^(-1) as first written: a factorization
    of a C-ordered copy through scipy's f2py wrappers, and a gather of
    U^(-1)'s rows by the pivot permutation."""
    n = h.shape[0]
    a = np.negative(h, dtype=np.complex128)
    a.flat[::n + 1] += lam
    lu, swaps, _ = lapack.zgetrf(a)
    lu, _ = lapack.ztrtri(lu, lower=0)
    lu, _ = lapack.ztrtri(lu, lower=1, unitdiag=1)
    p = np.arange(n)
    for k, j in enumerate(swaps):
        p[k], p[j] = p[j], p[k]
    u_inv = np.triu(lu)[p]
    return complex((np.einsum("kj,jk->", u_inv, np.tril(lu, -1)) + u_inv.trace()) / n)


@pytest.fixture
def one_blas_thread():
    """Runs the test on one OpenBLAS thread, as the concentration loop runs its
    kernel: OpenBLAS's threaded LU factorization rounds otherwise, so a
    reference computed on more threads can differ in the last bits.  Both
    OpenBLAS libraries are pinned: deteq's, which is numpy's, and scipy's,
    which the f2py reference calls."""
    setters = [_lapack._lapack().set_blas_threads,
               ctypes.CDLL(lapack._flapack.__file__).openblas_set_num_threads_local]
    saved = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, threads in zip(setters, saved):
            set_threads(threads)


def averaged_fixed_point(prof, y, lam, tolerance=1e-12, max_iterations=20000):
    """Reference: the averaged iteration g <- (g + psi(g)) / 2 from -i / Im lambda.

    Helton, Rashidi Far & Speicher prove that it converges to the unique
    fixed point in the Stieltjes domain.
    """
    g = OperatorStieltjes(-1j / lam.diag.imag)
    for _ in range(max_iterations):
        psi_g = psi_step(prof, y, lam, g)
        if np.abs(psi_g.diag - g.diag).max() <= tolerance:
            return psi_g.diag
        g = OperatorStieltjes((g.diag + psi_g.diag) / 2.0)
    raise AssertionError("reference iteration did not converge")


def row_by_row(w, y) -> _Prepared:
    """A model whose every row is its own class, with Y as given.

    ``_prepare`` reads Y = c I as diagonal; building the model directly
    keeps a dense Y dense, so its solves take the Bunch-Kaufman inertia.
    """
    n = w.shape[0]
    rows = np.arange(n)
    y = (dyson._DenseY if y.ndim == 2 else dyson._DiagonalY)(y)
    return _Prepared(n, rows, rows, np.ones(n, dtype=np.int64), w, y,
                     float(w.max()) * n, w * n)


def plain_real_solve(w, y, lam, g, cap, tolerance):
    """The real-axis solve by plain steps g <- psi(g) on every row: the reference.

    Returns (G, decided): G once the residual is at most ``tolerance``, None
    once psi crosses a pole (its inertia changes or it is non-finite).  Y is
    a diagonal vector or a dense matrix; a dense Y's inertia is the count of
    positive eigenvalues of lambda - R(g) - Y.
    """
    signs = None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(cap):
            if y.ndim == 1:
                psi = 1.0 / (lam - w @ g - y)
                inertia = psi > 0.0
            else:
                e, v = np.linalg.eigh(np.diag(lam - w @ g) - y)
                psi = (v * v / e).sum(axis=1)
                inertia = np.count_nonzero(e > 0.0)
            signs = inertia if signs is None else signs
            if not np.all(np.isfinite(psi)) or np.any(inertia != signs):
                return None, True
            if np.max(np.abs(psi - g)) <= tolerance:
                return g, True
            g = psi
    return None, False


def resolvent_side_det(prof: VarianceProfile, y: np.ndarray, spikes: SpikeSet,
                       lam_value: complex) -> complex:
    """det(I - U* (Omega(lambda I) - Y)^(-1) U Theta) with a dense solve."""
    lam = SpectralParameter.scalar(lam_value, prof.rows)
    omega = omega_square(prof, solve_dyson(prof, y, lam), lam)
    core = spikes.u.conj().T @ np.linalg.solve(np.diag(omega) - y, spikes.u)
    return complex(np.linalg.det(np.eye(spikes.k) - core * spikes.theta))
