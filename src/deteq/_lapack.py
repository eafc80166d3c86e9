"""deteq's one binding to LAPACK: ``ctypes`` on scipy's table of function
pointers, ``scipy.linalg.cython_lapack``, loaded from its file so that
``scipy.linalg``'s ``__init__`` never runs.  Only this module passes a raw
pointer to LAPACK, after checking the arrays, and each call releases the
interpreter lock.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
from typing import Callable, NamedTuple

import numpy as np


class _Lapack(NamedTuple):
    """LAPACK routines called through ``ctypes``, which releases the interpreter lock."""

    zgetrf: Callable
    ztrtri: Callable
    zlaswp: Callable
    zhetrf: Callable
    zhetri: Callable
    dsytrf: Callable
    dsytri: Callable
    # OpenBLAS's openblas_set_num_threads_local, or None under another BLAS
    set_blas_threads: Callable | None


_LAPACK_NAME = "scipy.linalg.cython_lapack"
_LOADING = threading.Lock()
# cython_lapack's C argument types, each one passed as a pointer
_C_TYPES = {"int *": ctypes.POINTER(ctypes.c_int), "char *": ctypes.c_char_p,
            "__pyx_t_double_complex *": ctypes.c_void_p, "double *": ctypes.c_void_p,
            "__pyx_t_5scipy_6linalg_13cython_lapack_d *": ctypes.c_void_p}


def _cython_lapack():
    """scipy's table of LAPACK function pointers, loaded without running
    scipy.linalg's ``__init__`` (about 20 MB and 0.2 s more).  Importing
    scipy.linalg later works, and finds this module in ``sys.modules``."""
    module = sys.modules.get(_LAPACK_NAME)
    if module is not None:
        return module
    roots = getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", None)
    paths = [os.path.join(root, "linalg", "cython_lapack" + suffix) for root in roots or ()
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if path is None:  # not laid out as scipy's wheels are: the plain import
        return importlib.import_module(_LAPACK_NAME)
    spec = importlib.util.spec_from_file_location(_LAPACK_NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_LAPACK_NAME] = module
    return module


@functools.cache
def _lapack() -> _Lapack:
    """The routines the kernels call, loaded once per process.  The lock keeps
    a second thread from seeing the module half loaded."""
    with _LOADING:
        module = _cython_lapack()
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))

    def routine(name):
        capsule = module.__pyx_capi__[name]
        signature = capsule_name(capsule)  # the C signature, e.g. b"void (int *, ...)"
        text = signature.decode()
        args = text.removeprefix("void (").removesuffix(")").split(", ")
        if not text.startswith("void (") or not set(args) <= _C_TYPES.keys():
            raise ImportError(f"{_LAPACK_NAME}.{name} has the unexpected signature {text}")
        return ctypes.CFUNCTYPE(None, *(_C_TYPES[a] for a in args))(
            capsule_pointer(capsule, signature))

    # dlsym on the extension's handle also searches the libraries it links,
    # which include the OpenBLAS that scipy's wheels bundle
    set_threads = getattr(ctypes.CDLL(module.__file__), "openblas_set_num_threads_local", None)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    return _Lapack(*map(routine, _Lapack._fields[:-1]), set_threads)


# OpenBLAS's pthreads build sets its thread count for the whole process, so
# two runs that each saved and restored it could leave it changed.
_BLAS_PINNED = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the OpenBLAS that LAPACK is called through to one thread.

    OpenBLAS's threaded LU factorization rounds otherwise than its one-thread
    one.  The setting is restored on leaving.
    """
    set_threads = _lapack().set_blas_threads
    with _BLAS_PINNED:
        saved = None if set_threads is None else set_threads(1)
        try:
            yield
        finally:
            if saved is not None:
                set_threads(saved)


def _inverse_trace(a: np.ndarray, lower: np.ndarray, strict_lower: np.ndarray) -> complex:
    """(1/n) tr a^(-1) of a Fortran-ordered complex n x n ``a``, factored in place.

    With the partial-pivoting LU factorization P a = L U, the inverse is
    U^(-1) L^(-1) P, so its trace is sum_kj U^(-1)[p_k, j] L^(-1)[j, k]: two
    triangular inverses and no product, half the flops of the full inverse.
    LAPACK overwrites ``a`` with U^(-1) over L^(-1); L^(-1)'s strict lower
    triangle moves into ``lower`` (n x n complex, Fortran-ordered, zero
    elsewhere), and ``zlaswp`` applies the row interchanges to U^(-1), which
    is the gather U^(-1)[p] done in place.  ``strict_lower`` is the n x n
    mask of the strict lower triangle.  Both workspaces are overwritten.
    The LAPACK calls release the interpreter lock.
    """
    n = a.shape[0]
    # LAPACK reads and writes a through its pointer
    if (a.dtype != np.complex128 or a.shape != (n, n) or not a.flags.f_contiguous
            or not a.flags.writeable):
        raise ValueError("the trace kernel needs a writeable Fortran-ordered complex square array")
    lapack = _lapack()
    size, one, info = ctypes.c_int(n), ctypes.c_int(1), ctypes.c_int(0)
    swaps = np.empty(n, dtype=np.intc)  # LAPACK's 1-based row interchanges
    ref, data, pivots = ctypes.byref, a.ctypes.data, swaps.ctypes.data_as(_C_TYPES["int *"])
    lapack.zgetrf(ref(size), ref(size), data, ref(size), pivots, ref(info))
    if info.value == 0:  # U^(-1) over U in the upper triangle, then L^(-1) below it
        lapack.ztrtri(b"U", b"N", ref(size), data, ref(size), ref(info))
    if info.value == 0:
        lapack.ztrtri(b"L", b"U", ref(size), data, ref(size), ref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError("lam - H is singular")
    lower.fill(0.0)
    np.copyto(lower, a, where=strict_lower)
    np.copyto(a, 0.0, where=strict_lower)
    # LAPACK's row interchanges, in order
    lapack.zlaswp(ref(size), data, ref(size), ref(one), ref(size), pivots, ref(one))
    # L^(-1) has a unit diagonal, which contributes trace(U^(-1)[p])
    return complex((np.einsum("kj,jk->", a, lower) + a.trace()) / n)


def _hermitian_inverse_diagonal(a: np.ndarray):
    """diag(a^(-1)), the count of positive eigenvalues and a^(-1), for a Hermitian a.

    All three come from one Bunch-Kaufman factorization a = U D U*, where D
    has the inertia of a (Sylvester).  Bunch-Kaufman takes a 2 x 2 pivot
    only when its determinant is negative, so each 2 x 2 block of D holds
    one positive eigenvalue.  A singular a gives a NaN diagonal and inverse.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("the Bunch-Kaufman kernel needs a non-empty square array")
    lapack = _lapack()
    complex_entries = np.iscomplexobj(a)
    trf, tri = ((lapack.zhetrf, lapack.zhetri) if complex_entries
                else (lapack.dsytrf, lapack.dsytri))
    # LAPACK factors and inverts this Fortran-ordered copy of a in place
    lu = np.array(a, dtype=np.complex128 if complex_entries else np.float64, order="F")
    n = lu.shape[0]
    ipiv = np.empty(n, dtype=np.intc)
    # a workspace of 64 n lets LAPACK factor in blocks of 64 columns
    work = np.empty(64 * n, dtype=lu.dtype)
    size, lwork, info = ctypes.c_int(n), ctypes.c_int(work.size), ctypes.c_int(0)
    ref, data, pivots = ctypes.byref, lu.ctypes.data, ipiv.ctypes.data_as(_C_TYPES["int *"])
    trf(b"U", ref(size), data, ref(size), pivots, work.ctypes.data, ref(lwork), ref(info))
    if info.value != 0:
        return np.full(n, np.nan), -1, np.full(a.shape, np.nan)
    # ipiv > 0 marks a 1 x 1 block; a 2 x 2 block has two negative entries
    positive = np.count_nonzero(lu.diagonal()[ipiv > 0].real > 0.0) \
        + np.count_nonzero(ipiv < 0) // 2
    tri(b"U", ref(size), data, ref(size), pivots, work.ctypes.data, ref(info))
    # the inverse is in the upper triangle; mirror it into the lower one
    inv = np.triu(lu) + np.triu(lu, 1).conj().T
    return inv.diagonal().real.copy(), positive, inv
