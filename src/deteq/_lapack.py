"""deteq's one binding to LAPACK: ``ctypes`` on the OpenBLAS that numpy's
wheels bundle, the library that ``numpy.linalg`` and every matrix product
run on.  That build exports LAPACK as ``scipy_<name>_64_``, with 64-bit
integers.
Only this module passes a raw pointer to LAPACK, after checking the arrays,
and each call releases the interpreter lock.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from types import SimpleNamespace

import numpy as np


# Each routine's arguments, all passed as pointers: a 64-bit integer, a
# character, or the data of an array (pivots included)
_INT, _CHAR, _DATA = ctypes.POINTER(ctypes.c_int64), ctypes.c_char_p, ctypes.c_void_p
_ARGUMENTS = {
    "zgetrf": [_INT, _INT, _DATA, _INT, _DATA, _INT],
    "ztrtri": [_CHAR, _CHAR, _INT, _DATA, _INT, _INT],
    "zlaswp": [_INT, _DATA, _INT, _INT, _INT, _DATA, _INT],
    "zhetrf": [_CHAR, _INT, _DATA, _INT, _DATA, _DATA, _INT, _INT],
    "zhetri": [_CHAR, _INT, _DATA, _INT, _DATA, _DATA, _INT],
    "dsytrf": [_CHAR, _INT, _DATA, _INT, _DATA, _DATA, _INT, _INT],
    "dsytri": [_CHAR, _INT, _DATA, _INT, _DATA, _DATA, _INT],
}


@functools.cache
def _lapack() -> SimpleNamespace:
    """The routines of ``_ARGUMENTS``, called through ``ctypes``, which
    releases the interpreter lock, and ``set_blas_threads``, OpenBLAS's
    openblas_set_num_threads_local; bound once per process.  dlsym on the
    handle of numpy's linalg extension also searches the libraries it links,
    which include numpy's OpenBLAS; numpy has mapped it already."""
    path = np.linalg._umath_linalg.__file__
    library = ctypes.CDLL(path)

    def bind(name, argtypes, restype=None):
        try:
            function = getattr(library, name)
        except AttributeError:
            raise ImportError(f"deteq needs {name} from the OpenBLAS of numpy's wheels, "
                              f"and {path} does not link it") from None
        function.argtypes, function.restype = argtypes, restype
        return function

    return SimpleNamespace(
        **{name: bind(f"scipy_{name}_64_", args) for name, args in _ARGUMENTS.items()},
        set_blas_threads=bind("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int))


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
        saved = set_threads(1)
        try:
            yield
        finally:
            set_threads(saved)


def _inverse_trace(a: np.ndarray, lower: np.ndarray) -> complex:
    """(1/n) tr a^(-1) of a Fortran-ordered complex n x n ``a``, factored in place.

    With the partial-pivoting LU factorization P a = L U, the inverse is
    U^(-1) L^(-1) P, so its trace is sum_kj U^(-1)[p_k, j] L^(-1)[j, k]: two
    triangular inverses and no product, half the flops of the full inverse.
    LAPACK overwrites ``a`` with U^(-1) over L^(-1); L^(-1)'s strict lower
    triangle moves into ``lower`` (n x n complex, Fortran-ordered, zero
    elsewhere), and ``zlaswp`` applies the row interchanges to U^(-1), which
    is the gather U^(-1)[p] done in place.  Both workspaces are overwritten.
    The LAPACK calls release the interpreter lock.
    """
    n = a.shape[0]
    # LAPACK reads and writes a through its pointer
    if (a.dtype != np.complex128 or a.shape != (n, n) or not a.flags.f_contiguous
            or not a.flags.writeable):
        raise ValueError("the trace kernel needs a writeable Fortran-ordered complex square array")
    lapack = _lapack()
    size, one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    swaps = np.empty(n, dtype=np.int64)  # LAPACK's 1-based row interchanges
    ref, data, pivots = ctypes.byref, a.ctypes.data, swaps.ctypes.data
    lapack.zgetrf(ref(size), ref(size), data, ref(size), pivots, ref(info))
    if info.value == 0:  # U^(-1) over U in the upper triangle, then L^(-1) below it
        lapack.ztrtri(b"U", b"N", ref(size), data, ref(size), ref(info))
    if info.value == 0:
        lapack.ztrtri(b"L", b"U", ref(size), data, ref(size), ref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError("lam - H is singular")
    strict_lower = _triangle_masks(n)[0]
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
    ipiv = np.empty(n, dtype=np.int64)
    # a workspace of 64 n lets LAPACK factor in blocks of 64 columns
    work = np.empty(64 * n, dtype=lu.dtype)
    size, lwork, info = ctypes.c_int64(n), ctypes.c_int64(work.size), ctypes.c_int64(0)
    ref, data, pivots = ctypes.byref, lu.ctypes.data, ipiv.ctypes.data
    trf(b"U", ref(size), data, ref(size), pivots, work.ctypes.data, ref(lwork), ref(info))
    if info.value != 0:
        return np.full(n, np.nan), -1, np.full(a.shape, np.nan)
    # ipiv > 0 marks a 1 x 1 block; a 2 x 2 block has two negative entries
    positive = np.count_nonzero(lu.diagonal()[ipiv > 0].real > 0.0) \
        + np.count_nonzero(ipiv < 0) // 2
    tri(b"U", ref(size), data, ref(size), pivots, work.ctypes.data, ref(info))
    # The inverse is in lu's upper triangle; mirror it into a C-ordered array
    # (the order the Jacobian's products read), adding to each entry the zero
    # that triu(lu) + triu(lu, 1)^H adds, so a real part -0.0 reads +0.0.
    zero, (lower, rest) = lu.dtype.type(0), _triangle_masks(n)
    inv = lu.T.conj()  # a view of lu when real
    np.add(lu, zero.conjugate(), out=inv, where=rest)
    np.add(inv, zero, out=inv, where=lower)
    return inv.diagonal().real.copy(), positive, inv


@functools.lru_cache(maxsize=4)
def _triangle_masks(n: int):
    """The n x n masks of the strict lower triangle and of the rest, read-only;
    a dense-Y model inverts matrices of one size on every step."""
    lower = np.tri(n, k=-1, dtype=bool)
    rest = ~lower
    lower.setflags(write=False)
    rest.setflags(write=False)
    return lower, rest
