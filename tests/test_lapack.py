"""The ctypes LAPACK kernels of ``deteq._lapack`` against scipy's f2py wrappers."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dsytrf, dsytri, zhetrf, zhetri

from deteq import _lapack
from deteq.dyson import _hermitian_inverse_diagonal

from reference import one_blas_thread, reference_trace  # noqa: F401


def _f2py_reference(a: np.ndarray):
    """The Bunch-Kaufman inverse and inertia through scipy.linalg.lapack's wrappers."""
    trf, tri = (zhetrf, zhetri) if np.iscomplexobj(a) else (dsytrf, dsytri)
    lu, ipiv, info = trf(a, lwork=64 * a.shape[0], overwrite_a=1)
    if info != 0:
        return np.full(a.shape[0], np.nan), -1, np.full(a.shape, np.nan)
    positive = np.count_nonzero(lu.diagonal()[ipiv > 0].real > 0.0) \
        + np.count_nonzero(ipiv < 0) // 2
    inv, _ = tri(lu, ipiv, overwrite_a=1)
    inv = np.triu(inv) + np.triu(inv, 1).conj().T
    return inv.diagonal().real.copy(), positive, inv


def _assert_same_bits(a: np.ndarray) -> None:
    given_a = a.copy()
    diag, positive, inv = _hermitian_inverse_diagonal(a)
    ref_diag, ref_positive, ref_inv = _f2py_reference(a.copy())
    assert np.array_equal(a, given_a)  # the kernel factors a copy
    assert positive == ref_positive
    assert diag.dtype == ref_diag.dtype and diag.tobytes() == ref_diag.tobytes()
    assert inv.dtype == ref_inv.dtype and inv.tobytes() == ref_inv.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), complex_entries=st.booleans(), hollow=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bunch_kaufman_matches_the_f2py_wrappers_bit_for_bit(n, complex_entries, hollow,
                                                              seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    a = (a + a.conj().T) / 2.0
    if hollow and n > 1:
        a -= np.diag(np.diag(a))  # a zero diagonal makes Bunch-Kaufman take 2 x 2 pivots
    _assert_same_bits(a)


@pytest.mark.parametrize("n", [100, 150])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_bunch_kaufman_factors_in_blocks_as_the_f2py_wrappers_do(n, complex_entries):
    # beyond 64 columns the workspace of 64 n lets LAPACK take blocked steps
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    _assert_same_bits(a + a.conj().T)


@pytest.mark.parametrize("a", [np.zeros((3, 3)), np.ones((2, 2)), np.ones((4, 4)) * (1 + 0j)],
                         ids=["zero", "rank-one", "complex-rank-one"])
def test_a_singular_matrix_gives_nan_and_inertia_minus_one(a):
    diag, positive, inv = _hermitian_inverse_diagonal(a)
    assert positive == -1
    assert np.isnan(diag).all() and np.isnan(inv).all() and inv.shape == a.shape
    _assert_same_bits(a)


@pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 3)), np.ones((0, 0))])
def test_bunch_kaufman_refuses_what_is_not_a_square_matrix(a):
    with pytest.raises(ValueError, match="non-empty square"):
        _hermitian_inverse_diagonal(a)


def test_the_mirror_masks_are_cached_read_only_per_size():
    lower, rest = _lapack._triangle_masks(5)
    assert _lapack._triangle_masks(5)[0] is lower
    assert not lower.flags.writeable and not rest.flags.writeable
    assert np.array_equal(lower, np.tri(5, k=-1, dtype=bool)) and np.array_equal(rest, ~lower)
    # a second matrix of the size reuses them and still matches bit for bit
    _assert_same_bits(np.diag([1.0, -2.0, 3.0, -4.0, 5.0]) + 0.5 * np.ones((5, 5)))


def _assert_same_trace(n: int, seed: int) -> None:
    """The kernel's trace of lam - H, for a dense Hermitian H, is the reference's."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0  # entries as large as lam's: LU pivots
    lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.01, 2.0))
    shifted = np.asfortranarray(-h)
    shifted.flat[::n + 1] += lam
    trace = _lapack._inverse_trace(shifted, np.empty_like(shifted))
    assert trace == reference_trace(h, lam)


# the fixture pins OpenBLAS for the whole test, which holds for every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_the_lu_trace_matches_the_f2py_reference_bit_for_bit(one_blas_thread, n, seed):
    _assert_same_trace(n, seed)


@pytest.mark.parametrize("n", [100, 150])
def test_the_lu_trace_factors_in_blocks_as_the_f2py_reference_does(one_blas_thread, n):
    _assert_same_trace(n, n)


def test_the_lu_trace_refuses_an_array_lapack_cannot_factor_in_place():
    read_only = np.zeros((2, 2), dtype=np.complex128, order="F")
    read_only.setflags(write=False)
    lower = np.empty_like(read_only)
    for a in (np.zeros((2, 2), dtype=np.complex128), read_only, np.zeros((2, 2), order="F")):
        with pytest.raises(ValueError, match="^the trace kernel needs "):
            _lapack._inverse_trace(a, lower)


def test_a_singular_matrix_has_no_lu_trace():
    a = np.zeros((3, 3), dtype=np.complex128, order="F")
    with pytest.raises(np.linalg.LinAlgError):
        _lapack._inverse_trace(a, np.empty_like(a))


def test_a_missing_routine_is_named(monkeypatch):
    # a routine numpy's OpenBLAS does not export, bound after the seven it does
    arguments = dict(_lapack._ARGUMENTS, zhetrx=_lapack._ARGUMENTS["zhetri"])
    monkeypatch.setattr(_lapack, "_ARGUMENTS", arguments)
    _lapack._lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"scipy_zhetrx_64_ from the OpenBLAS .*"
                                              r"_umath_linalg"):
            _lapack._lapack()
    finally:
        _lapack._lapack.cache_clear()
