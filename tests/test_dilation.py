from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from deteq.dilation import (DilatedModel, RectangularModel, RectangularSpikes,
                            dilate_model, hermitian_dilation)
from deteq.dyson import r_map
from deteq.profiles import VarianceProfile, bernoulli_profile, constant_profile


def _random_rect(n: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _orthonormal(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def test_dilation_spectrum_is_signed_singular_values():
    a = _random_rect(5, 7, seed=1)
    d = hermitian_dilation(a)
    assert np.array_equal(d, d.conj().T)
    eigs = np.sort(np.linalg.eigvalsh(d))
    sv = np.linalg.svd(a, compute_uv=False)
    expected = np.sort(np.concatenate([-sv, np.zeros(2), sv]))
    assert np.max(np.abs(eigs - expected)) <= 1e-10


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_dilation_of_a_real_matrix_is_real(real):
    a = _random_rect(4, 6, seed=2)
    a = a.real.copy() if real else a
    d = hermitian_dilation(a)
    assert d.dtype == (np.float64 if real else np.complex128)
    # the entries of the complex build that a real matrix used to get, bit for bit
    reference = np.zeros((10, 10), dtype=np.complex128)
    reference[:4, 4:] = a
    reference[4:, :4] = a.conj().T
    assert d.tobytes() == (reference.real.tobytes() if real else reference.tobytes())


def test_dilated_profile_matches_degree_map():
    """R of the dilated profile equals g -> D(Gamma) g / M."""
    rng = np.random.default_rng(3)
    for n, m in ((6, 9), (7, 7), (9, 6)):
        prof = VarianceProfile(rng.random((n, m)), "rectangular")
        dil = dilate_model(RectangularModel(profile=prof))
        assert dil.profile.mode == "hermitian"
        assert dil.profile.rows == n + m
        # bit for bit the scaled real part of the complex D(Gamma)
        assert np.array_equal(dil.profile.entries,
                              hermitian_dilation(prof.entries).real * ((n + m) / m))
        g = rng.standard_normal(n + m) - 1j * rng.random(n + m)
        expected = hermitian_dilation(prof.entries).real @ g / m
        assert np.max(np.abs(r_map(dil.profile, g) - expected)) <= 1e-12


def test_dilated_spikes_reconstruct_the_signal():
    n, m, k = 8, 11, 2
    u = _orthonormal(n, k, seed=4)
    v = _orthonormal(m, k, seed=5)
    theta = np.array([2.0, 0.7])
    spikes = RectangularSpikes(u=u, theta=theta, v=v)
    dil = dilate_model(RectangularModel(profile=constant_profile(n, m, 1.0),
                                        spikes=spikes))
    assert np.array_equal(dil.theta_signed, np.array([2.0, 0.7, -2.0, -0.7]))
    gram = dil.w.conj().T @ dil.w
    assert np.max(np.abs(gram - np.eye(2 * k))) <= 1e-12
    rebuilt = (dil.w * dil.theta_signed[np.newaxis, :]) @ dil.w.conj().T
    target = hermitian_dilation(u @ np.diag(theta) @ v.conj().T)
    assert np.max(np.abs(rebuilt - target)) <= 1e-12


def test_dilated_deformation_keeps_block_structure():
    n, m = 3, 4
    y = _random_rect(n, m, seed=6)
    dil = dilate_model(RectangularModel(profile=constant_profile(n, m, 1.0), y=y))
    assert np.array_equal(dil.y[:n, n:], y)
    assert np.array_equal(dil.y[n:, :n], y.conj().T)
    assert not np.any(dil.y[:n, :n]) and not np.any(dil.y[n:, n:])
    bare = dilate_model(RectangularModel(profile=constant_profile(n, m, 1.0)))
    assert bare.y is None
    assert bare.w.shape == (n + m, 0)


def test_rectangular_spikes_validation():
    u = _orthonormal(6, 2, seed=8)
    v = _orthonormal(7, 2, seed=9)
    with pytest.raises(ValueError):
        RectangularSpikes(u=u * 2.0, theta=[1.0, 2.0], v=v)
    with pytest.raises(ValueError):
        RectangularSpikes(u=u, theta=[1.0, -2.0], v=v)
    with pytest.raises(ValueError):
        RectangularSpikes(u=u, theta=[1.0], v=v)


def test_rectangular_model_validation():
    herm = constant_profile(4, 4, 1.0, hermitian=True)
    with pytest.raises(ValueError):
        RectangularModel(profile=herm)
    rect = constant_profile(4, 6, 1.0)
    with pytest.raises(ValueError):
        RectangularModel(profile=rect, y=np.zeros((4, 5)))
    for bad in (np.inf, np.nan):
        y = np.zeros((4, 6))
        y[1, 2] = bad
        with pytest.raises(ValueError, match="deformation must be finite"):
            RectangularModel(profile=rect, y=y)
    spikes = RectangularSpikes(u=_orthonormal(5, 1, seed=10), theta=[1.0],
                               v=_orthonormal(6, 1, seed=11))
    with pytest.raises(ValueError):
        RectangularModel(profile=rect, spikes=spikes)


def test_dilated_model_rejects_diagonal_block_deformation():
    n, m = 3, 4
    dil = dilate_model(RectangularModel(profile=constant_profile(n, m, 1.0)))
    bad_y = np.eye(n + m, dtype=complex)
    with pytest.raises(ValueError):
        DilatedModel(profile=dil.profile, y=bad_y, w=dil.w,
                     theta_signed=dil.theta_signed, n=n, m=m)


def test_dilate_model_holds_one_copy_of_the_dilated_profile():
    model = RectangularModel(profile=bernoulli_profile(300, 400, 0.3, 1))
    tracemalloc.start()
    try:
        profile = dilate_model(model).profile
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.entries.flags.owndata and not profile.entries.flags.writeable
    # the dilated profile plus the validation's boolean temporaries
    assert peak < 1.5 * profile.entries.nbytes
