import dataclasses

import numpy as np
import pytest

from deteq.dilation import DilatedModel, RectangularModel, RectangularSpikes, dilate_model
from deteq.dyson import OperatorStieltjes, SpectralParameter
from deteq.outliers import HermitianModel, SpikeSet
from deteq.profiles import (VarianceProfile, bernoulli_profile, constant_profile,
                            doubly_stochastic_profile, normalize_profile,
                            piecewise_profile, read_profile_csv, write_profile_csv)


def test_constant_profile_fills_value():
    prof = constant_profile(2, 2, 1.0)
    assert prof.mode == "rectangular"
    assert np.array_equal(prof.entries, np.ones((2, 2)))
    assert prof.gamma_max_sq == 1.0
    assert prof.mean_variance() == 1.0


def test_constant_profile_hermitian_mode():
    prof = constant_profile(5, 5, 2.5, hermitian=True)
    assert prof.mode == "hermitian"
    with pytest.raises(ValueError):
        constant_profile(4, 6, 1.0, hermitian=True)


def test_zero_profile_is_valid():
    prof = constant_profile(1, 1, 0.0)
    assert prof.entries[0, 0] == 0.0
    assert prof.gamma_max_sq == 0.0


def test_piecewise_block_layout():
    a, b = 2.0, 5.0
    prof = piecewise_profile(4, 4, a, b)
    expected = np.array([
        [a, b, b, b],
        [b, a, a, a],
        [b, a, a, a],
        [b, a, a, a],
    ])
    assert np.array_equal(prof.entries, expected)


def test_piecewise_equal_blocks_collapse_to_constant():
    prof = piecewise_profile(4, 4, 3.0, 3.0)
    assert np.array_equal(prof.entries, np.full((4, 4), 3.0))


def test_piecewise_rectangular_blocks():
    prof = piecewise_profile(8, 16, 1.0, 7.0)
    assert np.all(prof.entries[:2, :4] == 1.0)
    assert np.all(prof.entries[2:, 4:] == 1.0)
    assert np.all(prof.entries[:2, 4:] == 7.0)
    assert np.all(prof.entries[2:, :4] == 7.0)


def test_piecewise_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        piecewise_profile(6, 4, 1.0, 2.0)
    with pytest.raises(ValueError):
        piecewise_profile(4, 10, 1.0, 2.0)


def test_bernoulli_full_probability_is_constant_ones():
    prof = bernoulli_profile(6, 8, 1.0, seed=0)
    assert np.array_equal(prof.entries, np.ones((6, 8)))


def test_bernoulli_normalization_and_sparsity():
    """Surviving entries share the value n*m/count, so the average is one."""
    prof = bernoulli_profile(200, 200, 0.3, seed=42)
    zero_frac = float(np.mean(prof.entries == 0.0))
    assert abs(zero_frac - 0.7) < 0.02
    assert abs(prof.mean_variance() - 1.0) < 1e-12
    values = np.unique(prof.entries)
    assert values.size == 2 and values[0] == 0.0


def test_bernoulli_is_deterministic_per_seed():
    a = bernoulli_profile(40, 50, 0.1, seed=7)
    b = bernoulli_profile(40, 50, 0.1, seed=7)
    c = bernoulli_profile(40, 50, 0.1, seed=8)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_bernoulli_rejects_bad_probability_and_empty_draws():
    with pytest.raises(ValueError):
        bernoulli_profile(4, 4, 0.0, seed=1)
    with pytest.raises(ValueError):
        bernoulli_profile(4, 4, 1.5, seed=1)
    with pytest.raises(ValueError):
        bernoulli_profile(2, 2, 1e-12, seed=1)


def test_doubly_stochastic_row_and_column_sums():
    prof = doubly_stochastic_profile(40, 5, seed=3)
    assert np.allclose(prof.entries.sum(axis=0), 40.0)
    assert np.allclose(prof.entries.sum(axis=1), 40.0)
    # entries / n is doubly stochastic and built from n/k quanta
    quanta = prof.entries / (40.0 / 5.0)
    assert np.allclose(quanta, np.round(quanta))
    assert abs(prof.mean_variance() - 1.0) < 1e-12


def test_normalize_profile_hits_target_and_is_idempotent():
    prof = piecewise_profile(8, 8, 1.0, 200.0)
    normed = normalize_profile(prof)
    assert abs(normed.mean_variance() - 1.0) < 1e-12
    again = normalize_profile(normed)
    assert np.allclose(again.entries, normed.entries, rtol=0.0, atol=1e-15)
    scaled = normalize_profile(prof, target=2.5)
    assert abs(scaled.mean_variance() - 2.5) < 1e-12


def test_normalize_rejects_zero_profile_and_bad_target():
    zero = constant_profile(3, 3, 0.0)
    with pytest.raises(ValueError):
        normalize_profile(zero)
    with pytest.raises(ValueError):
        normalize_profile(constant_profile(2, 2, 1.0), target=0.0)


def test_profile_invariants():
    with pytest.raises(ValueError):
        VarianceProfile(np.array([[1.0, -0.5], [-0.5, 1.0]]), "hermitian")
    with pytest.raises(ValueError):
        VarianceProfile(np.array([[1.0, 2.0], [3.0, 1.0]]), "hermitian")
    with pytest.raises(ValueError):
        VarianceProfile(np.array([[np.inf, 1.0], [1.0, 0.0]]), "hermitian")
    with pytest.raises(ValueError):
        VarianceProfile(np.ones(4), "rectangular")
    with pytest.raises(ValueError):
        VarianceProfile(np.ones((2, 3)), "nonsense")


def test_profile_entries_are_read_only():
    prof = constant_profile(3, 3, 1.0)
    with pytest.raises(ValueError):
        prof.entries[0, 0] = 5.0


def _hermitian_model(y):
    return HermitianModel(constant_profile(4, 4, 1.0, hermitian=True), y,
                          SpikeSet(u=np.eye(4)[:, :1], theta=[1.0]))


def _dilated_model(**given):
    # a 4 x 5 model; every entry below is exact in single precision
    fields = dict(profile=dilate_model(RectangularModel(constant_profile(4, 5, 1.0))).profile,
                  y=None, w=np.eye(9)[:, :2], theta_signed=[1.0, -1.0], n=4, m=5)
    return DilatedModel(**(fields | given))


_DILATED_Y = np.block([[np.zeros((4, 4)), np.full((4, 5), 0.5)],
                       [np.full((5, 4), 0.5), np.zeros((5, 5))]])
_DENSE_Y = np.diag([1.0, -1.0, 0.5, 0.0]) + 0.25

# Each array field of a value type: its dtype, an array to give, the object
# built from it and the field that holds it.
_ARRAY_FIELDS = {
    "VarianceProfile.entries": (np.float64, np.full((3, 3), 0.5),
                                lambda a: VarianceProfile(a, "hermitian"), "entries"),
    "SpectralParameter.diag": (np.complex128, np.full(3, 0.5 + 1j), SpectralParameter, "diag"),
    "OperatorStieltjes.diag": (np.complex128, np.full(3, 0.5 - 1j), OperatorStieltjes, "diag"),
    "SpikeSet.u": (np.complex128, np.eye(4)[:, :2],
                   lambda a: SpikeSet(u=a, theta=[1.0, -2.0]), "u"),
    "SpikeSet.theta": (np.float64, np.array([1.0, -2.0]),
                       lambda a: SpikeSet(u=np.eye(4)[:, :2], theta=a), "theta"),
    "RectangularSpikes.u": (np.complex128, np.eye(4)[:, :1],
                            lambda a: RectangularSpikes(u=a, theta=[2.0], v=np.eye(5)[:, :1]),
                            "u"),
    "RectangularSpikes.v": (np.complex128, np.eye(5)[:, :1],
                            lambda a: RectangularSpikes(u=np.eye(4)[:, :1], theta=[2.0], v=a),
                            "v"),
    "RectangularSpikes.theta": (np.float64, np.array([2.0]),
                                lambda a: RectangularSpikes(u=np.eye(4)[:, :1], theta=a,
                                                            v=np.eye(5)[:, :1]), "theta"),
    "RectangularModel.y": (np.complex128, np.full((4, 5), 0.5 + 0.25j),
                           lambda a: RectangularModel(constant_profile(4, 5, 1.0), a), "y"),
    "DilatedModel.y": (np.complex128, _DILATED_Y + 0j, lambda a: _dilated_model(y=a), "y"),
    "DilatedModel.w": (np.complex128, np.eye(9)[:, :2], lambda a: _dilated_model(w=a), "w"),
    "DilatedModel.theta_signed": (np.float64, np.array([1.0, -1.0]),
                                  lambda a: _dilated_model(theta_signed=a), "theta_signed"),
    "HermitianModel.y-diagonal": (np.float64, np.array([1.0, -1.0, 0.5, 0.0]),
                                  _hermitian_model, "y"),
    "HermitianModel.y-dense-real": (np.float64, _DENSE_Y, _hermitian_model, "y"),
    "HermitianModel.y-dense-complex": (np.complex128, _DENSE_Y + 0.25j * (np.eye(4, k=1)
                                                                        - np.eye(4, k=-1)),
                                       _hermitian_model, "y"),
}


def _handed_out(value):
    """Every array that the public fields of a value type, nested ones included, hand out."""
    for field in dataclasses.fields(value):
        held = getattr(value, field.name)
        if isinstance(held, np.ndarray):
            yield held
        elif dataclasses.is_dataclass(held) and not field.name.startswith("_"):
            yield from _handed_out(held)


@pytest.mark.parametrize("dtype,array,build,name", _ARRAY_FIELDS.values(), ids=_ARRAY_FIELDS)
def test_every_value_type_takes_over_an_array_it_can_own_and_copies_any_other(dtype, array,
                                                                             build, name):
    owned = np.array(array, dtype=dtype)
    owned.setflags(write=False)
    held = getattr(build(owned), name)
    assert held is owned
    # a writeable array, a read-only view of one and another dtype are
    # copied, so a later write to what was given does not reach the object
    low = np.complex64 if dtype == np.complex128 else np.float32
    for kind in ("writeable", "read-only view", "other dtype"):
        base = np.array(array, dtype=low if kind == "other dtype" else dtype)
        given = base[:] if kind == "read-only view" else base
        given.setflags(write=kind != "read-only view")
        value = build(given)
        held = getattr(value, name)
        expect = held.copy()
        base += 1.0
        assert np.array_equal(held, expect) and not np.shares_memory(held, base)
        assert held.dtype == dtype and given.flags.writeable == (kind != "read-only view")
        assert all(not a.flags.writeable for a in _handed_out(value))


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    entries = rng.random((7, 9)) * 3.0
    prof = VarianceProfile(entries, "rectangular")
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    back = read_profile_csv(path)
    assert back.mode == "rectangular"
    assert np.array_equal(back.entries, prof.entries)


def test_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,profile\n1,2\n")
    with pytest.raises(ValueError):
        read_profile_csv(path)
    path.write_text("rows,cols,mode\n3,2,rectangular\n1,2\n")
    with pytest.raises(ValueError):
        read_profile_csv(path)
