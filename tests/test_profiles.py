import numpy as np
import pytest

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


def test_a_profile_takes_over_an_array_it_can_own_and_copies_any_other():
    owned = np.ones((3, 3))
    owned.setflags(write=False)
    assert VarianceProfile(owned, "hermitian").entries is owned
    # a read-only view of a writeable array, a writeable array and another
    # dtype are copied, so a later write to what was given does not reach them
    writeable = np.ones((3, 3))
    view = writeable[:]
    view.setflags(write=False)
    single = np.ones((3, 3), dtype=np.float32)
    single.setflags(write=False)
    for given in (view, writeable, single):
        entries = VarianceProfile(given, "hermitian").entries
        assert entries.dtype == np.float64 and not entries.flags.writeable
        assert not np.shares_memory(entries, given)


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
