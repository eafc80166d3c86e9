import itertools
import math
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from deteq import _lapack, sampling
from deteq.cli import main
from deteq.dyson import SpectralParameter, _apply_r, solve_dyson
from deteq.profiles import VarianceProfile, constant_profile
from deteq.sampling import (SampleBatch, check_master_equality, sample_gue_profile,
                            sample_rect_gaussian, validate_concentration)

from reference import one_blas_thread, random_profile, reference_trace  # noqa: F401


def _reference_draw(profile: VarianceProfile, seed) -> np.ndarray:
    """The Hermitian draw written out with a gather and scatter through the
    upper-triangle indices; sample_gue_profile must match it bit for bit."""
    rng = np.random.default_rng(seed)
    n = profile.rows
    gamma = np.sqrt(profile.entries)
    scale = 1.0 / np.sqrt(n)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    x_diag = rng.standard_normal(n)
    h = np.zeros((n, n), dtype=np.complex128)
    iu = np.triu_indices(n, 1)
    h[iu] = gamma[iu] * z[iu] * scale
    h = h + h.conj().T
    h[np.diag_indices(n)] = np.diag(gamma) * x_diag * scale
    return h


def _sparse_profile(n: int, seed: int) -> VarianceProfile:
    """A symmetric profile with about 60% exact zeros: the only entries at
    which the sign of a zero in a draw can depend on how it was assembled."""
    a = np.random.default_rng(seed).random((n, n))
    a = np.where(a < 0.6, 0.0, a)
    return VarianceProfile(np.triu(a) + np.triu(a, 1).T, "hermitian")


def test_hermitian_draw_is_exactly_hermitian():
    prof = constant_profile(30, 30, 1.0, hermitian=True)
    h = sample_gue_profile(prof, seed=1)
    assert np.array_equal(h, h.conj().T)
    assert np.all(h.diagonal().imag == 0.0)


def test_hermitian_entry_variances():
    """Off-diagonal entries carry variance gamma^2 / N, diagonal too."""
    n, value = 400, 4.0
    prof = constant_profile(n, n, value, hermitian=True)
    h = sample_gue_profile(prof, seed=2)
    iu = np.triu_indices(n, 1)
    off_var = float(np.mean(np.abs(h[iu]) ** 2))
    assert abs(off_var - value / n) <= 0.05 * value / n
    diag_var = float(np.mean(h.diagonal().real ** 2))
    assert abs(diag_var - value / n) <= 0.25 * value / n
    # real and imaginary parts split the off-diagonal variance evenly
    re_share = float(np.mean(h[iu].real ** 2)) / off_var
    assert abs(re_share - 0.5) <= 0.05


def test_rectangular_entry_variances():
    n, m, value = 300, 500, 2.0
    prof = constant_profile(n, m, value)
    x = sample_rect_gaussian(prof, seed=3)
    assert x.shape == (n, m)
    var = float(np.mean(np.abs(x) ** 2))
    assert abs(var - value / m) <= 0.05 * value / m


@pytest.mark.parametrize("profile", [
    constant_profile(400, 400, 1.0, hermitian=True),
    random_profile(37, 8),
    constant_profile(1, 1, 1.0, hermitian=True),
    constant_profile(9, 9, 0.0, hermitian=True),
], ids=["constant-400", "symmetric-37", "n-1", "zero"])
def test_draws_match_the_index_scatter_reference_bit_for_bit(profile):
    for child in SampleBatch(seed=17, count=2, n=profile.rows).child_seeds():
        assert np.array_equal(sample_gue_profile(profile, child),
                              _reference_draw(profile, child))


def test_profile_zeros_silence_entries():
    prof = constant_profile(10, 10, 0.0, hermitian=True)
    h = sample_gue_profile(prof, seed=4)
    assert not np.any(h)


def test_mode_checks():
    herm = constant_profile(4, 4, 1.0, hermitian=True)
    rect = constant_profile(4, 6, 1.0)
    with pytest.raises(ValueError):
        sample_gue_profile(rect, seed=0)
    with pytest.raises(ValueError):
        sample_rect_gaussian(herm, seed=0)


def test_batch_draws_are_reproducible_and_independent():
    prof = constant_profile(12, 12, 1.0, hermitian=True)
    batch = SampleBatch(seed=9, count=3, n=12)
    first = [sample_gue_profile(prof, child) for child in batch.child_seeds()]
    second = [sample_gue_profile(prof, child) for child in batch.child_seeds()]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], first[1])
    with pytest.raises(ValueError):
        SampleBatch(seed=9, count=0, n=12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
       re=st.floats(-3.0, 3.0), im=st.floats(1e-2, 10.0))
def test_lu_trace_is_the_eigenvalue_mean(n, seed, re, im):
    rng = np.random.default_rng(seed)
    a = (rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))) / np.sqrt(n)
    h = sample_gue_profile(random_profile(n, seed), rng) + (a + a.conj().T) / 2.0
    lam = complex(re, im)
    oracle = complex(np.mean(1.0 / (lam - np.linalg.eigvalsh(h))))
    shifted = np.asfortranarray(-h)
    shifted.flat[::n + 1] += lam
    trace = _lapack._inverse_trace(shifted, np.empty_like(shifted))
    assert abs(trace - oracle) <= 1e-12 * abs(oracle)


def test_concentration_factorizes_each_draw_once(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the trace needs neither eigenvalues nor the full inverse")

    calls = []
    inverse_trace = sampling._inverse_trace

    def counted(a, *args):
        calls.append(a.shape)
        return inverse_trace(a, *args)

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    monkeypatch.setattr(np.linalg, "inv", refused)
    # the workers look the kernel up in the module at call time
    monkeypatch.setattr(sampling, "_inverse_trace", counted)
    out = validate_concentration(constant_profile(40, 40, 1.0, hermitian=True), None,
                                 0.8j, d=2.0, delta=0.5, draws=7, seed=4)
    assert out["draws"] == 7
    assert calls == [(40, 40)] * 7


def _dense_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (2.0 * n)
    return a + a.conj().T


_LOOP_CASES = [
    (constant_profile(400, 400, 1.0, hermitian=True), None, 0.5j, 3),
    (random_profile(37, 2), np.linspace(-1.0, 1.0, 37), 0.3 + 0.7j, 20),
    (constant_profile(12, 12, 1.0, hermitian=True), _dense_hermitian(12, 4), -0.2 + 0.9j, 20),
    (_sparse_profile(40, 6), np.linspace(-0.5, 0.5, 40), 0.2 + 0.8j, 20),
]


@pytest.mark.parametrize("profile,y,lam,draws", _LOOP_CASES,
                         ids=["constant-400", "symmetric-diagonal-y", "dense-y",
                              "zero-entries-diagonal-y"])
def test_loops_match_the_draw_by_draw_reference_bit_for_bit(monkeypatch, one_blas_thread,
                                                          profile, y, lam, draws):
    n = profile.rows
    y_mat = 0.0 if y is None else np.diag(y) if y.ndim == 1 else y
    batch = SampleBatch(seed=12, count=draws, n=n)
    g_det = complex(solve_dyson(profile, y, SpectralParameter.scalar(lam, n)).g_square.diag.mean())
    traces = [reference_trace(sample_gue_profile(profile, child) + y_mat, lam)
              for child in batch.child_seeds()]
    seen = []
    inverse_trace = sampling._inverse_trace

    def recorded(*args):
        trace = inverse_trace(*args)
        seen.append(trace)
        return trace

    monkeypatch.setattr(sampling, "_inverse_trace", recorded)
    out = validate_concentration(profile, y, lam, d=2.0, delta=0.5, draws=draws, seed=12)
    # every draw's trace, not only the largest deviation; the workers finish
    # their draws in no fixed order
    assert Counter(seen) == Counter(traces)
    assert out["max_deviation"] == max(abs(t - g_det) for t in traces)

    lam = SpectralParameter.scalar(lam, n)
    assert check_master_equality(profile, y, lam, batch) == \
        float(np.linalg.norm(_reference_master(profile, y, lam, batch), 2))


@pytest.mark.parametrize("y", [np.triu(np.full((8, 8), 0.1)), np.diag([np.nan] + [0.0] * 7)],
                         ids=["non-hermitian", "non-finite"])
def test_concentration_checks_y_before_the_first_factorization(monkeypatch, y):
    def refused(*args, **kwargs):
        raise AssertionError("a bad Y must be rejected before any draw is factored")

    monkeypatch.setattr(sampling, "_inverse_trace", refused)
    with pytest.raises(ValueError, match="deformation"):
        validate_concentration(constant_profile(8, 8, 1.0, hermitian=True), y, 1.5j,
                               d=2.0, delta=0.5, draws=3, seed=1)


def test_concentration_result_does_not_depend_on_the_worker_count(monkeypatch,
                                                                  one_blas_thread):
    # n = 400: large enough that a threaded OpenBLAS factorization would round
    # otherwise than the one-thread one the loop runs, on any worker count
    profile = constant_profile(400, 400, 1.0, hermitian=True)
    y = np.linspace(-0.5, 0.5, 400)  # every worker reads Y while the others run
    lam = 0.2 + 0.9j
    # each draw's trace, on the one thread the fixture sets
    expect = Counter(reference_trace(sample_gue_profile(profile, child) + np.diag(y), lam)
                     for child in SampleBatch(seed=8, count=7, n=400).child_seeds())

    def run():
        return validate_concentration(profile, y, lam, d=2.0, delta=0.5, draws=7, seed=8)

    inverse_trace = sampling._inverse_trace
    seen = []  # each run's per-draw traces

    def recorded(*args):
        trace = inverse_trace(*args)
        seen[-1].append(trace)
        return trace

    monkeypatch.setattr(sampling, "_inverse_trace", recorded)
    set_threads = _lapack._lapack().set_blas_threads
    saved = set_threads(2)  # a setting each run restores
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        for workers in (1, 2, 3):  # 7 draws split unevenly, and more workers than cores
            monkeypatch.setattr(sampling, "_worker_count", lambda draws, w=workers: w)
            seen.append([])
            outs.append(run())
            assert set_threads(2) == 2
    finally:
        sys.setswitchinterval(interval)
        set_threads(saved)
    assert outs[0] == outs[1] == outs[2]
    assert [Counter(traces) for traces in seen] == [expect] * 3

    calls = itertools.count()  # next() is atomic, so exactly one call fails

    def failing(*args):
        if next(calls) == 3:
            raise FloatingPointError("one draw fails")
        return inverse_trace(*args)

    monkeypatch.setattr(sampling, "_inverse_trace", failing)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="one draw fails"):
        run()
    assert threading.active_count() == threads


@pytest.mark.parametrize("draws", [-1, 0, 2.5, 3.0, True])
def test_concentration_rejects_a_bad_draw_count_before_any_work(monkeypatch, draws):
    def refused(*args, **kwargs):
        raise AssertionError("a bad draw count must be rejected before the model is read")

    monkeypatch.setattr(sampling, "_prepare", refused)
    with pytest.raises(ValueError, match=r"^a sample batch needs an integer count >= 1$"):
        validate_concentration(constant_profile(8, 8, 1.0, hermitian=True), None, 1.5j,
                               d=2.0, delta=0.5, draws=draws, seed=1)
    with pytest.raises(ValueError, match="integer count"):
        SampleBatch(seed=1, count=draws, n=8)


@pytest.mark.parametrize("n,seed,message", [
    (2.5, 1, "integer n >= 1"), (True, 1, "integer n >= 1"), (np.float64(3.0), 1, "integer n >= 1"),
    (0, 1, "integer n >= 1"), (-2, 1, "integer n >= 1"),
    (8, -1, "integer seed >= 0"), (8, 1.5, "integer seed >= 0"), (8, True, "integer seed >= 0"),
    (8, np.float64(2.0), "integer seed >= 0"), (8, None, "integer seed >= 0"),
])
def test_sample_batch_rejects_a_bad_n_or_seed_at_construction(n, seed, message):
    with pytest.raises(ValueError, match=rf"^a sample batch needs an {message}$"):
        SampleBatch(seed=seed, count=3, n=n)


def test_sample_batch_takes_numpy_integers():
    batch = SampleBatch(seed=np.uint32(5), count=np.int64(2), n=np.int8(4))
    assert [c.entropy for c in batch.child_seeds()] == [5, 5]


def _reference_master(profile: VarianceProfile, y, lam: SpectralParameter,
                      batch: SampleBatch) -> np.ndarray:
    """The master check's (lhs - rhs) / count, one draw at a time."""
    n = profile.rows
    y_mat = 0.0 if y is None else np.diag(y) if y.ndim == 1 else y
    w = profile.entries / n
    lam_mat = np.diag(lam.diag)
    lhs = np.zeros((n, n), dtype=np.complex128)
    rhs = np.zeros((n, n), dtype=np.complex128)
    for child in batch.child_seeds():
        x = _reference_draw(profile, child)
        resolvent = np.linalg.inv(lam_mat - x - y_mat)
        lhs += x @ resolvent
        rhs += _apply_r(w, resolvent.diagonal())[:, np.newaxis] * resolvent
    return (lhs - rhs) / batch.count


def _blocked_master(monkeypatch, profile, y, lam, batch, workers: int, block: int):
    """The master check on ``workers`` threads in blocks of ``block`` draws:
    its result and the matrix whose norm it is."""
    monkeypatch.setattr(sampling, "_worker_count", lambda tasks: min(workers, tasks))
    monkeypatch.setattr(sampling, "_block_draws", lambda n: block)
    norms = []
    norm = np.linalg.norm

    def recorded(a, *args):
        norms.append(a.copy())
        return norm(a, *args)

    monkeypatch.setattr(np.linalg, "norm", recorded)
    deviation = check_master_equality(profile, y, lam, batch)
    assert len(norms) == 1
    return deviation, norms[0]


_MASTER_CASES = {
    "diagonal-y": (random_profile(9, 3), np.linspace(-0.7, 0.7, 9), 0.4 + 0.8j),
    "dense-y": (constant_profile(8, 8, 1.0, hermitian=True), _dense_hermitian(8, 5), -0.3 + 1.1j),
    "non-scalar-lambda": (random_profile(7, 4), None, np.linspace(-1.0, 1.0, 7) + 0.7j),
}


@pytest.mark.parametrize("case", list(_MASTER_CASES))
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 7, 20])
def test_master_check_equals_the_draw_by_draw_reference_bit_for_bit(monkeypatch, case,
                                                                   workers, block):
    profile, y, lam = _MASTER_CASES[case]
    n = profile.rows
    lam = SpectralParameter(np.broadcast_to(lam, (n,)).astype(np.complex128))
    batch = SampleBatch(seed=31, count=20, n=n)  # 20 draws: blocks of 7, 7 and 6
    expect = _reference_master(profile, y, lam, batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost or reordered sum would show
    try:
        deviation, deviations = _blocked_master(monkeypatch, profile, y, lam, batch, workers,
                                                block)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(deviations, expect)
    assert deviation == float(np.linalg.norm(expect, 2))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), count=st.integers(1, 24), block=st.integers(1, 26),
       workers=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       form=st.sampled_from(["absent", "diagonal", "dense"]), scalar=st.booleans())
def test_master_check_blocks_keep_every_bit(n, count, block, workers, seed, form, scalar):
    rng = np.random.default_rng(seed)
    profile = random_profile(n, seed)
    y = {"absent": None, "diagonal": rng.uniform(-1.0, 1.0, n),
         "dense": _dense_hermitian(n, seed)}[form]
    diag = np.full(n, 0.2 + 0.9j) if scalar else rng.uniform(-1.0, 1.0, n) + 0.9j
    lam = SpectralParameter(diag)
    batch = SampleBatch(seed=seed, count=count, n=n)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, deviations = _blocked_master(monkeypatch, profile, y, lam, batch, workers, block)
    assert np.array_equal(deviations, _reference_master(profile, y, lam, batch))


def _in_a_thread(call):
    """Run ``call`` on a thread joined with a timeout; return what it raised."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "the check hung"
    return raised


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_block_stops_the_master_check(monkeypatch, workers):
    profile = constant_profile(6, 6, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(1j, 6)
    batch = SampleBatch(seed=2, count=9, n=6)
    first = np.diag(lam.diag) - sample_gue_profile(profile, batch.child_seeds()[0])
    monkeypatch.setattr(sampling, "_worker_count", lambda tasks: workers)
    monkeypatch.setattr(sampling, "_block_draws", lambda n: 1)
    inv = np.linalg.inv

    def failing(a):
        # block 0 fails last, once the other workers wait for their turn after it
        if np.array_equal(a[0], first):
            time.sleep(0.2)
            raise np.linalg.LinAlgError("block 0 fails")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", failing)
    threads = threading.enumerate()
    raised = _in_a_thread(lambda: check_master_equality(profile, None, lam, batch))
    assert [type(exc) for exc in raised] == [np.linalg.LinAlgError]
    assert str(raised[0]) == "block 0 fails"
    assert threading.enumerate() == threads


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_sum_stops_the_master_check(monkeypatch, workers):
    profile = constant_profile(6, 6, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(1j, 6)
    batch = SampleBatch(seed=2, count=9, n=6)
    monkeypatch.setattr(sampling, "_worker_count", lambda tasks: workers)
    monkeypatch.setattr(sampling, "_block_draws", lambda n: 1)
    calls = itertools.count()
    add = np.add

    def failing(*args, **kwargs):
        # the calling thread adds each draw's terms to the sums
        if next(calls) == 5:
            raise FloatingPointError("the sixth sum fails")
        return add(*args, **kwargs)

    monkeypatch.setattr(np, "add", failing)
    threads = threading.enumerate()
    raised = _in_a_thread(lambda: check_master_equality(profile, None, lam, batch))
    assert [str(exc) for exc in raised] == ["the sixth sum fails"]
    assert threading.enumerate() == threads


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocks_start_at_most_a_window_ahead_of_the_sums(monkeypatch, workers):
    window = workers + 1  # blocks started and not yet in the sums
    profile = constant_profile(4, 4, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(1j, 4)
    batch = SampleBatch(seed=5, count=40, n=4)
    shifted = [np.diag(lam.diag) - sample_gue_profile(profile, child)
               for child in batch.child_seeds()]
    monkeypatch.setattr(sampling, "_worker_count", lambda tasks: workers)
    monkeypatch.setattr(sampling, "_block_draws", lambda n: 1)
    add, inv = np.add, np.linalg.inv
    added = []  # one entry per draw whose terms are in the sums
    started = []  # (block, sums added when its inverse began)

    def slow_add(*args, **kwargs):
        time.sleep(0.002)  # the sums fall behind the workers
        out = add(*args, **kwargs)
        added.append(None)
        return out

    def counted_inv(a, failing=None):
        k = next(k for k, expect in enumerate(shifted) if np.array_equal(a[0], expect))
        started.append((k, len(added)))
        if k == failing:
            raise np.linalg.LinAlgError("block 10 fails")
        return inv(a)

    monkeypatch.setattr(np, "add", slow_add)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    check_master_equality(profile, None, lam, batch)
    assert sorted(k for k, _ in started) == list(range(40))
    assert all(k < taken + window for k, taken in started)

    started.clear()
    monkeypatch.setattr(np.linalg, "inv", lambda a: counted_inv(a, failing=10))
    with pytest.raises(np.linalg.LinAlgError, match="block 10 fails"):
        check_master_equality(profile, None, lam, batch)
    assert all(k < taken + window for k, taken in started)
    assert max(k for k, _ in started) < 10 + window


def test_no_worker_outlives_either_check(monkeypatch):
    profile = constant_profile(10, 10, 1.0, hermitian=True)
    threads = threading.enumerate()
    check_master_equality(profile, None, SpectralParameter.scalar(1j, 10),
                          SampleBatch(seed=3, count=40, n=10))
    assert threading.enumerate() == threads
    validate_concentration(profile, None, 1.5j, d=2.0, delta=0.5, draws=5, seed=3)
    assert threading.enumerate() == threads

    def failing(*args):
        raise FloatingPointError("every draw fails")

    monkeypatch.setattr(sampling, "_inverse_trace", failing)
    raised = _in_a_thread(lambda: validate_concentration(profile, None, 1.5j, d=2.0,
                                                         delta=0.5, draws=5, seed=3))
    assert [str(exc) for exc in raised] == ["every draw fails"]
    assert threading.enumerate() == threads


def test_sample_command_writes_the_reference_eigenvalues(tmp_path):
    out = tmp_path / "eigs.txt"
    assert main(["sample", "--profile", "constant:n=12,m=12,hermitian=true", "--y",
                 "diag:0.5", "--count", "3", "--seed", "7", "--out", str(out)]) == 0
    written = np.array([float(v) for v in out.read_text().split()])
    profile = constant_profile(12, 12, 1.0, hermitian=True)
    expect = np.concatenate([
        np.linalg.eigvalsh(_reference_draw(profile, child) + np.diag(np.full(12, 0.5)))
        for child in SampleBatch(seed=7, count=3, n=12).child_seeds()])
    assert np.array_equal(written, expect)


def _semicircle_cdf(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, -2.0, 2.0)
    return (t * np.sqrt(4.0 - t * t) / 2.0 + 2.0 * np.arcsin(t / 2.0)
            + math.pi) / (2.0 * math.pi)


def test_flat_profile_spectrum_follows_the_semicircle():
    n = 1000
    prof = constant_profile(n, n, 1.0, hermitian=True)
    h = sample_gue_profile(prof, seed=11)
    eigs = np.sort(np.linalg.eigvalsh(h))
    ks = float(np.max(np.abs(_semicircle_cdf(eigs)
                             - (np.arange(1, n + 1) - 0.5) / n)))
    assert ks <= 0.05


def test_master_equality_deviation_shrinks():
    prof = constant_profile(8, 8, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(1j, 8)
    dev = check_master_equality(prof, None, lam,
                                SampleBatch(seed=21, count=500, n=8))
    assert dev <= 0.2
    with pytest.raises(ValueError):
        check_master_equality(prof, None, lam,
                              SampleBatch(seed=21, count=10, n=9))


def test_master_equality_scalar_case_matches_quadrature():
    """In one dimension the identity reads E[x/(lam-x)] = E[(lam-x)^-2]
    for a standard real Gaussian x; compare Monte Carlo to quadrature."""
    prof = constant_profile(1, 1, 1.0, hermitian=True)
    batch = SampleBatch(seed=33, count=20000, n=1)
    lam = 0.4 + 1.1j
    draws = np.array([sample_gue_profile(prof, child)[0, 0].real
                      for child in batch.child_seeds()])
    lhs = draws / (lam - draws)
    se = float(np.std(lhs.real) + np.std(lhs.imag)) / math.sqrt(draws.size)

    def pdf(x):
        return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)

    rhs_re = integrate.quad(lambda x: ((lam - x) ** -2).real * pdf(x),
                            -np.inf, np.inf)[0]
    rhs_im = integrate.quad(lambda x: ((lam - x) ** -2).imag * pdf(x),
                            -np.inf, np.inf)[0]
    assert abs(complex(lhs.mean()) - complex(rhs_re, rhs_im)) <= 3.0 * se


def test_validate_concentration_summary():
    prof = constant_profile(100, 100, 1.0, hermitian=True)
    out = validate_concentration(prof, None, 0.6j, d=2.0, delta=0.5,
                                 draws=30, seed=5)
    assert out["draws"] == 30
    assert out["passes"] == 30
    assert out["pass_rate"] == 1.0
    assert out["admissible"] is True
    assert out["max_deviation"] < out["epsilon_tilde"]


def test_validate_concentration_with_diagonal_shift():
    prof = constant_profile(60, 60, 1.0, hermitian=True)
    y = np.full(60, 0.3)
    out = validate_concentration(prof, y, 0.8j, d=2.0, delta=0.5,
                                 draws=10, seed=6)
    assert out["pass_rate"] == 1.0
