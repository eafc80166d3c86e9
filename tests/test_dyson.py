from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deteq import dyson
from deteq.density import density_curve
from deteq.dilation import RectangularModel, dilate_model
from deteq.dyson import (ConcentrationBound, OperatorStieltjes, SolverConfig,
                         SpectralParameter, _hermitian_inverse_diagonal, _prepare,
                         _solve_path, omega_square, psi_step, r_map, solve_dyson)
from deteq.profiles import (VarianceProfile, bernoulli_profile, constant_profile,
                            doubly_stochastic_profile, normalize_profile,
                            piecewise_profile)

from reference import (averaged_fixed_point, criterion_5_profile, g_semicircle,
                       plain_real_solve, random_profile, row_by_row)


def test_spectral_parameter_validation():
    lam = SpectralParameter.scalar(0.5 + 2j, 4)
    assert lam.dim == 4
    assert lam.im_min == 2.0
    with pytest.raises(ValueError):
        SpectralParameter(np.array([1.0 + 1j, 2.0 - 1j]))
    with pytest.raises(ValueError):
        SpectralParameter(np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        SpectralParameter(np.zeros((2, 2), dtype=complex))


def test_operator_stieltjes_validation():
    g = OperatorStieltjes(np.array([0.3 - 1j, -2j]))
    assert g.dim == 2
    with pytest.raises(ValueError):
        OperatorStieltjes(np.array([0.1 + 1e-6j]))
    with pytest.raises(ValueError):
        g.diag[0] = 0.0


def test_r_map_oracle():
    prof = VarianceProfile(np.array([[1.0, 2.0], [2.0, 0.0]]), "hermitian")
    g = np.array([-1j, -2j])
    out = r_map(prof, g)
    assert np.allclose(out, np.array([-2.5j, -1j]), rtol=0.0, atol=1e-15)


def test_r_map_rejects_bad_input():
    prof = constant_profile(3, 4, 1.0)
    with pytest.raises(ValueError):
        r_map(prof, np.zeros(3, dtype=complex))
    herm = constant_profile(3, 3, 1.0, hermitian=True)
    with pytest.raises(ValueError):
        r_map(herm, np.zeros(4, dtype=complex))


def test_psi_step_oracle():
    # R(g) = mean(g) = -i here, so psi(g) = 1 / (2i - (-i)) = 1 / (3i).
    prof = constant_profile(2, 2, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(2j, 2)
    g = OperatorStieltjes(np.array([-1j, -1j]))
    out = psi_step(prof, None, lam, g)
    assert np.allclose(out.diag, np.full(2, -1j / 3.0), rtol=0.0, atol=1e-15)


def test_solve_matches_semicircle_closed_form():
    prof = constant_profile(300, 300, 1.0, hermitian=True)
    lam_value = 0.7 + 1.3j
    sol = solve_dyson(prof, None, SpectralParameter.scalar(lam_value, 300))
    assert sol.converged
    assert sol.residual <= 1e-12
    assert sol.contraction_certified  # gamma_max^2 / Im^2 = 1 / 1.69 < 1
    oracle = g_semicircle(lam_value)
    assert abs(complex(sol.g_square.diag.mean()) - oracle) <= 1e-10
    # the constant-profile fixed point is uniform across coordinates
    assert np.max(np.abs(sol.g_square.diag - sol.g_square.diag[0])) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_solution_stays_in_the_stieltjes_domain(data, n):
    """Im G <= 0 and |G_i| <= 1 / Im lambda_i on any symmetric profile.

    Both hold for every damped iterate, so they must hold whether or not
    the capped solve converges.
    """
    a = data.draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 4.0)))
    prof = VarianceProfile((a + a.T) / 2.0, "hermitian")
    re = data.draw(arrays(np.float64, n, elements=st.floats(-4.0, 4.0)))
    im = data.draw(arrays(np.float64, n, elements=st.floats(0.05, 3.0)))
    sol = solve_dyson(prof, None, SpectralParameter(re + 1j * im),
                      SolverConfig(max_iterations=200))
    g = sol.g_square.diag
    assert np.all(g.imag <= 0.0)
    assert np.all(np.abs(g) <= (1.0 + 1e-12) / im)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), scale=st.floats(1.0, 20.0))
def test_trace_behaves_as_a_stieltjes_transform(data, n, scale):
    """g = tr G / N on the imaginary axis, for Y = 0 and y >= 2 gamma_max.

    g is the transform of a symmetric probability measure with second moment
    at most gamma_max^2, so iy g(iy) - 1 = -int x^2 / (x^2 + y^2) is real and
    at most gamma_max^2 / y^2 <= gamma_max / (2y) in size, and Re g(iy) = 0.
    """
    a = data.draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 4.0)))
    prof = VarianceProfile((a + a.T) / 2.0, "hermitian")
    gamma_max = np.sqrt(prof.gamma_max_sq)
    y = scale * max(2.0 * gamma_max, 0.1)
    sol = solve_dyson(prof, None, SpectralParameter.scalar(1j * y, n))
    assert sol.converged
    g = complex(sol.g_square.diag.mean())
    # the slack covers rounding when gamma_max = 0 and iy g(iy) = 1 exactly
    assert abs(1j * y * g - 1.0) <= gamma_max / y + 1e-12
    assert abs(g.real) <= 1e-10


def _two_level_profile(n, k, ratio):
    """A k x k block ``ratio`` times louder than the rest, row sums <= n."""
    a = np.ones((n, n))
    a[:k, :k] = ratio
    return VarianceProfile(a * (n / a.sum(axis=1).max()), "hermitian")


def _draw_model(data, n, eta_range):
    """A symmetric profile, lambda = t + i eta with eta drawn from
    ``eta_range``, and either no deformation or a dense Hermitian Y.

    The profile has uniform random entries or two levels 10 to 100 times
    apart; near the real axis the second kind sends unguarded
    extrapolations to other fixed points.
    """
    if data.draw(st.booleans()):
        a = data.draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 4.0)))
        prof = VarianceProfile((a + a.T) / 2.0, "hermitian")
    else:
        prof = _two_level_profile(n, data.draw(st.integers(1, n)),
                                  data.draw(st.floats(10.0, 100.0)))
    t = data.draw(st.floats(-2.0, 2.0))
    eta = data.draw(st.floats(*eta_range))
    y = None
    if data.draw(st.booleans()):
        b = data.draw(arrays(np.complex128, (n, n),
                             elements=st.complex_numbers(max_magnitude=2.0)))
        y = (b + b.conj().T) / 2.0
    return prof, y, SpectralParameter.scalar(t + 1j * eta, n)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 16))
def test_accelerated_solve_lands_on_the_averaged_iteration_fixed_point(data, n):
    prof, y, lam = _draw_model(data, n, (0.02, 0.5))
    sol = solve_dyson(prof, y, lam)
    assert sol.converged
    ref = averaged_fixed_point(prof, y, lam)
    assert np.max(np.abs(sol.g_square.diag - ref)) <= 1e-8


@pytest.mark.parametrize("make_profile, lam_value, tolerance", [
    # an in-bulk point of criterion 5's dilated 360 x 400 model
    (criterion_5_profile, 1.0 + 0.01j, 1e-9),
    # without the Stieltjes-domain guard this solve settles 0.98 away
    (lambda: _two_level_profile(4, 1, 100.0), 0.5 + 0.02j, 1e-12),
    # going on from an extrapolation whose residual grew, with the history
    # cleared, makes this solve cycle to the cap
    (lambda: VarianceProfile(np.array([[1.0, 0.75, 0.0], [0.75, 0.0, 0.0],
                                       [0.0, 0.0, 0.0]]), "hermitian"), 0.03125j, 1e-12),
], ids=["criterion-5-bulk", "two-level-4", "overshoot-3"])
def test_accelerated_solve_lands_on_the_averaged_iteration_fixed_point_at(
        make_profile, lam_value, tolerance):
    prof = make_profile()
    lam = SpectralParameter.scalar(lam_value, prof.rows)
    sol = solve_dyson(prof, None, lam, SolverConfig(tolerance=tolerance))
    assert sol.converged
    ref = averaged_fixed_point(prof, None, lam, tolerance=1e-13)
    assert np.max(np.abs(sol.g_square.diag - ref)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 16), cap=st.integers(1, 6))
def test_solves_stopped_mid_extrapolation_stay_in_the_stieltjes_domain(data, n, cap):
    prof, y, lam = _draw_model(data, n, (0.01, 0.5))
    g = solve_dyson(prof, y, lam, SolverConfig(max_iterations=cap)).g_square.diag
    assert np.all(g.imag <= 0.0)
    assert np.all(np.abs(g) <= (1.0 + 1e-12) / lam.diag.imag)


def test_in_bulk_solves_stopped_mid_extrapolation_stay_in_the_stieltjes_domain():
    # Cold solves inside criterion 5's bulk extrapolate to Im G > 0 from the
    # fourth step on; only the guard keeps those candidates out.
    prof = criterion_5_profile()
    lam = SpectralParameter.scalar(1.9 + 0.01j, 760)
    for cap in range(3, 7):
        g = solve_dyson(prof, None, lam, SolverConfig(max_iterations=cap)).g_square.diag
        assert np.all(g.imag < 0.0)
        assert np.all(np.abs(g) <= 100.0)


def test_criterion_5_grid_iteration_count():
    """Warm-started solves over criterion 5's 61-point grid 0:3:0.05.

    The count is deterministic.  Plain damped iteration needs 51,559
    iterations here, the accelerated solver 913.
    """
    prof = criterion_5_profile()
    config = SolverConfig(tolerance=1e-9)
    total = 0
    for t in 0.05 * np.arange(61):
        sol = solve_dyson(prof, None, SpectralParameter.scalar(t + 0.01j, 760), config)
        assert sol.converged
        total += sol.iterations
        config = SolverConfig(tolerance=1e-9, initial=sol.g_square)
    assert total <= 3000


def _real_solve(model, lam, start, max_iterations, tolerance=1e-12):
    """One real-axis solve at lam from start, on the merged path."""
    config = SolverConfig(tolerance=tolerance, max_iterations=max_iterations,
                          initial=start)
    return next(_solve_path(model, [float(lam)], config))


def test_real_axis_solve_reaches_a_lower_gap_on_the_right_branch():
    # The two-level profile has a gap at (0.2, 0.55) between the central
    # bump and the upper bulk.  Walking from above the bulk across it must
    # land on the branch that solve_dyson finds just above the axis.
    prof = normalize_profile(piecewise_profile(40, 40, 1.0, 200.0, hermitian=True))
    model = _prepare(prof, None)
    top = solve_dyson(prof, None, SpectralParameter.scalar(4.0 + 1e-3j, 40))
    g_top = _real_solve(model, 4.0, top.g_square, 2500)
    assert g_top.converged
    assert not _real_solve(model, 1.2, g_top.g_square, 2500).converged  # in the bulk
    g = _real_solve(model, 0.3, g_top.g_square, 10000)
    ref = solve_dyson(prof, None, SpectralParameter.scalar(0.3 + 1e-7j, 40))
    assert g.converged and ref.converged
    assert np.max(np.abs(g.g_square.diag - ref.g_square.diag.real)) <= 5e-10


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 16), k=st.integers(1, 4),
       s=st.floats(0.1, 4.0), c=st.floats(-2.0, 2.0), points=st.integers(3, 40),
       dense=st.booleans())
def test_real_axis_walk_splits_at_the_exact_edge(data, n, k, s, c, points, dense):
    # A symmetrized sum of permutation matrices scaled to row sum s keeps
    # G constant, so with Y = c I the support is c + [-2 sqrt(s), 2 sqrt(s)]
    # and G(lambda) = ((lambda - c) - sqrt((lambda - c)^2 - 4 s)) / 2 s above it.
    p = sum(np.eye(n)[data.draw(st.permutations(range(n)))] for _ in range(k))
    w = (p + p.T) * (s / (2.0 * k))
    model = row_by_row(w, c * np.eye(n) if dense else np.full(n, c))
    edge = 2.0 * np.sqrt(s) + c
    # below G(lambda) > 0, so the first climb is ordered too
    warm = OperatorStieltjes(np.zeros(n))
    for lam in np.linspace(edge + 1.0, c, points):
        sol = _real_solve(model, lam, warm, 10 ** 5)
        g = sol.g_square.diag.real if sol.converged else None
        if lam > edge + 1e-6:
            exact = ((lam - c) - np.sqrt((lam - c) ** 2 - 4.0 * s)) / (2.0 * s)
            # a residual of 1e-12 leaves an error of 1e-12 / (1 - s G^2)
            assert g is not None
            assert np.max(np.abs(g - exact)) <= 4e-12 / (1.0 - s * exact ** 2)
        elif lam < edge - 1e-6:
            assert g is None
        if g is not None:
            warm = sol.g_square


def _real_error_bound(w, y, lam, g, tolerance):
    """How far G may lie from a g whose residual is at most ``tolerance``:
    tolerance ||(I - J)^(-1)||_inf, with J = |M|^2 W the Jacobian of psi."""
    m = np.linalg.inv(np.diag(lam - w @ g) - (np.diag(y) if y.ndim == 1 else y))
    with np.errstate(over="ignore"):  # next to a pole the bound is infinite
        jac = np.abs(m) ** 2 @ w
        if not np.all(np.isfinite(jac)):
            return np.inf
        return tolerance * np.abs(np.linalg.inv(np.eye(g.size) - jac)).sum(axis=1).max()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 6), n=st.integers(1, 12),
       sparse=st.booleans(), dense=st.booleans(), lam=st.floats(-6.0, 8.0),
       drop=st.floats(0.01, 2.0))
def test_a_real_solve_decides_like_plain_steps(seed, r, n, sparse, dense, lam, drop):
    # Above the spectrum a subsolution takes the two-step extrapolation.  A
    # walk down and back up, each point from the last converged G (the first
    # from 0, the last from above G), must decide in or out as plain steps
    # do, agree with them on G within their error bound, and never step
    # short of psi(g) or past G.
    # The entries are seeded draws: hypothesis's round values would put Y's
    # eigenvalues and the support's edges exactly on lambda.
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 4.0, (r, r)) * (rng.random((r, r)) < 0.5 if sparse else 1.0)
    assume(b.max() > 0.0)  # a noise-free model is solved exactly, without steps
    if dense:
        n = r
        w = (b + b.T) / (2.0 * n)
        q = rng.uniform(-1.0, 1.0, (n, n))
        y = (q + q.T) / 2.0
        model = row_by_row(w, y)
    else:
        n = max(n, r)
        labels = rng.permutation(np.arange(n) % r)
        prof = VarianceProfile(((b + b.T) / 2.0)[np.ix_(labels, labels)], "hermitian")
        y = rng.uniform(-2.0, 2.0, r)[labels]
        w = prof.entries / n
        model = _prepare(prof, y)
    tolerance = 1e-10
    start = OperatorStieltjes(np.zeros(n))
    psi_raw = dyson._psi_raw
    for point in (lam, lam - drop, lam + drop):
        steps = []

        def recorded(*args):
            out = psi_raw(*args)
            steps.append((args[2], out[0]))
            return out

        with mock.patch.object(dyson, "_psi_raw", recorded):
            sol = _real_solve(model, point, start, 10 ** 5, tolerance)
        ref, decided = plain_real_solve(w, y, point, start.diag.real, 10 ** 5, tolerance)
        if decided:
            assert sol.converged == (ref is not None)
        bound = None
        if ref is not None:
            bound = 2.0 * _real_error_bound(w, y, point, ref, tolerance) + 1e-14
            if sol.converged:
                assert np.max(np.abs(sol.g_square.diag.real - ref)) <= bound
        for (_, psi_g), (g, _) in zip(steps, steps[1:]):
            if not np.array_equal(g, psi_g):  # an extrapolated iterate
                assert np.all(g >= psi_g - 1e-15 * np.abs(psi_g))
                if bound is not None:
                    assert np.all(g[model.labels] <= ref + bound)
        if sol.converged:
            start = sol.g_square


def test_a_real_point_in_the_support_returns_its_start():
    prof = constant_profile(30, 30, 1.0, hermitian=True)
    model = _prepare(prof, None)
    outside = _real_solve(model, 3.0, OperatorStieltjes(np.zeros(30)), 1000)
    assert outside.converged
    assert outside.g_square.diag.real == pytest.approx(np.full(30, (3.0 - np.sqrt(5.0)) / 2.0),
                                                        abs=1e-11)
    inside = _real_solve(model, 1.0, outside.g_square, 1000)
    assert not inside.converged and not inside.contraction_certified
    # the mu >= 1 certificate stops it at the first step, not the cap
    assert inside.iterations == 1
    assert inside.g_square is outside.g_square
    assert inside.residual == inside.residual_history[0]
    # the path goes on from the same start
    after = list(_solve_path(model, [1.0, 2.5], SolverConfig(initial=outside.g_square)))
    assert not after[0].converged and after[1].converged
    assert after[1].g_square.diag.real == pytest.approx(
        np.full(30, (2.5 - np.sqrt(2.25)) / 2.0), abs=1e-11)
    # a complex start is read by its real part
    seed, real = _solve_path(model, [SpectralParameter.scalar(3.0 + 1e-3j, 30), 3.0])
    assert real.converged
    assert np.max(np.abs(real.g_square.diag - outside.g_square.diag)) <= 1e-11


def test_a_real_point_needs_a_start_and_a_finite_value():
    model = _prepare(constant_profile(4, 4, 1.0, hermitian=True), None)
    with pytest.raises(ValueError):
        next(_solve_path(model, [3.0]))
    # the first point may be complex and seed the real one after it
    sols = list(_solve_path(model, [SpectralParameter.scalar(3.0 + 1j, 4), 3.0]))
    assert all(sol.converged for sol in sols)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            next(_solve_path(model, [bad], SolverConfig(initial=sols[1].g_square)))


@pytest.mark.parametrize("lam, cap", [(3.0, 10000), (1.0, 10000), (2.1, 5)])
def test_a_real_solve_counts_every_evaluation_of_psi(monkeypatch, lam, cap):
    calls = []
    psi_raw = dyson._psi_raw

    def counted(*args):
        calls.append(args)
        return psi_raw(*args)

    monkeypatch.setattr(dyson, "_psi_raw", counted)
    model = _prepare(constant_profile(30, 30, 1.0, hermitian=True), None)
    sol = _real_solve(model, lam, OperatorStieltjes(np.zeros(30)), cap)
    assert sol.iterations == len(sol.residual_history) == len(calls)
    assert sol.converged == (lam == 3.0)
    assert sol.iterations <= cap


def test_a_noise_free_real_point_is_exact_or_in_the_support():
    y = np.array([0.5, -0.2, 0.0])
    model = _prepare(constant_profile(3, 3, 0.0, hermitian=True), y)
    start = OperatorStieltjes(np.zeros(3))
    sol = _real_solve(model, 1.0, start, 10)
    assert sol.converged and sol.iterations == 1 and sol.residual == 0.0
    assert np.array_equal(sol.g_square.diag, 1.0 / (1.0 - y))
    at_eigenvalue = _real_solve(model, 0.5, start, 10)
    assert not at_eigenvalue.converged and at_eigenvalue.g_square is start


def test_diagonal_shift_translates_the_argument():
    """With Y = c I the solution equals the unshifted one at lambda - c."""
    n, c = 200, 0.8
    prof = constant_profile(n, n, 1.0, hermitian=True)
    lam_value = 0.5 + 1.1j
    shifted = solve_dyson(prof, np.full(n, c),
                          SpectralParameter.scalar(lam_value, n))
    oracle = g_semicircle(lam_value - c)
    assert abs(complex(shifted.g_square.diag.mean()) - oracle) <= 1e-10


def test_dilated_constant_profile_block_equations():
    # For the dilated constant N x M profile the fixed point is block
    # constant and solves g_n = 1/(lam - g_m), g_m = 1/(lam - (N/M) g_n).
    from deteq.dilation import RectangularModel, dilate_model

    n, m = 60, 80
    dil = dilate_model(RectangularModel(profile=constant_profile(n, m, 1.0)))
    lam_value = 0.4 + 0.9j
    sol = solve_dyson(dil.profile, None,
                      SpectralParameter.scalar(lam_value, n + m))
    g = sol.g_square.diag
    g_n, g_m = complex(g[:n].mean()), complex(g[n:].mean())
    assert np.max(np.abs(g[:n] - g_n)) <= 1e-12
    assert np.max(np.abs(g[n:] - g_m)) <= 1e-12
    assert abs(g_n - 1.0 / (lam_value - g_m)) <= 1e-9
    assert abs(g_m - 1.0 / (lam_value - (n / m) * g_n)) <= 1e-9


def test_zero_profile_short_circuits_exactly():
    y = np.array([0.5, -0.2, 0.0])
    prof = constant_profile(3, 3, 0.0, hermitian=True)
    lam = SpectralParameter.scalar(1.0 + 0.3j, 3)
    sol = solve_dyson(prof, y, lam)
    assert sol.converged and sol.iterations == 1 and sol.residual == 0.0
    assert np.allclose(sol.g_square.diag, 1.0 / (lam.diag - y), rtol=0.0, atol=0.0)


def test_dense_deformation_matches_component_equation():
    rng = np.random.default_rng(2)
    n = 24
    prof = constant_profile(n, n, 1.0, hermitian=True)
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = (y + y.conj().T) / 2.0
    lam = SpectralParameter.scalar(0.2 + 1.4j, n)
    sol = solve_dyson(prof, y, lam)
    assert sol.converged
    g = sol.g_square.diag
    resolvent = np.linalg.inv(np.diag(lam.diag - r_map(prof, g)) - y)
    assert np.max(np.abs(g - resolvent.diagonal())) <= 1e-10


def test_dense_deformation_trace_is_rotation_invariant():
    # A constant profile sees Y only through unitary invariants of the
    # resolvent trace, so rotating Y must not move the mean of G.
    rng = np.random.default_rng(5)
    n = 20
    prof = constant_profile(n, n, 1.0, hermitian=True)
    y = rng.standard_normal((n, n))
    y = (y + y.T) / 2.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) +
                        1j * rng.standard_normal((n, n)))
    lam = SpectralParameter.scalar(0.1 + 1.2j, n)
    g_plain = solve_dyson(prof, y, lam).g_square.diag.mean()
    g_rot = solve_dyson(prof, q @ y @ q.conj().T, lam).g_square.diag.mean()
    assert abs(complex(g_plain) - complex(g_rot)) <= 1e-9


def test_two_initializations_agree():
    prof = random_profile(40, seed=17)
    im = np.sqrt(prof.gamma_max_sq) * 1.6
    lam = SpectralParameter.scalar(0.3 + 1j * im, 40)
    base = solve_dyson(prof, None, lam)
    warm = OperatorStieltjes(np.full(40, -0.4j))
    other = solve_dyson(prof, None, lam, SolverConfig(initial=warm))
    assert base.converged and other.converged
    assert np.max(np.abs(base.g_square.diag - other.g_square.diag)) <= 1e-11


def test_iteration_budget_is_respected():
    prof = constant_profile(50, 50, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(0.0 + 0.01j, 50)
    sol = solve_dyson(prof, None, lam, SolverConfig(max_iterations=2))
    assert not sol.converged
    assert sol.iterations == 2
    assert sol.residual > 1e-12
    assert sol.residual_history.shape == (2,)


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_capped_solve_reports_the_residual_of_the_returned_iterate(cap):
    prof = constant_profile(50, 50, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(0.01j, 50)
    sol = solve_dyson(prof, None, lam, SolverConfig(max_iterations=cap))
    assert not sol.converged and sol.iterations == cap
    g = sol.g_square
    actual = np.abs(g.diag - psi_step(prof, None, lam, g).diag).max()
    assert sol.residual == pytest.approx(actual, rel=1e-12)
    assert sol.residual == sol.residual_history[-1]


def test_deformation_validation():
    prof = constant_profile(3, 3, 1.0, hermitian=True)
    lam = SpectralParameter.scalar(1j, 3)
    with pytest.raises(ValueError):
        solve_dyson(prof, np.ones(4), lam)
    with pytest.raises(ValueError):
        solve_dyson(prof, np.ones((2, 2)), lam)
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        solve_dyson(prof, skew, lam)
    with pytest.raises(ValueError):
        solve_dyson(prof, np.full(3, 0.1 + 0.2j), lam)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="deformation must be finite"):
            solve_dyson(prof, np.array([0.0, bad, 0.0]), lam)
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = bad
        with pytest.raises(ValueError, match="deformation must be finite"):
            solve_dyson(prof, dense, lam)
        with pytest.raises(ValueError, match="deformation must be finite"):
            psi_step(prof, np.full(3, bad), lam, OperatorStieltjes(np.full(3, -1j)))


def test_omega_square_subordination():
    prof = constant_profile(100, 100, 1.0, hermitian=True)
    lam_value = 0.9 + 1.5j
    lam = SpectralParameter.scalar(lam_value, 100)
    sol = solve_dyson(prof, None, lam)
    omega = omega_square(prof, sol, lam)
    oracle = lam_value - g_semicircle(lam_value)
    assert np.max(np.abs(omega - oracle)) <= 1e-10
    broke = solve_dyson(prof, None, SpectralParameter.scalar(0.01j, 100),
                        SolverConfig(max_iterations=3))
    with pytest.raises(ValueError):
        omega_square(prof, broke, lam)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(tolerance=float("inf"))


@pytest.mark.parametrize("cap", [2.5, 3.0, "3", None])
def test_the_iteration_cap_must_be_an_integer(cap):
    # A fractional cap would never equal the iteration count, so the solve
    # would run past it.
    with pytest.raises(ValueError, match="max_iterations"):
        SolverConfig(max_iterations=cap)
    config = SolverConfig(max_iterations=np.int64(3))
    sol = solve_dyson(constant_profile(20, 20, 1.0, hermitian=True), None,
                      SpectralParameter.scalar(0.1 + 0.001j, 20), config)
    assert not sol.converged and sol.iterations == 3


# Frozen reference values for the error radii at gamma_max = 1, delta = 0.5,
# d = 2, n = 400, Im lambda = 0.5.
_EPS_DIAG = 1.0150987322723266
_EPS_TILDE_DIAG = 0.10523273530409141
_EPS_GENERAL = 1.6990987322723266
_EPS_TILDE_GENERAL = 0.7892327353040913


def test_concentration_bound_frozen_values():
    diag = ConcentrationBound(
        gamma_max=1.0, delta=0.5, d=2.0, n=400, im_lambda=0.5, diagonal_y=True)
    assert abs(diag.epsilon - _EPS_DIAG) <= 1e-15
    assert abs(diag.epsilon_tilde - _EPS_TILDE_DIAG) <= 1e-15
    assert diag.admissible
    general = ConcentrationBound(
        gamma_max=1.0, delta=0.5, d=2.0, n=400, im_lambda=0.5)
    assert abs(general.epsilon - _EPS_GENERAL) <= 1e-15
    assert abs(general.epsilon_tilde - _EPS_TILDE_GENERAL) <= 1e-15
    assert general.admissible
    # diagonal deformations sharpen the non-leading term
    assert diag.epsilon < general.epsilon
    assert diag.epsilon_tilde < general.epsilon_tilde


def test_concentration_admissibility_boundaries():
    # thresholds: 0.2509901442183411 (diagonal), 0.39810717055349726 (general)
    diag_threshold = 0.2509901442183411
    gen_threshold = 0.39810717055349726
    base = dict(gamma_max=1.0, delta=0.5, d=2.0, n=400)
    assert ConcentrationBound(**base, im_lambda=diag_threshold,
                              diagonal_y=True).admissible
    assert not ConcentrationBound(**base, im_lambda=diag_threshold * 0.999,
                                  diagonal_y=True).admissible
    assert ConcentrationBound(**base, im_lambda=gen_threshold).admissible
    assert not ConcentrationBound(**base, im_lambda=gen_threshold * 0.999).admissible


def test_concentration_zero_noise_is_free():
    res = ConcentrationBound(
        gamma_max=0.0, delta=0.5, d=2.0, n=100, im_lambda=0.01)
    assert res.epsilon == 0.0
    assert res.epsilon_tilde == 0.0
    assert res.admissible


def test_concentration_parameter_validation():
    with pytest.raises(ValueError):
        ConcentrationBound(gamma_max=1.0, delta=0.0, d=2.0, n=10, im_lambda=1.0)
    with pytest.raises(ValueError):
        ConcentrationBound(gamma_max=1.0, delta=1.0, d=2.0, n=10, im_lambda=1.0)
    with pytest.raises(ValueError):
        ConcentrationBound(gamma_max=1.0, delta=0.5, d=0.0, n=10, im_lambda=1.0)
    with pytest.raises(ValueError):
        ConcentrationBound(gamma_max=-1.0, delta=0.5, d=2.0, n=10, im_lambda=1.0)
    with pytest.raises(ValueError):
        ConcentrationBound(gamma_max=1.0, delta=0.5, d=2.0, n=10, im_lambda=0.0)


def test_concentration_parameters_must_be_finite():
    base = dict(gamma_max=1.0, delta=0.5, d=2.0, n=10, im_lambda=1.0)
    for name in ("gamma_max", "d", "im_lambda"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                ConcentrationBound(**{**base, name: bad})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=st.integers(1, 4), n=st.integers(1, 24),
       y_kind=st.sampled_from(["none", "class", "row"]), permutations=st.booleans())
def test_block_profile_solution_is_class_constant_and_solves_the_dense_equation(
        data, r, n, y_kind, permutations):
    if permutations:
        # A symmetrized sum of r permutation matrices with small integer
        # weights: the rows differ, but each sums to the same value exactly, so
        # without Y they form one class.  Every row is its own label here.
        weights = data.draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
        p = sum(c * np.eye(n)[data.draw(st.permutations(range(n)))] for c in weights)
        prof = VarianceProfile((p + p.T) / 8.0, "hermitian")
        labels = np.arange(n)
        r = n
    else:
        labels = np.array(data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)))
        b = data.draw(arrays(np.float64, (r, r), elements=st.floats(0.0, 4.0)))
        prof = VarianceProfile(((b + b.T) / 2.0)[np.ix_(labels, labels)], "hermitian")
    y = None
    if y_kind == "class":
        y = data.draw(arrays(np.float64, r, elements=st.floats(-2.0, 2.0)))[labels]
    elif y_kind == "row":
        y = data.draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    lam_value = complex(data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(0.1, 2.0)))
    sol = solve_dyson(prof, y, SpectralParameter.scalar(lam_value, n))
    assert sol.converged
    g = sol.g_square.diag
    y_rows = np.zeros(n) if y is None else y
    # rows with equal labels and equal y_i have one value
    for c, value in set(zip(labels, y_rows)):
        rows = (labels == c) & (y_rows == value)
        assert np.all(g[rows] == g[rows][0])
    if permutations and y is None:
        assert _prepare(prof, None).sizes.size == 1
        assert np.all(g == g[0])
    dense = 1.0 / (lam_value - (prof.entries / n) @ g - y_rows)
    assert np.max(np.abs(g - dense)) <= 1e-10


def test_row_classes_of_the_cli_profiles():
    def dilated(profile):
        return dilate_model(RectangularModel(profile=profile)).profile

    model = _prepare(criterion_5_profile(), None)
    assert list(model.sizes) == [360, 400]
    assert np.array_equal(model.labels, np.repeat([0, 1], [360, 400]))
    assert model.w.shape == (2, 2)
    piecewise = dilated(normalize_profile(piecewise_profile(360, 400, 1.0, 200.0)))
    assert list(_prepare(piecewise, None).sizes) == [90, 270, 100, 300]
    # every row of the doubly stochastic profile sums to the same value: one class
    stochastic = dilated(doubly_stochastic_profile(400, 8, seed=11))
    model = _prepare(stochastic, None)
    assert list(model.sizes) == [800]
    assert model.w[0, 0] == stochastic.entries[0].sum() / 800
    bernoulli = dilated(bernoulli_profile(360, 400, 0.3, seed=1))
    model = _prepare(bernoulli, None)
    assert model.sizes.size == bernoulli.rows
    assert np.array_equal(model.w, bernoulli.entries / bernoulli.rows)
    # a diagonal Y splits classes; a dense one makes every row a class
    herm = constant_profile(6, 6, 1.0, hermitian=True)
    assert list(_prepare(herm, np.array([0.0, 0.0, 1.0, 1.0, 0.0, 2.0])).sizes) == [3, 2, 1]
    dense = np.ones((6, 6))
    assert _prepare(herm, dense).sizes.size == 6


def test_rows_that_differ_by_one_ulp_are_never_merged():
    entries = np.ones((5, 5))
    entries[0, 1] = entries[1, 0] = np.nextafter(1.0, 2.0)
    prof = VarianceProfile(entries, "hermitian")
    # Every row sums to 5 in floating point, but rows 0 and 1 sum to 5 + 2^-52
    # exactly: they are never merged with rows 2-4.  Swapping rows 0 and 1
    # maps Gamma to itself, so those two share a class.
    model = dyson._prepare(prof, None)
    assert list(model.labels) == [0, 0, 1, 1, 1]
    # the solve on those classes is the row-by-row one
    lam = SpectralParameter.scalar(0.3 + 0.05j, 5)
    by_class = next(_solve_path(model, [lam], SolverConfig(tolerance=1e-14)))
    by_row = next(_solve_path(model.refined(np.arange(5.0)), [lam],
                              SolverConfig(tolerance=1e-14)))
    assert by_class.converged and by_row.converged
    assert np.max(np.abs(by_class.g_square.diag - by_row.g_square.diag)) <= 1e-13
    assert dyson._prepare(constant_profile(5, 5, 1.0, hermitian=True), None).sizes.size == 1
    shifted = np.array([0.0, 0.0, 0.0, 0.0, 1e-300])
    assert list(dyson._prepare(constant_profile(5, 5, 1.0, hermitian=True),
                               shifted).labels) == [0, 0, 0, 0, 1]
    # Every row sums to inf, and comparing rows 2 and 3 with row 0 overflows
    # fsum: an overflow counts as a difference.  Rows 0 and 1, and rows 2 and
    # 3, differ exactly and are never merged.
    big, bigger = 0.9e308, 1e308
    huge = np.array([[0.0, 0.0, bigger, bigger], [0.0, 0.0, bigger, big],
                     [bigger, bigger, 0.0, 0.0], [bigger, big, 0.0, 0.0]])
    labels = dyson._prepare(VarianceProfile(huge, "hermitian"), None).labels
    assert labels[0] != labels[1] and labels[2] != labels[3]


def test_criterion_5_grid_runs_on_two_class_values(monkeypatch):
    # The dilated 360 x 400 constant profile has two row classes, so every
    # evaluation of psi on criterion 5's grid handles 2 values, not 760.
    sizes = []
    psi_raw = dyson._psi_raw

    def recorded(*args):
        sizes.append(len(args[2]))
        return psi_raw(*args)

    monkeypatch.setattr(dyson, "_psi_raw", recorded)
    curve = density_curve(criterion_5_profile(), None, 0.05 * np.arange(61), eta=0.01,
                          config=SolverConfig(tolerance=1e-9))
    assert curve.converged.all()
    assert set(sizes) == {2}
    assert len(sizes) <= 913


def test_refined_classes_follow_a_non_scalar_lambda_and_start():
    # A Lambda or a start that varies inside a class splits it, so the solve
    # equals the one on singleton classes.
    prof = criterion_5_profile()
    lam_diag = np.full(760, 1.0 + 0.05j)
    lam_diag[:10] += 0.2
    lam = SpectralParameter(lam_diag)
    sol = solve_dyson(prof, None, lam)
    g = sol.g_square.diag
    assert sol.converged
    assert np.all(g[:10] == g[0]) and np.all(g[10:360] == g[10]) and g[0] != g[10]
    dense = 1.0 / (lam_diag - (prof.entries / 760) @ g)
    assert np.max(np.abs(g - dense)) <= 1e-10
    start = OperatorStieltjes(np.where(np.arange(760) % 2 == 0, -1j, -2j))
    again = solve_dyson(prof, None, lam, SolverConfig(initial=start))
    assert again.converged
    assert np.max(np.abs(again.g_square.diag - g)) <= 1e-11


def _close(a, b, tol=1e-12) -> bool:
    """Agreement to ``tol`` relative to the larger magnitude of the two."""
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol * scale


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), form=st.sampled_from(["absent", "diagonal", "real", "complex"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_deformation_form_answers_as_the_full_matrix(n, form, seed):
    # The contract of the objects _classify_deformation returns: every member
    # matches a reference built from the full matrix diag(shift) - Y.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if form == "complex":
        a = a + 1j * rng.standard_normal((n, n))
    y = {"absent": None, "diagonal": rng.standard_normal(n),
         "real": (a + a.T) / 2.0, "complex": (a + a.conj().T) / 2.0}[form]
    full = np.zeros((n, n)) if y is None else np.diag(y) if y.ndim == 1 else y
    deformation = dyson._classify_deformation(y, n)
    assert (deformation.array is None) == (y is None)
    if y is not None:  # a Y without off-diagonal part reads as its diagonal
        diagonal = not np.any(full - np.diag(np.diag(full)))
        assert np.array_equal(deformation.array, np.diag(full) if diagonal else full)
    assert _close(deformation.norm, np.linalg.norm(full, 2))

    shift = rng.standard_normal(n) + 1j * rng.uniform(0.5, 2.0, n)
    assert _close(deformation.psi(shift.copy()), np.linalg.inv(np.diag(shift) - full).diagonal())

    # a real shift, moved until diag(shift) - Y is at least 0.1 from singular
    real = rng.uniform(-3.0, 3.0, n)
    while np.min(np.abs(np.linalg.eigvalsh(np.diag(real) - full))) < 0.1:
        real += 0.05
    eigenvalues = np.linalg.eigvalsh(np.diag(real) - full)
    m_ref = np.linalg.inv(np.diag(real) - full)
    psi, inertia, top, m = deformation.psi(real.copy(), True)
    assert _close(psi, m_ref.diagonal())
    assert np.sum(inertia) == np.count_nonzero(eigenvalues > 0.0)
    assert top == np.all(eigenvalues > 0.0)
    w = rng.uniform(0.0, 1.0, (n, n)) / n
    x = rng.standard_normal(n)
    assert _close(deformation.jacobian_apply(w, m, x), np.abs(m_ref) ** 2 @ (w @ x))

    # the core at the fixed point g = diag[(lam - W g - Y)^(-1)], which Im lam >= 2
    # makes a contraction by 1/4
    lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(2.0, 3.0))
    g = np.zeros(n, dtype=complex)
    for _ in range(60):
        g = np.linalg.inv(np.diag(lam - w @ g) - full).diagonal()
    u = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    core = u.conj().T @ np.linalg.inv(np.diag(lam - w @ g) - full) @ u
    assert _close(deformation.core(u, w, lam, g), core)

    # a draw, a Fortran-ordered draw and a stack of draws, minus Y and plus Y
    draws = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    for draw in (draws[0], np.asfortranarray(draws[1]), draws):
        for op in (np.subtract, np.add):
            out = draw.copy(order="K")
            deformation.combine(out, op)
            assert np.array_equal(out, op(draw, full))


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_hermitian_inverse_diagonal_and_inertia(n):
    rng = np.random.default_rng(n)
    for complex_entries, hollow in ((False, False), (True, False), (False, True), (True, True)):
        a = rng.standard_normal((n, n))
        if complex_entries:
            a = a + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T) / 2.0
        if hollow and n > 1:
            # a zero diagonal makes Bunch-Kaufman take 2 x 2 pivots
            a -= np.diag(np.diag(a))
        diag, positive, inv = _hermitian_inverse_diagonal(a.copy())
        assert np.max(np.abs(diag - np.linalg.inv(a).diagonal().real)) <= 1e-10
        assert np.max(np.abs(inv - np.linalg.inv(a))) <= 1e-10
        assert positive == np.count_nonzero(np.linalg.eigvalsh(a) > 0.0)


def test_class_solve_takes_the_steps_of_the_row_by_row_solve():
    # Weighting each class's least-squares row by sqrt(class size) makes the
    # Anderson step on class values the step on all rows, so the two solves
    # see the same residuals.
    prof = dilate_model(RectangularModel(profile=constant_profile(12, 40, 1.0))).profile
    model = _prepare(prof, None)
    rows = model.refined(np.arange(52.0))  # every row its own class
    assert model.sizes.size == 2 and rows.sizes.size == 52
    lam = SpectralParameter.scalar(1.2 + 0.01j, 52)
    config = SolverConfig(tolerance=1e-10)
    by_class = next(_solve_path(model, [lam], config))
    by_row = next(_solve_path(rows, [lam], config))
    assert by_class.converged and by_class.iterations == by_row.iterations
    # rounding grows as the residual falls; compare while it is large
    live = by_row.residual_history > 1e-8
    assert np.allclose(by_class.residual_history[live], by_row.residual_history[live],
                       rtol=1e-9, atol=0.0)
