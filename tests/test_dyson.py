from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deteq.dyson import (ConcentrationBound, OperatorStieltjes, SolverConfig,
                         SpectralParameter, _solve_real, concentration_bound,
                         omega_square, psi_step, r_map, solve_dyson)
from deteq.profiles import (VarianceProfile, constant_profile, normalize_profile,
                            piecewise_profile)

# Semicircle Stieltjes transform with the branch cut on [-2, 2].
def _g_semicircle(lam: complex) -> complex:
    return (lam - np.sqrt(complex(lam - 2.0)) * np.sqrt(complex(lam + 2.0))) / 2.0


def _random_profile(n: int, seed: int) -> VarianceProfile:
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return VarianceProfile((a + a.T) / 2.0, "hermitian")


def test_spectral_parameter_validation():
    lam = SpectralParameter.scalar(0.5 + 2j, 4)
    assert lam.dim == 4
    assert lam.im_min == 2.0
    assert lam.inv_im_norm() == 0.5
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
    oracle = _g_semicircle(lam_value)
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


def _averaged_fixed_point(prof, y, lam, tolerance=1e-12, max_iterations=20000):
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


def _two_level_profile(n, k, ratio):
    """A k x k block ``ratio`` times louder than the rest, row sums <= n."""
    a = np.ones((n, n))
    a[:k, :k] = ratio
    return VarianceProfile(a * (n / a.sum(axis=1).max()), "hermitian")


def _criterion_5_profile():
    from deteq.dilation import RectangularModel, dilate_model

    return dilate_model(RectangularModel(profile=constant_profile(360, 400, 1.0))).profile


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
    ref = _averaged_fixed_point(prof, y, lam)
    assert np.max(np.abs(sol.g_square.diag - ref)) <= 1e-8


@pytest.mark.parametrize("make_profile, lam_value, tolerance", [
    # an in-bulk point of criterion 5's dilated 360 x 400 model
    (_criterion_5_profile, 1.0 + 0.01j, 1e-9),
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
    ref = _averaged_fixed_point(prof, None, lam, tolerance=1e-13)
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
    prof = _criterion_5_profile()
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
    prof = _criterion_5_profile()
    config = SolverConfig(tolerance=1e-9)
    total = 0
    for t in 0.05 * np.arange(61):
        sol = solve_dyson(prof, None, SpectralParameter.scalar(t + 0.01j, 760), config)
        assert sol.converged
        total += sol.iterations
        config = SolverConfig(tolerance=1e-9, initial=sol.g_square)
    assert total <= 3000


def test_real_axis_solve_reaches_a_lower_gap_on_the_right_branch():
    # The two-level profile has a gap at (0.2, 0.55) between the central
    # bump and the upper bulk.  Walking from above the bulk across it must
    # land on the branch that solve_dyson finds just above the axis.
    prof = normalize_profile(piecewise_profile(40, 40, 1.0, 200.0, hermitian=True))
    w = prof.entries / 40
    top = solve_dyson(prof, None, SpectralParameter.scalar(4.0 + 1e-3j, 40))
    g_top = _solve_real(w, None, 4.0, top.g_square.diag.real, 1e-12, 2500)
    assert g_top is not None
    assert _solve_real(w, None, 1.2, g_top, 1e-12, 2500) is None  # in the bulk
    g = _solve_real(w, None, 0.3, g_top, 1e-12, 10000)
    ref = solve_dyson(prof, None, SpectralParameter.scalar(0.3 + 1e-7j, 40))
    assert g is not None and ref.converged
    assert np.max(np.abs(g - ref.g_square.diag.real)) <= 5e-10


def test_diagonal_shift_translates_the_argument():
    """With Y = c I the solution equals the unshifted one at lambda - c."""
    n, c = 200, 0.8
    prof = constant_profile(n, n, 1.0, hermitian=True)
    lam_value = 0.5 + 1.1j
    shifted = solve_dyson(prof, np.full(n, c),
                          SpectralParameter.scalar(lam_value, n))
    oracle = _g_semicircle(lam_value - c)
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
    prof = _random_profile(40, seed=17)
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


def test_omega_square_subordination():
    prof = constant_profile(100, 100, 1.0, hermitian=True)
    lam_value = 0.9 + 1.5j
    lam = SpectralParameter.scalar(lam_value, 100)
    sol = solve_dyson(prof, None, lam)
    omega = omega_square(prof, sol, lam)
    oracle = lam_value - _g_semicircle(lam_value)
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


# Frozen reference values for the error radii at gamma_max = 1, delta = 0.5,
# d = 2, n = 400, Im lambda = 0.5.
_EPS_DIAG = 1.0150987322723266
_EPS_TILDE_DIAG = 0.10523273530409141
_EPS_GENERAL = 1.6990987322723266
_EPS_TILDE_GENERAL = 0.7892327353040913


def test_concentration_bound_frozen_values():
    diag = concentration_bound(ConcentrationBound(
        gamma_max=1.0, delta=0.5, d=2.0, n=400, im_lambda=0.5, diagonal_y=True))
    assert abs(diag.epsilon - _EPS_DIAG) <= 1e-15
    assert abs(diag.epsilon_tilde - _EPS_TILDE_DIAG) <= 1e-15
    assert diag.admissible
    general = concentration_bound(ConcentrationBound(
        gamma_max=1.0, delta=0.5, d=2.0, n=400, im_lambda=0.5))
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
    res = concentration_bound(ConcentrationBound(
        gamma_max=0.0, delta=0.5, d=2.0, n=100, im_lambda=0.01))
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
