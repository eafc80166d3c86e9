import math

import numpy as np
import pytest

from deteq.density import (DensityCurve, density_curve, stieltjes_trace,
                           sv_density_correction, write_density_csv)
import deteq.dyson
from deteq.dyson import OperatorStieltjes, SolverConfig, SpectralParameter, solve_dyson
from deteq.profiles import constant_profile

from reference import criterion_5_profile, g_semicircle


def _cauchy(t, eta):
    return eta / (math.pi * (t * t + eta * eta))


def test_stieltjes_trace_is_the_mean():
    g = OperatorStieltjes(np.array([0.5 - 1j, -0.5 - 3j]))
    assert stieltjes_trace(g) == complex(0.0, -2.0)


def test_zero_noise_point_mass_smooths_to_cauchy():
    """A noise-free scalar model has density exactly eta/(pi (t^2 + eta^2))."""
    prof = constant_profile(1, 1, 0.0, hermitian=True)
    eta = 0.01
    grid = np.array([0.0, 0.05, 1.0])
    curve = density_curve(prof, None, grid, eta=eta)
    for t, v in zip(grid, curve.values):
        assert abs(v - _cauchy(t, eta)) <= 1e-12
    assert curve.converged.all()
    assert curve.eta == eta


def test_density_matches_smoothed_semicircle():
    # The constant-profile curve at t + i eta equals the closed-form
    # semicircle transform evaluated off the axis, for every N.
    prof = constant_profile(400, 400, 1.0, hermitian=True)
    eta = 0.05
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.05)
    curve = density_curve(prof, None, grid, eta=eta)
    assert curve.converged.all()
    oracle = np.array([-g_semicircle(t + 1j * eta).imag / math.pi for t in grid])
    assert np.max(np.abs(curve.values - oracle)) <= 1e-9
    assert abs(curve.mass() - 1.0) <= 0.02  # Cauchy tails leak a little mass


def test_warm_started_curve_matches_cold_solves():
    prof = constant_profile(60, 60, 1.0, hermitian=True)
    grid = np.linspace(-2.5, 2.5, 21)
    eta = 0.1
    curve = density_curve(prof, None, grid, eta=eta)
    for t, value, flag in zip(grid, curve.values, curve.converged):
        sol = solve_dyson(prof, None, SpectralParameter.scalar(t + 1j * eta, 60))
        assert flag == sol.converged
        assert abs(value + stieltjes_trace(sol.g_square).imag / math.pi) <= 1e-11


def test_density_curve_validation():
    prof = constant_profile(4, 4, 1.0, hermitian=True)
    with pytest.raises(ValueError):
        density_curve(prof, None, np.empty(0), eta=0.1)
    with pytest.raises(ValueError):
        density_curve(prof, None, np.linspace(0, 1, 4), eta=0.0)
    with pytest.raises(ValueError):
        DensityCurve(grid=np.array([0.0, 1.0]), values=np.array([-1.0, 0.0]),
                     eta=0.1, converged=np.array([True, True]), tolerance=1e-12)
    with pytest.raises(ValueError):
        DensityCurve(grid=np.array([0.0, 1.0]), values=np.array([0.0]),
                     eta=0.1, converged=np.array([True]), tolerance=1e-12)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_eta_is_checked_on_entry(eta):
    prof = constant_profile(4, 4, 1.0, hermitian=True)
    with pytest.raises(ValueError, match="^eta must be finite and > 0$"):
        density_curve(prof, None, np.linspace(0, 1, 4), eta=eta)
    with pytest.raises(ValueError, match="^eta must be finite and > 0$"):
        DensityCurve(grid=np.array([0.0, 1.0]), values=np.array([0.0, 0.0]),
                     eta=eta, converged=np.array([True, True]), tolerance=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_curve_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        DensityCurve(grid=np.array([0.0, 1.0]), values=np.array([bad, 0.0]),
                     eta=0.1, converged=np.array([True, True]), tolerance=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_grid_point_is_rejected_before_any_solve(monkeypatch, bad):
    def refused(*args, **kwargs):
        raise AssertionError("a bad grid must be rejected before psi is evaluated")

    monkeypatch.setattr(deteq.dyson, "_psi_raw", refused)
    prof = constant_profile(4, 4, 1.0, hermitian=True)
    with pytest.raises(ValueError, match="^grid must be a non-empty vector of finite points$"):
        density_curve(prof, None, [0.0, 0.5, bad])


def test_sv_correction_square_case_doubles():
    grid = np.linspace(0.0, 2.0, 11)
    raw = DensityCurve(grid=grid, values=np.full(11, 0.25), eta=0.01,
                       converged=np.ones(11, dtype=bool), tolerance=1e-12)
    out = sv_density_correction(raw, 50, 50)
    assert np.allclose(out.values, 0.5, rtol=0.0, atol=1e-15)


def test_sv_correction_cancels_the_origin_bump():
    # A raw curve equal to the zero-singular-value bump alone maps to zero.
    n, m, eta = 30, 50, 0.02
    q = (m - n) / (m + n)
    grid = np.linspace(0.0, 1.0, 41)
    bump = q * eta / (math.pi * (grid ** 2 + eta ** 2))
    raw = DensityCurve(grid=grid, values=bump, eta=eta,
                       converged=np.ones(41, dtype=bool), tolerance=1e-12)
    out = sv_density_correction(raw, n, m)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_sv_correction_validation():
    grid = np.linspace(0.0, 1.0, 5)
    raw = DensityCurve(grid=grid, values=np.zeros(5), eta=0.1,
                       converged=np.ones(5, dtype=bool), tolerance=1e-12)
    with pytest.raises(ValueError):
        sv_density_correction(raw, 6, 5)
    signed = DensityCurve(grid=np.linspace(-1.0, 1.0, 5), values=np.zeros(5),
                          eta=0.1, converged=np.ones(5, dtype=bool),
                          tolerance=1e-12)
    with pytest.raises(ValueError):
        sv_density_correction(signed, 4, 5)


def test_mass_is_the_trapezoid_integral():
    grid = np.linspace(0.0, 1.0, 101)
    values = grid ** 2
    curve = DensityCurve(grid=grid, values=values, eta=0.1,
                         converged=np.ones(101, dtype=bool), tolerance=1e-12)
    assert abs(curve.mass() - np.trapezoid(values, grid)) == 0.0
    assert abs(curve.mass() - 1.0 / 3.0) <= 1e-4


def test_density_csv_and_metadata(tmp_path):
    grid = np.array([0.0, 0.5, 1.0])
    curve = DensityCurve(grid=grid, values=np.array([0.1, 0.2, 0.3]), eta=0.05,
                         converged=np.array([True, False, True]),
                         tolerance=1e-10)
    csv_path = tmp_path / "density.csv"
    write_density_csv(curve, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,density"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], grid)
    assert np.array_equal(parsed[:, 1], curve.values)


def test_density_curve_classifies_a_dense_deformation_once(monkeypatch):
    calls = []
    classify = deteq.dyson._classify_deformation

    def counted(y, n):
        calls.append(n)
        return classify(y, n)

    monkeypatch.setattr(deteq.dyson, "_classify_deformation", counted)
    a = np.random.default_rng(3).standard_normal((8, 8))
    prof = constant_profile(8, 8, 1.0, hermitian=True)
    curve = density_curve(prof, (a + a.T) / 4.0, np.linspace(-3.0, 3.0, 21), eta=0.05)
    assert curve.converged.all()
    assert len(calls) == 1


def test_density_curve_equals_the_warm_started_solve_loop():
    # criterion 5's grid, solved point by point as in
    # test_criterion_5_grid_iteration_count
    prof = criterion_5_profile()
    grid = 0.05 * np.arange(61)
    curve = density_curve(prof, None, grid, eta=0.01, config=SolverConfig(tolerance=1e-9))
    config = SolverConfig(tolerance=1e-9)
    for t, value in zip(grid, curve.values):
        sol = solve_dyson(prof, None, SpectralParameter.scalar(t + 0.01j, 760), config)
        assert value == -stieltjes_trace(sol.g_square).imag / math.pi
        config = SolverConfig(tolerance=1e-9, initial=sol.g_square)
