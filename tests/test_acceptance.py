"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its headline numbers (visible with
pytest -s); the asserted tolerances are stated inline.  The heavy sweeps
share Dyson solves through the evaluator cache, but every test is
self-contained and seeded.
"""

import math
import time

import numpy as np
from scipy import integrate

import deteq as dq

_EDGE_360_400 = 1.0 + math.sqrt(0.9)


def _flat(n: int) -> np.ndarray:
    return np.full((n, 1), 1.0 / np.sqrt(n))


def _dilated_constant(n: int, m: int, theta: float) -> dq.HermitianModel:
    spikes = dq.RectangularSpikes(u=_flat(n), theta=[theta], v=_flat(m))
    return dq.HermitianModel.from_dilated(
        dq.dilate_model(dq.RectangularModel(
            profile=dq.constant_profile(n, m, 1.0), spikes=spikes)))


def _symmetrized_ds(n: int, k: int, seed: int) -> dq.VarianceProfile:
    prof = dq.doubly_stochastic_profile(n, k, seed=seed)
    return dq.VarianceProfile((prof.entries + prof.entries.T) / 2.0,
                              "hermitian")


def _g_semicircle(lam: complex) -> complex:
    return (lam - np.sqrt(complex(lam - 2.0)) * np.sqrt(complex(lam + 2.0))) / 2.0


def test_criterion_01_constant_profile_closed_form_root():
    """360 x 400 constant profile, theta = 2: accepted root within 1e-3 of
    the closed form, on the default search window, in under 60 seconds."""
    oracle = dq.closed_form_outlier("constant", 2.0, 360, 400)
    start = time.time()
    report = dq.locate_outliers(_dilated_constant(360, 400, 2.0))
    elapsed = time.time() - start
    roots = report.accepted()
    assert roots, "no accepted outlier on the default window"
    err = min(abs(c.lam - oracle) for c in roots)
    assert err <= 1e-3
    assert elapsed <= 60.0
    print(f"criterion 1: PASS (root error {err:.2e}, {elapsed:.1f}s)")


def test_criterion_02_detection_threshold_sweep():
    """Sweeping 50 spike strengths in (0, 3]: acceptance starts exactly at
    the first grid point past the critical strength 0.9^(1/4) ~ 0.974, and
    below it the determinant minimizer hugs the bulk edge."""
    profile = dq.constant_profile(360, 400, 1.0)
    thetas = [3.0 * (k + 1) / 50 for k in range(50)]
    config = dq.SolverConfig(max_iterations=3000)
    cache: dict = {}
    results = []
    for theta in thetas:
        spikes = dq.RectangularSpikes(u=_flat(360), theta=[theta], v=_flat(400))
        model = dq.HermitianModel.from_dilated(
            dq.dilate_model(dq.RectangularModel(profile=profile, spikes=spikes)))
        report = dq.locate_outliers(model, window=(1.4, 5.4), config=config,
                                    cache=cache)
        best = min(report.candidates, key=lambda c: c.det_abs)
        results.append((theta, best.lam, bool(report.accepted())))

    for theta, lam, accepted in results:
        assert accepted == (theta >= 1.0), \
            f"theta={theta:.2f}: accepted={accepted}"
        if theta <= 0.95:
            assert abs(lam - _EDGE_360_400) <= 0.02, \
                f"theta={theta:.2f}: minimizer {lam:.4f} far from the edge"
        if accepted:
            oracle = dq.closed_form_outlier("constant", theta, 360, 400)
            assert abs(lam - oracle) <= 1e-3
    n_accepted = sum(a for _, _, a in results)
    print(f"criterion 2: PASS ({n_accepted}/50 strengths accepted, "
          f"threshold between 0.96 and 1.02)")


def test_criterion_03_doubly_stochastic_root():
    """K = 8 permutation-sum profile at N = M = 400, theta = 2: accepted
    root within 2e-2 of 2.5."""
    profile = dq.doubly_stochastic_profile(400, 8, seed=11)
    spikes = dq.RectangularSpikes(u=_flat(400), theta=[2.0], v=_flat(400))
    model = dq.HermitianModel.from_dilated(
        dq.dilate_model(dq.RectangularModel(profile=profile, spikes=spikes)))
    report = dq.locate_outliers(model, window=(1.6, 4.5),
                                config=dq.SolverConfig(max_iterations=3000))
    roots = report.accepted()
    assert roots
    err = min(abs(c.lam - 2.5) for c in roots)
    assert err <= 2e-2
    print(f"criterion 3: PASS (root error {err:.2e})")


def test_criterion_04_semicircle_solver_accuracy():
    """The symmetrized doubly stochastic profile keeps constant row sums,
    so the solution must match the semicircle transform to 1e-8."""
    profile = _symmetrized_ds(400, 8, seed=11)
    errs = []
    for t in np.linspace(-3.0, 3.0, 20):
        lam_value = complex(t, 0.05)
        sol = dq.solve_dyson(profile, None,
                             dq.SpectralParameter.scalar(lam_value, 400),
                             dq.SolverConfig(tolerance=1e-12))
        assert sol.converged
        errs.append(abs(complex(sol.g_square.diag.mean())
                        - _g_semicircle(lam_value)))
    sup_err = max(errs)
    assert sup_err <= 1e-8
    print(f"criterion 4: PASS (sup error {sup_err:.2e})")


def test_criterion_05_singular_value_density_mass():
    """Corrected singular-value density of the 360 x 400 flat model:
    unit mass within 5e-2, at least 95% of it inside the bulk window."""
    profile = dq.constant_profile(360, 400, 1.0)
    dilated = dq.dilate_model(dq.RectangularModel(profile=profile))
    eta = 0.01
    grid = 0.005 * np.arange(601)
    curve = dq.density_curve(dilated.profile, None, grid, eta=eta,
                             config=dq.SolverConfig(tolerance=1e-9))
    assert curve.converged.all()
    sv = dq.sv_density_correction(curve, 360, 400)
    mass = sv.mass()
    lo = 1.0 - math.sqrt(0.9) - 3.0 * eta
    hi = 1.0 + math.sqrt(0.9) + 3.0 * eta
    inside = (sv.grid >= lo) & (sv.grid <= hi)
    bulk_share = float(np.trapezoid(sv.values[inside], sv.grid[inside])) / mass
    assert abs(mass - 1.0) <= 0.05
    assert bulk_share >= 0.95
    print(f"criterion 5: PASS (mass {mass:.4f}, bulk share {bulk_share:.4f})")


def test_criterion_06_outliers_depend_on_spike_vectors():
    """Two-level profile, theta = 0.57: flat singular vectors produce an
    accepted root in [0.2, 0.5]; coordinate vectors leave the determinant
    an order of magnitude above the acceptance threshold everywhere."""
    profile = dq.normalize_profile(dq.piecewise_profile(360, 400, 1.0, 200.0))
    config = dq.SolverConfig(max_iterations=3000)

    flat = dq.RectangularSpikes(u=_flat(360), theta=[0.57], v=_flat(400))
    model = dq.HermitianModel.from_dilated(
        dq.dilate_model(dq.RectangularModel(profile=profile, spikes=flat)))
    report = dq.locate_outliers(model, window=(0.2, 0.5), config=config)
    roots = report.accepted()
    assert roots and all(0.2 <= c.lam <= 0.5 for c in roots)

    e1u = np.zeros((360, 1))
    e1u[0, 0] = 1.0
    e1v = np.zeros((400, 1))
    e1v[0, 0] = 1.0
    localized = dq.RectangularSpikes(u=e1u, theta=[0.57], v=e1v)
    model = dq.HermitianModel.from_dilated(
        dq.dilate_model(dq.RectangularModel(profile=profile, spikes=localized)))
    dets, conv = dq.det_beta_curve(model, np.linspace(0.2, 0.5, 61),
                                   config=config)
    assert conv.all()
    floor = float(np.abs(dets).min())
    assert floor > 10.0 * 1e-3
    print(f"criterion 6: PASS (flat-vector root {roots[0].lam:.4f}, "
          f"localized-vector floor {floor:.3f})")


def test_criterion_07_master_equality_monte_carlo():
    """Resolvent identity: N = 50 sample deviation below 0.12 with 2000
    draws; the scalar case agrees with quadrature to 3 standard errors."""
    profile = dq.constant_profile(50, 50, 1.0, hermitian=True)
    deviation = dq.check_master_equality(
        profile, None, dq.SpectralParameter.scalar(1j, 50),
        dq.SampleBatch(seed=7, count=2000, n=50))
    assert deviation <= 0.12

    scalar = dq.constant_profile(1, 1, 1.0, hermitian=True)
    batch = dq.SampleBatch(seed=33, count=20000, n=1)
    draws = np.array([dq.sample_gue_profile(scalar, child)[0, 0].real
                      for child in batch.child_seeds()])
    lhs = draws / (1j - draws)
    se = float(np.std(lhs.real) + np.std(lhs.imag)) / math.sqrt(draws.size)

    def pdf(x):
        return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)

    rhs = complex(
        integrate.quad(lambda x: ((1j - x) ** -2).real * pdf(x),
                       -np.inf, np.inf)[0],
        integrate.quad(lambda x: ((1j - x) ** -2).imag * pdf(x),
                       -np.inf, np.inf)[0])
    scalar_err = abs(complex(lhs.mean()) - rhs)
    assert scalar_err <= 3.0 * se
    print(f"criterion 7: PASS (deviation {deviation:.4f}, scalar error "
          f"{scalar_err:.2e} vs 3se {3 * se:.2e})")


def test_criterion_08_concentration_bound_holds():
    """N = 400 flat profile at lambda = 0.5i (admissible): at least 95 of
    100 draws stay within the trace-level radius."""
    profile = dq.constant_profile(400, 400, 1.0, hermitian=True)
    out = dq.validate_concentration(profile, None, 0.5j, d=2.0, delta=0.5,
                                    draws=100, seed=3)
    assert out["admissible"] is True
    assert out["passes"] >= 95
    print(f"criterion 8: PASS ({out['passes']}/100 draws within "
          f"{out['epsilon_tilde']:.4f}, max deviation "
          f"{out['max_deviation']:.4f})")


def test_criterion_09_certified_contraction():
    """On 20 random profiles with gamma_max^2 ||Im Lambda^-1||^2 <= 0.5 the
    iteration contracts at least that fast step over step, and different
    starting points land on the same fixed point."""
    rng = np.random.default_rng(29)
    worst_ratio = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 80))
        a = rng.random((n, n))
        profile = dq.VarianceProfile((a + a.T) / 2.0, "hermitian")
        gamma_max = math.sqrt(profile.gamma_max_sq)
        im = gamma_max * math.sqrt(2.0) * (1.0 + rng.random(n))
        lam = dq.SpectralParameter(rng.uniform(-2.0, 2.0, n) + 1j * im)
        sol = dq.solve_dyson(profile, None, lam)
        assert sol.contraction_certified and sol.converged
        history = np.asarray(sol.residual_history)
        # ratios are meaningful until the residual reaches the float floor
        live = history[:-1] > 1e-10
        if live.any():
            worst_ratio = max(worst_ratio,
                              float((history[1:][live] / history[:-1][live]).max()))
        start = dq.OperatorStieltjes(
            (-1j / im * rng.uniform(0.5, 1.5, n)).astype(complex))
        again = dq.solve_dyson(profile, None, lam,
                               dq.SolverConfig(initial=start))
        drift = float(np.max(np.abs(sol.g_square.diag - again.g_square.diag)))
        assert drift <= 1e-11  # ten times the solver tolerance
    assert worst_ratio <= 0.5 + 1e-6
    print(f"criterion 9: PASS (worst contraction ratio {worst_ratio:.4f})")


def test_criterion_10_beta_variants_agree_for_diagonal_y():
    """10 random diagonal deformations with rank <= 3 spikes: both
    determinant definitions coincide along a 50-point grid to 1e-9.

    ``beta_square`` gives det(I - U* G U Theta); the reference side
    det(I - U* (Omega - Y)^(-1) U Theta) is solved here densely from
    ``omega_square``."""
    rng = np.random.default_rng(41)
    sup = 0.0
    for _ in range(10):
        n = int(rng.integers(30, 90))
        a = rng.random((n, n))
        profile = dq.VarianceProfile((a + a.T) / 2.0, "hermitian")
        k = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        spikes = dq.SpikeSet(u=q, theta=rng.uniform(0.5, 2.0, k))
        y = rng.uniform(-1.0, 1.0, n)
        for t in np.linspace(-3.0, 3.0, 50):
            lam = complex(t, 1.5)
            det_a = np.linalg.det(dq.beta_square(lam, spikes, profile, y=y))
            lam_n = dq.SpectralParameter.scalar(lam, n)
            omega = dq.omega_square(profile, dq.solve_dyson(profile, y, lam_n), lam_n)
            core = q.T @ np.linalg.solve(np.diag(omega) - np.diag(y), q)
            det_b = np.linalg.det(np.eye(k) - core * spikes.theta)
            sup = max(sup, abs(det_a - det_b))
    assert sup <= 1e-9
    print(f"criterion 10: PASS (sup determinant gap {sup:.2e})")
