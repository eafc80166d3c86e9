from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deteq import dyson
from deteq.density import density_curve
from deteq.dilation import RectangularModel, RectangularSpikes, dilate_model
from deteq.dyson import SolverConfig, SpectralParameter, solve_dyson
from deteq.outliers import (HermitianModel, OutlierCandidate, OutlierReport,
                            SpikeSet, _brent, beta_square, closed_form_outlier,
                            det_beta_curve, locate_outliers)
from deteq.profiles import (VarianceProfile, constant_profile,
                            doubly_stochastic_profile, normalize_profile,
                            piecewise_profile)

from reference import criterion_5_profile, g_semicircle, random_profile, resolvent_side_det

# Constant-profile outlier for theta = 2 at aspect ratio 0.9.
_CONSTANT_ROOT = 2.4748737341529163


def _flat_vector(n: int) -> np.ndarray:
    return np.full((n, 1), 1.0 / np.sqrt(n))


def _symmetrized_ds(n: int, k: int, seed: int) -> VarianceProfile:
    prof = doubly_stochastic_profile(n, k, seed=seed)
    return VarianceProfile((prof.entries + prof.entries.T) / 2.0, "hermitian")


def _dilated_constant_model(n: int, m: int, theta: float) -> HermitianModel:
    spikes = RectangularSpikes(u=_flat_vector(n), theta=[theta],
                               v=_flat_vector(m))
    return HermitianModel.from_dilated(
        dilate_model(RectangularModel(profile=constant_profile(n, m, 1.0),
                                      spikes=spikes)))


def test_closed_form_constant_profile():
    assert abs(closed_form_outlier("constant", 2.0, 360, 400)
               - _CONSTANT_ROOT) <= 1e-15
    # at the critical strength the root sits exactly on the bulk edge
    assert closed_form_outlier("constant", 1.0, 400, 400) == 2.0
    assert closed_form_outlier("constant", 0.9, 400, 400) is None


def test_closed_form_doubly_stochastic():
    assert closed_form_outlier("doubly-stochastic", 2.0) == 2.5
    assert closed_form_outlier("doubly_stochastic", 2.0) == 2.5
    assert closed_form_outlier("doubly-stochastic", 1.0) == 2.0
    assert closed_form_outlier("doubly-stochastic", 0.99) is None


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_outlier("constant", 0.0, 4, 4)
    with pytest.raises(ValueError):
        closed_form_outlier("constant", 1.0)
    with pytest.raises(ValueError):
        closed_form_outlier("mystery", 1.0)


def test_beta_matches_semicircle_transform():
    """For a flat profile beta(lam) = 1 - theta g(lam) with semicircle g."""
    prof = _symmetrized_ds(200, 4, seed=13)
    spikes = SpikeSet(u=_flat_vector(200), theta=[2.0])
    lam = 2.5
    beta = beta_square(lam, spikes, prof)
    oracle = 1.0 - 2.0 * g_semicircle(complex(lam, 1e-3))
    assert abs(complex(beta[0, 0]) - oracle) <= 1e-9
    # the root of 1 - 2 g sits at 2.5, so the regularized value is small
    assert abs(complex(beta[0, 0])) <= 2e-3


def test_beta_is_frame_rotation_invariant_for_flat_profiles():
    # A constant profile makes G a multiple of the identity, so the k x k
    # block U* G U cannot depend on the choice of orthonormal U.
    rng = np.random.default_rng(17)
    prof = constant_profile(80, 80, 1.0, hermitian=True)
    q, _ = np.linalg.qr(rng.standard_normal((80, 2)))
    theta = [1.5, -0.8]
    det_flat = np.linalg.det(beta_square(
        2.6, SpikeSet(u=np.eye(80)[:, :2], theta=theta), prof))
    det_rot = np.linalg.det(beta_square(
        2.6, SpikeSet(u=q, theta=theta), prof))
    assert abs(det_flat - det_rot) <= 1e-9


def test_beta_and_beta_tilde_coincide_for_diagonal_y():
    rng = np.random.default_rng(23)
    n = 50
    prof = random_profile(n, rng)
    y = rng.uniform(-0.5, 0.5, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    spikes = SpikeSet(u=q, theta=[1.2, 0.6])
    for lam in (0.5, 2.0, complex(1.0, 0.8)):
        a = np.linalg.det(beta_square(lam, spikes, prof, y=y))
        # a diagonal matrix is read as its diagonal
        assert np.linalg.det(beta_square(lam, spikes, prof, y=np.diag(y))) == a
        lam_c = complex(lam) if complex(lam).imag > 0.0 else complex(lam, 1e-3)
        b = resolvent_side_det(prof, np.diag(y), spikes, lam_c)
        assert abs(a - b) <= 1e-10


def test_beta_square_dense_deformation_matches_rotated_diagonal():
    # A constant profile makes Omega a multiple of the identity, so the
    # dense Y = Q D Q* with spikes U gives the determinant of the diagonal
    # deformation D with spikes Q* U.
    rng = np.random.default_rng(31)
    n = 30
    prof = constant_profile(n, n, 1.0, hermitian=True)
    d = rng.uniform(-1.0, 1.0, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    u, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    y = (q * d) @ q.T
    y = (y + y.T) / 2.0
    theta = [1.3, -0.7]
    for lam in (3.5, complex(0.4, 0.9)):
        dense = np.linalg.det(beta_square(lam, SpikeSet(u=u, theta=theta), prof, y=y))
        diag = np.linalg.det(beta_square(lam, SpikeSet(u=q.T @ u, theta=theta),
                                         prof, y=d))
        assert abs(dense - diag) <= 1e-9


def test_beta_rejects_lower_half_plane():
    prof = constant_profile(6, 6, 1.0, hermitian=True)
    spikes = SpikeSet(u=np.eye(6)[:, :1], theta=[1.0])
    with pytest.raises(ValueError):
        beta_square(complex(1.0, -0.1), spikes, prof)


def test_beta_square_checks_the_spike_dimension():
    # five-row spike vectors on a six-dimensional model, with absent and dense Y
    prof = constant_profile(6, 6, 1.0, hermitian=True)
    spikes = SpikeSet(u=np.eye(5)[:, :1], theta=[1.0])
    for y in (None, np.full((6, 6), 0.1)):
        with pytest.raises(ValueError, match="^spike vectors do not match the profile dimension$"):
            beta_square(3.0, spikes, prof, y)


def test_locate_doubly_stochastic_root():
    """Any doubly stochastic profile keeps the semicircle bulk, so the
    theta = 2 outlier sits at theta + 1/theta = 2.5."""
    prof = _symmetrized_ds(200, 4, seed=13)
    model = HermitianModel(profile=prof, y=None,
                           spikes=SpikeSet(u=_flat_vector(200), theta=[2.0]))
    report = locate_outliers(model, window=(2.1, 3.2))
    roots = report.accepted()
    assert len(roots) == 1
    assert abs(roots[0].lam - 2.5) <= 1e-3
    assert report.window == (2.1, 3.2)


def test_locate_counts_a_degenerate_spike_twice():
    # With orthonormal U and a flat G, Theta^-1 - U* G U is a multiple of
    # the identity, so both of its eigenvalues cross zero at 2.5.
    prof = _symmetrized_ds(200, 4, seed=13)
    model = HermitianModel(profile=prof, y=None,
                           spikes=SpikeSet(u=np.eye(200)[:, :2], theta=[2.0, 2.0]))
    roots = locate_outliers(model, window=(2.1, 3.2)).accepted()
    assert len(roots) == 2
    assert all(abs(c.lam - 2.5) <= 1e-6 for c in roots)


def test_locate_crosses_the_bulk_into_the_lower_gap():
    prof = _symmetrized_ds(200, 4, seed=13)
    model = HermitianModel(profile=prof, y=None,
                           spikes=SpikeSet(u=np.eye(200)[:, :2], theta=[2.0, -2.0]))
    roots = locate_outliers(model, window=(-3.2, 3.2)).accepted()
    assert len(roots) == 2
    assert abs(roots[0].lam + 2.5) <= 1e-6
    assert abs(roots[1].lam - 2.5) <= 1e-6


def test_locate_below_the_critical_strength_reports_the_edge():
    prof = _symmetrized_ds(200, 4, seed=13)
    model = HermitianModel(profile=prof, y=None,
                           spikes=SpikeSet(u=_flat_vector(200), theta=[0.8]))
    report = locate_outliers(model, window=(1.6, 3.2))
    assert len(report.candidates) == 1
    assert not report.candidates[0].accepted
    assert abs(report.candidates[0].lam - 2.0) <= 0.02


def test_locate_uses_default_window_when_none_given():
    model = _dilated_constant_model(36, 40, 2.0)
    report = locate_outliers(model)
    lo, hi = report.window
    assert lo < 2.0 < hi  # brackets the bulk edge 1 + sqrt(0.9)
    roots = report.accepted()
    assert roots and abs(roots[0].lam - _CONSTANT_ROOT) <= 1e-3


def test_locate_with_a_dense_deformation_matches_the_rotated_diagonal():
    # As in test_beta_square_dense_deformation_matches_rotated_diagonal:
    # R(G) depends only on tr G, so Y = Q D Q* with spikes U has the roots
    # of the diagonal deformation D with spikes Q* U.  The window crosses
    # the bulk, so the walk places dense-Y points in the support too.
    rng = np.random.default_rng(31)
    n = 30
    prof = constant_profile(n, n, 1.0, hermitian=True)
    d = rng.uniform(-1.0, 1.0, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    u, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    y = (q * d) @ q.T
    y = (y + y.T) / 2.0
    config = SolverConfig(max_iterations=3000)
    dense = locate_outliers(HermitianModel(prof, y, SpikeSet(u=u, theta=[3.0, -3.0])),
                            window=(-5.0, 5.0), config=config).accepted()
    diag = locate_outliers(HermitianModel(prof, d, SpikeSet(u=q.T @ u, theta=[3.0, -3.0])),
                           window=(-5.0, 5.0), config=config).accepted()
    assert len(dense) == len(diag) == 2
    assert all(abs(a.lam - b.lam) <= 1e-8 for a, b in zip(dense, diag))


def test_outlier_sweep_psi_evaluation_count(monkeypatch):
    """The benchmark's outlier sweep: 180 x 200 constant model, two strengths.

    Placing a point in the support takes tens of plain steps, not a capped
    solve; the count is deterministic.
    """
    count = 0
    psi_raw = dyson._psi_raw

    def counted(*args):
        nonlocal count
        count += 1
        return psi_raw(*args)

    monkeypatch.setattr(dyson, "_psi_raw", counted)
    cache: dict = {}
    for theta in (0.431, 1.807):
        locate_outliers(_dilated_constant_model(180, 200, theta), window=(1.4, 5.4),
                        config=SolverConfig(max_iterations=3000), cache=cache)
    assert count <= 10_000


def _criterion_5_grid():
    density_curve(criterion_5_profile(), None, 0.05 * np.arange(61), eta=0.01,
                  config=SolverConfig(tolerance=1e-9))


def _outlier_sweep():
    cache: dict = {}
    for theta in (0.431, 1.807):
        locate_outliers(_dilated_constant_model(180, 200, theta), window=(1.4, 5.4),
                        config=SolverConfig(max_iterations=3000), cache=cache)


def _criterion_6_walk():
    profile = normalize_profile(piecewise_profile(360, 400, 1.0, 200.0))
    spikes = RectangularSpikes(u=_flat_vector(360), theta=[0.57], v=_flat_vector(400))
    model = HermitianModel.from_dilated(
        dilate_model(RectangularModel(profile=profile, spikes=spikes)))
    locate_outliers(model, window=(0.2, 0.5), config=SolverConfig(max_iterations=3000))


def _dense_y_walk():
    a = np.random.default_rng(5).standard_normal((20, 20))
    model = HermitianModel(constant_profile(20, 20, 1.0, hermitian=True), (a + a.T) / 40.0,
                           SpikeSet(u=_flat_vector(20), theta=[2.0]))
    locate_outliers(model, config=SolverConfig(max_iterations=3000))


def _noise_free_point():
    solve_dyson(VarianceProfile(np.zeros((3, 3)), "hermitian"), np.array([0.0, 1.0, 2.0]),
                SpectralParameter.scalar(0.5 + 0.1j, 3))


@pytest.mark.parametrize("run, calls", [
    (_criterion_5_grid, 913), (_outlier_sweep, 316), (_criterion_6_walk, 3883),
    (_dense_y_walk, 1042), (_noise_free_point, 1),
], ids=["criterion-5-grid", "outlier-sweep", "criterion-6-walk", "dense-y-walk",
        "noise-free-point"])
def test_the_solver_evaluates_psi_a_pinned_number_of_times(monkeypatch, run, calls):
    """Every workload here is deterministic, with few row classes or a small n,
    so a change to the solver that moves a count shows here."""
    count = 0
    psi_raw = dyson._psi_raw

    def counted(*args):
        nonlocal count
        count += 1
        return psi_raw(*args)

    monkeypatch.setattr(dyson, "_psi_raw", counted)
    run()
    assert count == calls


def test_the_iteration_cap_does_not_move_the_default_window(monkeypatch):
    """Criterion 1's model: the edge walk and the window walk converge next to
    the edge in a few extrapolated steps, so neither the window nor the roots
    depend on whether the cap is 3,000 or 10,000."""
    import deteq.outliers as outliers
    iterations = []
    path = outliers._solve_path

    def recorded(model, lams, config=None):
        lams = list(lams)
        for lam, sol in zip(lams, path(model, lams, config)):
            if isinstance(lam, float):
                iterations.append(sol.iterations)
            yield sol

    monkeypatch.setattr(outliers, "_solve_path", recorded)
    model = _dilated_constant_model(360, 400, 2.0)
    reports = [locate_outliers(model, config=SolverConfig(max_iterations=cap))
               for cap in (3000, 10000)]
    assert reports[0].window == reports[1].window
    assert reports[0].to_json_dict() == reports[1].to_json_dict()
    assert max(iterations) <= 50


def test_locate_threshold_gates_acceptance():
    model = _dilated_constant_model(36, 40, 2.0)
    report = locate_outliers(model, window=(2.0, 3.0), threshold=1e-15)
    assert report.candidates
    assert not report.accepted()


def test_locate_validation():
    model = _dilated_constant_model(8, 12, 2.0)
    with pytest.raises(ValueError):
        locate_outliers(model, window=(2.0, 1.0))
    with pytest.raises(ValueError):
        locate_outliers(model, window=(1.5, 3.0), scan_points=2)
    for window in ((1.0, np.inf), (np.nan, 3.0), (-np.inf, 3.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="search window must be finite and non-empty"):
            locate_outliers(model, window=window)


def test_non_finite_strengths_and_thresholds_are_rejected():
    for theta in (np.nan, np.inf):
        with pytest.raises(ValueError):
            SpikeSet(u=np.eye(4)[:, :1], theta=[theta])
        with pytest.raises(ValueError):
            RectangularSpikes(u=np.eye(4)[:, :1], theta=[theta], v=np.eye(6)[:, :1])
    model = _dilated_constant_model(8, 12, 2.0)
    for threshold in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            locate_outliers(model, window=(1.5, 3.0), threshold=threshold)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_lambda_is_rejected_before_any_solve(monkeypatch, bad):
    def refused(*args, **kwargs):
        raise AssertionError("a bad lambda must be rejected before psi is evaluated")

    model = _dilated_constant_model(8, 12, 2.0)
    monkeypatch.setattr(dyson, "_psi_raw", refused)
    with pytest.raises(ValueError, match="^lambdas must be finite$"):
        det_beta_curve(model, [2.0, 2.5, bad])


def test_spike_strengths_form_a_vector():
    # a single strength may be given as a scalar; a matrix of them is refused
    assert SpikeSet(u=np.eye(4)[:, :1], theta=2.0).theta.shape == (1,)
    assert RectangularSpikes(u=np.eye(4)[:, :1], theta=2.0, v=np.eye(6)[:, :1]).k == 1
    with pytest.raises(ValueError, match="agree on the spike count"):
        SpikeSet(u=np.eye(4)[:, :1], theta=[[2.0]])
    with pytest.raises(ValueError, match="agree on the spike count"):
        RectangularSpikes(u=np.eye(4)[:, :1], theta=[[2.0]], v=np.eye(6)[:, :1])


@pytest.mark.parametrize("eta_eval", [np.nan, np.inf, 0.0, -1e-3])
def test_eta_eval_is_checked_on_entry(eta_eval):
    model = _dilated_constant_model(8, 12, 2.0)
    with pytest.raises(ValueError, match="^eta_eval must be finite and > 0$"):
        locate_outliers(model, window=(1.5, 3.0), eta_eval=eta_eval)
    with pytest.raises(ValueError, match="^eta_eval must be finite and > 0$"):
        det_beta_curve(model, [2.0, 2.5], eta_eval=eta_eval)
    # a complex lam never reads eta_eval, and is rejected all the same
    for lam in (2.5, 2.5 + 0.1j):
        with pytest.raises(ValueError, match="^eta_eval must be finite and > 0$"):
            beta_square(lam, model.spikes, model.profile, model.y, eta_eval=eta_eval)


def test_locate_raises_when_nothing_converges():
    model = _dilated_constant_model(16, 20, 2.0)
    with pytest.raises(RuntimeError):
        locate_outliers(model, window=(0.0, 0.5),
                        config=SolverConfig(max_iterations=5))


def test_locate_raises_when_no_scan_point_converges():
    # the whole window lies inside the semicircle's support [-2, 2], so every
    # real solve ends in the support
    model = HermitianModel(profile=constant_profile(40, 40, 1.0, hermitian=True), y=None,
                           spikes=SpikeSet(u=_flat_vector(40), theta=[1.0]))
    with pytest.raises(RuntimeError, match="^no scan point converged; widen the window"):
        locate_outliers(model, window=(-1.0, 1.0))


def test_beta_square_names_the_point_where_its_solve_stopped():
    prof = constant_profile(4, 4, 1.0, hermitian=True)
    spikes = SpikeSet(u=_flat_vector(4), theta=[1.0])
    with pytest.raises(RuntimeError, match=r"^Dyson solve did not converge at lambda = "
                                           r"\(0\.5\+0\.01j\) \(residual .* after 1 iterations\)$"):
        beta_square(0.5 + 0.01j, spikes, prof, config=SolverConfig(max_iterations=1))


def test_det_curve_tilde_matches_plain_on_dilated_models():
    # The dilated model carries no deformation, so the curve must agree
    # pointwise with det(I - U* Omega^(-1) U Theta).
    model = _dilated_constant_model(24, 30, 1.5)
    assert model.y is None
    lams = np.linspace(2.0, 3.0, 9)
    dets, conv = det_beta_curve(model, lams)
    assert conv.all()
    ref = [resolvent_side_det(model.profile, np.zeros((54, 54)), model.spikes,
                              complex(t, 1e-3)) for t in lams]
    assert np.max(np.abs(dets - np.array(ref))) <= 1e-9


def test_det_curve_dips_at_the_root():
    model = _dilated_constant_model(36, 40, 2.0)
    lams = np.linspace(2.2, 2.8, 25)
    dets, conv = det_beta_curve(model, lams)
    assert conv.all()
    dip = lams[np.argmin(np.abs(dets))]
    assert abs(dip - _CONSTANT_ROOT) <= 0.03


def test_shared_cache_is_reused_across_spike_strengths():
    base = constant_profile(24, 30, 1.0)
    cache: dict = {}
    for theta in (1.5, 2.0):
        spikes = RectangularSpikes(u=_flat_vector(24), theta=[theta],
                                   v=_flat_vector(30))
        model = HermitianModel.from_dilated(
            dilate_model(RectangularModel(profile=base, spikes=spikes)))
        locate_outliers(model, window=(1.8, 3.2), cache=cache)
    solves_after_first_sweep = len(cache)
    spikes = RectangularSpikes(u=_flat_vector(24), theta=[1.7],
                               v=_flat_vector(30))
    model = HermitianModel.from_dilated(
        dilate_model(RectangularModel(profile=base, spikes=spikes)))
    locate_outliers(model, window=(1.8, 3.2), cache=cache)
    # the scan grid is shared, so a third strength adds few new solves
    assert len(cache) < solves_after_first_sweep * 1.5


def test_each_real_solve_starts_from_a_named_point(monkeypatch):
    # Only a point without a start (the top one, and one after a point in
    # the support) is seeded by a complex solve; every other real solve
    # starts from a converged real G.
    import deteq.outliers as outliers
    calls = []
    path = outliers._solve_path

    def recorded(model, lams, config=None):
        calls.append((list(lams), config.initial))
        return path(model, calls[-1][0], config)

    monkeypatch.setattr(outliers, "_solve_path", recorded)
    cache: dict = {}
    report = locate_outliers(_dilated_constant_model(16, 20, 2.0), window=(1.0, 3.0),
                             scan_points=9, cache=cache)
    assert report.accepted()
    walk = [float(t) for t in np.linspace(3.0, 1.0, 9)]
    seeded = [lams[1] for lams, _ in calls if len(lams) == 2]
    assert seeded == [walk[0]] + [t for above, t in zip(walk, walk[1:]) if cache[above] is None]
    assert all(isinstance(lams[-1], float) for lams, _ in calls)
    # Here the support lies below the root: the previous walk point, the
    # converged end of the bisected bracket and the upper end of the Brent
    # bracket all lie above the point they start.
    solved_at = {id(g): lam for lam, g in cache.items() if g is not None}
    for lams, start in calls:
        if len(lams) == 1:
            assert solved_at[id(start)] > lams[0]


@settings(max_examples=300, deadline=None)
@given(r=st.floats(-5.0, 5.0), log_s=st.floats(-3.0, 3.0), p=st.floats(0.2, 9.0),
       c=st.sampled_from([0.0, 1e-3, 1.0, 50.0]), log_below=st.floats(-9.0, 1.0),
       log_above=st.floats(-9.0, 1.0), maxiter=st.sampled_from([100, 3, 6, 10]))
def test_brent_takes_the_steps_of_scipy_brentq(r, log_s, p, c, log_below, log_above,
                                               maxiter):
    """On s sign(t - r) |t - r|^p + c (t - r)^3 the port finds brentq's root
    bit for bit, and fails to converge exactly where brentq does."""
    from scipy.optimize import brentq

    def f(t):
        return 10.0 ** log_s * np.sign(t - r) * abs(t - r) ** p + c * (t - r) ** 3

    a, b = r - 10.0 ** log_below, r + 10.0 ** log_above
    try:
        expected = brentq(f, a, b, maxiter=maxiter)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            _brent(f, a, b, f(a), f(b), maxiter=maxiter)
    else:
        root = _brent(f, a, b, f(a), f(b), maxiter=maxiter)
        assert type(root) is float and root == expected


def test_brent_returns_a_zero_endpoint_and_needs_a_sign_change():
    assert _brent(lambda t: np.float64(t - 1.0), 1.0, 2.0, np.float64(0.0), 1.0) == 1.0
    assert _brent(lambda t: t - 2.0, 1.0, 2.0, -1.0, 0.0) == 2.0
    with pytest.raises(ValueError):
        _brent(lambda t: t, 1.0, 2.0, 1.0, 2.0)


def test_brent_reuses_the_spectra_at_its_bracket_ends(monkeypatch):
    """One core U* (Omega - Y)^(-1) U per converged solve, plus one more at
    each root for its det_abs: Brent evaluates only inside the bracket."""
    from deteq import dyson

    lams = []
    core = dyson._DiagonalY.core  # the model has no Y

    def counted(y, u, w, lam, g):
        lams.append(lam)
        return core(y, u, w, lam, g)

    monkeypatch.setattr(dyson._DiagonalY, "core", counted)
    cache: dict = {}
    report = locate_outliers(_dilated_constant_model(16, 20, 2.0), window=(1.5, 4.0),
                             scan_points=12, cache=cache)
    roots = [c.lam for c in report.candidates]
    assert report.accepted() and len(roots) == 1
    assert len(lams) == sum(g is not None for g in cache.values()) + len(roots)
    assert [lam for lam in set(lams) if lams.count(lam) > 1] == roots


def test_criterion_3_root_is_unchanged_to_the_last_bit():
    profile = doubly_stochastic_profile(400, 8, seed=11)
    spikes = RectangularSpikes(u=_flat_vector(400), theta=[2.0], v=_flat_vector(400))
    model = HermitianModel.from_dilated(
        dilate_model(RectangularModel(profile=profile, spikes=spikes)))
    report = locate_outliers(model, window=(1.6, 4.5), config=SolverConfig(max_iterations=3000))
    assert [c.lam for c in report.accepted()] == [2.4999999999999973]


def test_spike_set_validation():
    with pytest.raises(ValueError):
        SpikeSet(u=np.eye(4)[:, :2] * 3.0, theta=[1.0, 2.0])
    with pytest.raises(ValueError):
        SpikeSet(u=np.eye(4)[:, :2], theta=[1.0, 0.0])
    with pytest.raises(ValueError):
        SpikeSet(u=np.eye(4)[:, :2], theta=[1.0])
    spikes = SpikeSet(u=np.eye(4)[:, :2], theta=[1.0, -2.0])
    assert spikes.k == 2


def test_hermitian_model_validation():
    rect = constant_profile(4, 6, 1.0)
    spikes = SpikeSet(u=np.eye(4)[:, :1], theta=[1.0])
    with pytest.raises(ValueError):
        HermitianModel(profile=rect, y=None, spikes=spikes)
    herm = constant_profile(6, 6, 1.0, hermitian=True)
    with pytest.raises(ValueError):
        HermitianModel(profile=herm, y=None, spikes=spikes)
    bare = dilate_model(RectangularModel(profile=rect))
    with pytest.raises(ValueError):
        HermitianModel.from_dilated(bare)
    spikes6 = SpikeSet(u=np.eye(6)[:, :1], theta=[1.0])
    with pytest.raises(ValueError):
        HermitianModel(profile=herm, y=np.zeros(5), spikes=spikes6)
    with pytest.raises(ValueError):
        HermitianModel(profile=herm, y=np.zeros((6, 5)), spikes=spikes6)
    skew = np.zeros((6, 6))
    skew[0, 1], skew[1, 0] = 0.3, -0.3
    with pytest.raises(ValueError):
        HermitianModel(profile=herm, y=skew, spikes=spikes6)
    # Y is classified once: a diagonal matrix is stored as its diagonal
    model = HermitianModel(profile=herm, y=np.diag(np.arange(6.0)), spikes=spikes6)
    assert np.array_equal(model.y, np.arange(6.0))


def test_outlier_report_serialization():
    report = OutlierReport(
        candidates=[OutlierCandidate(lam=2.5, det_abs=1e-6, accepted=True),
                    OutlierCandidate(lam=1.9, det_abs=0.3, accepted=False)],
        threshold=1e-3, window=(1.5, 3.5))
    data = report.to_json_dict()
    assert data["threshold"] == 1e-3
    assert data["window"] == [1.5, 3.5]
    assert data["candidates"][0] == {"lambda": 2.5, "det_abs": 1e-6,
                                     "accepted": True}
    assert [c.lam for c in report.accepted()] == [2.5]


@pytest.mark.parametrize("name", ["profile", "Y", "config", "eta_eval"])
def test_a_shared_cache_refuses_a_call_that_would_solve_otherwise(name):
    """The first call records the profile, Y, config and eta_eval in the
    cache; a later call that changes one of them raises before any solve."""
    model = _dilated_constant_model(16, 20, 2.0)
    kwargs = {"window": (1.5, 4.0), "scan_points": 9, "cache": {}}
    locate_outliers(model, **kwargs)
    solved = dict(kwargs["cache"])
    if name == "profile":
        model = HermitianModel(VarianceProfile(2.0 * model.profile.entries, "hermitian"),
                               None, model.spikes)
    elif name == "Y":
        model = HermitianModel(model.profile, np.full(36, 0.1), model.spikes)
    elif name == "config":
        kwargs["config"] = SolverConfig(tolerance=1e-10)
    else:
        kwargs["eta_eval"] = 2e-3
    with pytest.raises(ValueError, match=f"^cache was filled for another {name}; "):
        locate_outliers(model, **kwargs)
    assert kwargs["cache"] == solved


def test_a_cache_that_locate_outliers_did_not_fill_is_refused():
    with pytest.raises(ValueError, match="^cache was not filled by locate_outliers$"):
        locate_outliers(_dilated_constant_model(16, 20, 2.0), window=(1.5, 4.0),
                        cache={2.0: None})
