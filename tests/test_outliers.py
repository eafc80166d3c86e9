from __future__ import annotations

import numpy as np
import pytest

from deteq.dilation import RectangularModel, RectangularSpikes, dilate_model
from deteq.dyson import (SolverConfig, SpectralParameter, omega_square,
                         solve_dyson)
from deteq.outliers import (HermitianModel, OutlierCandidate, OutlierReport,
                            SpikeSet, beta_square, closed_form_outlier,
                            det_beta_curve, locate_outliers)
from deteq.profiles import (VarianceProfile, constant_profile,
                            doubly_stochastic_profile)

# Constant-profile outlier for theta = 2 at aspect ratio 0.9.
_CONSTANT_ROOT = 2.4748737341529163


def _g_semicircle(lam: complex) -> complex:
    return (lam - np.sqrt(complex(lam - 2.0)) * np.sqrt(complex(lam + 2.0))) / 2.0


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


def _resolvent_side_det(prof: VarianceProfile, y: np.ndarray, spikes: SpikeSet,
                        lam_value: complex) -> complex:
    """det(I - U* (Omega(lambda I) - Y)^(-1) U Theta) with a dense solve."""
    lam = SpectralParameter.scalar(lam_value, prof.rows)
    omega = omega_square(prof, solve_dyson(prof, y, lam), lam)
    core = spikes.u.conj().T @ np.linalg.solve(np.diag(omega) - y, spikes.u)
    return complex(np.linalg.det(np.eye(spikes.k) - core * spikes.theta))


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
    oracle = 1.0 - 2.0 * _g_semicircle(complex(lam, 1e-3))
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
    prof = VarianceProfile((lambda a: (a + a.T) / 2)(rng.random((n, n))),
                           "hermitian")
    y = rng.uniform(-0.5, 0.5, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    spikes = SpikeSet(u=q, theta=[1.2, 0.6])
    for lam in (0.5, 2.0, complex(1.0, 0.8)):
        a = np.linalg.det(beta_square(lam, spikes, prof, y=y))
        # a diagonal matrix is read as its diagonal
        assert np.linalg.det(beta_square(lam, spikes, prof, y=np.diag(y))) == a
        lam_c = complex(lam) if complex(lam).imag > 0.0 else complex(lam, 1e-3)
        b = _resolvent_side_det(prof, np.diag(y), spikes, lam_c)
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


def test_locate_raises_when_nothing_converges():
    model = _dilated_constant_model(16, 20, 2.0)
    with pytest.raises(RuntimeError):
        locate_outliers(model, window=(0.0, 0.5),
                        config=SolverConfig(max_iterations=5))


def test_det_curve_tilde_matches_plain_on_dilated_models():
    # The dilated model carries no deformation, so the curve must agree
    # pointwise with det(I - U* Omega^(-1) U Theta).
    model = _dilated_constant_model(24, 30, 1.5)
    assert model.y is None
    lams = np.linspace(2.0, 3.0, 9)
    dets, conv = det_beta_curve(model, lams)
    assert conv.all()
    ref = [_resolvent_side_det(model.profile, np.zeros((54, 54)), model.spikes,
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
