"""Outlier localization for spiked models by eigenvalue counting.

A rank-k Hermitian spike U Theta U* added to a profile ensemble creates
eigenvalue outliers at the real zeros, outside the support, of

    det beta(lambda) = det(I_k - U* G(lambda I) U Theta),

where G is the Dyson fixed point of the unspiked model.  For a dense
deformation Y the same determinant reads

    det(I_k - U* (Omega(lambda I) - Y)^(-1) U Theta),

with Omega(Lambda) = Lambda - R(G(Lambda)); for diagonal Y the two forms
coincide, so the code picks the cheaper one from the kind of Y.

Outside the support G(lambda) is real and decreasing, so the eigenvalues of
the Hermitian k x k matrix Theta^(-1) - U* G U increase with lambda and, by
Sylvester inertia, each one that crosses zero marks one outlier
(Benaych-Georges & Nadakuditi, Adv. Math. 2011).  ``locate_outliers``
counts and polishes those crossings along the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .dilation import DilatedModel, _check_frame
from .dyson import (SolverConfig, SpectralParameter, _classify_deformation, _solve_real,
                    r_map, solve_dyson)
from .profiles import VarianceProfile

__all__ = [
    "SpikeSet",
    "HermitianModel",
    "OutlierCandidate",
    "OutlierReport",
    "beta_square",
    "det_beta_curve",
    "locate_outliers",
    "closed_form_outlier",
]

@dataclass(frozen=True, eq=False)
class SpikeSet:
    """Hermitian rank-k spike U diag(theta) U*; theta entries are nonzero."""

    u: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        u = _check_frame(self.u, "spike u")
        theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if u.shape[1] != theta.size:
            raise ValueError("u and theta must agree on the spike count")
        if theta.size == 0:
            raise ValueError("spike set must contain at least one spike")
        if np.any(theta == 0.0):
            raise ValueError("spike strengths must be nonzero")
        u.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "theta", theta)

    @property
    def k(self) -> int:
        return self.theta.size


@dataclass(frozen=True, eq=False)
class HermitianModel:
    """Hermitian ensemble (profile noise + deformation Y) with a spike set.

    ``y`` is stored classified: None, a real diagonal vector, or a dense
    Hermitian matrix.
    """

    profile: VarianceProfile
    y: np.ndarray | None
    spikes: SpikeSet

    def __post_init__(self) -> None:
        if self.profile.mode != "hermitian":
            raise ValueError("outlier models need a hermitian-mode profile")
        if self.spikes.u.shape[0] != self.profile.rows:
            raise ValueError("spike vectors do not match the profile dimension")
        object.__setattr__(self, "y", _classify_deformation(self.y, self.profile.rows))

    @classmethod
    def from_dilated(cls, dilated: DilatedModel) -> "HermitianModel":
        if dilated.theta_signed.size == 0:
            raise ValueError("dilated model carries no spikes")
        return cls(profile=dilated.profile, y=dilated.y,
                   spikes=SpikeSet(u=dilated.w, theta=dilated.theta_signed))


@dataclass(frozen=True)
class OutlierCandidate:
    lam: float
    det_abs: float
    accepted: bool


@dataclass(eq=False)
class OutlierReport:
    candidates: list
    threshold: float
    window: tuple

    def accepted(self) -> list:
        return [c for c in self.candidates if c.accepted]

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "window": [self.window[0], self.window[1]],
            "candidates": [
                {"lambda": c.lam, "det_abs": c.det_abs, "accepted": c.accepted}
                for c in self.candidates
            ],
        }


def _core(spikes: SpikeSet, profile: VarianceProfile, y, lam_value,
          g: np.ndarray) -> np.ndarray:
    """U* diag(G) U, or U* (Omega - Y)^(-1) U for dense Y; ``y`` is classified."""
    if y is None or y.ndim == 1:
        return (spikes.u.conj().T * g[np.newaxis, :]) @ spikes.u
    omega = lam_value - r_map(profile, g)
    return spikes.u.conj().T @ np.linalg.solve(np.diag(omega) - y, spikes.u)


def _beta_from_g(spikes: SpikeSet, profile: VarianceProfile, y, lam_value: complex,
                 g: np.ndarray) -> np.ndarray:
    """I - core Theta; ``y`` must already be classified."""
    core = _core(spikes, profile, y, lam_value, g)
    return np.eye(spikes.k, dtype=np.complex128) - core * spikes.theta[np.newaxis, :]


def _regularize(lam, eta_eval: float) -> complex:
    lam_c = complex(lam)
    if lam_c.imag < 0.0:
        raise ValueError("spectral arguments must satisfy Im lambda >= 0")
    if lam_c.imag == 0.0:
        lam_c = complex(lam_c.real, eta_eval)
    return lam_c


def beta_square(lam, spikes: SpikeSet, profile: VarianceProfile, y=None,
                config: SolverConfig | None = None, eta_eval: float = 1e-3) -> np.ndarray:
    """k x k determinant matrix at lambda for any Hermitian deformation Y.

    Absent or diagonal Y gives I - U* G(lambda I) U Theta; dense Y gives
    I - U* (Omega(lambda I) - Y)^(-1) U Theta.  Real ``lam`` is evaluated
    just above the axis at lam + i eta_eval.
    """
    y = _classify_deformation(y, profile.rows)
    lam_c = _regularize(lam, eta_eval)
    sol = solve_dyson(profile, y, SpectralParameter.scalar(lam_c, profile.rows), config)
    if not sol.converged:
        raise RuntimeError(
            f"Dyson solve did not converge at lambda = {lam_c} "
            f"(residual {sol.residual:.3e} after {sol.iterations} iterations)")
    return _beta_from_g(spikes, profile, y, lam_c, sol.g_square.diag)


def det_beta_curve(model: HermitianModel, lambdas, config: SolverConfig | None = None,
                   eta_eval: float = 1e-3):
    """det beta(lambda + i eta_eval) over a real grid.

    Each solve is warm-started from the previous grid point.  Returns
    (complex determinants, per-point convergence flags).
    """
    if config is None:
        config = SolverConfig()
    profile = model.profile
    lambdas = np.asarray(lambdas, dtype=np.float64)
    dets = np.empty(lambdas.shape, dtype=np.complex128)
    flags = np.empty(lambdas.shape, dtype=bool)
    point_config = config
    for i, lam in enumerate(lambdas):
        lam_c = complex(lam, eta_eval)
        sol = solve_dyson(profile, model.y, SpectralParameter.scalar(lam_c, profile.rows),
                          point_config)
        beta = _beta_from_g(model.spikes, profile, model.y, lam_c, sol.g_square.diag)
        dets[i], flags[i] = np.linalg.det(beta), sol.converged
        point_config = replace(config, initial=sol.g_square)
    return dets, flags


def _estimate_bulk_edge(model: HermitianModel, config: SolverConfig) -> float:
    """Largest grid point where the smoothed density exceeds 1e-3.

    The row-sum bound 2 sqrt(max_i R(1)(i)) + ||Y|| dominates the spectrum,
    so the walk starts there and descends toward the bulk; every solve sits
    outside the support, where the iteration converges quickly, and the
    smoothing eta can stay small enough that Cauchy tails do not inflate
    the estimate.
    """
    profile = model.profile
    row_mean = profile.entries.sum(axis=1) / profile.rows
    reach = 2.0 * math.sqrt(float(row_mean.max()))
    y = model.y
    if y is not None:
        reach += float(np.abs(y).max() if y.ndim == 1 else np.linalg.norm(y, 2))
    eta = 0.002
    step = 0.02
    coarse = SolverConfig(tolerance=max(config.tolerance, 1e-9),
                          max_iterations=min(config.max_iterations, 4000))
    grid = np.arange(reach + step, -step, -step)
    point_config = coarse
    for t in grid:
        lam = SpectralParameter.scalar(complex(t, eta), profile.rows)
        sol = solve_dyson(profile, model.y, lam, point_config)
        point_config = replace(coarse, initial=sol.g_square)
        value = -float(sol.g_square.diag.mean().imag) / math.pi
        if value > 1e-3:
            return float(t)
    return reach


def locate_outliers(model: HermitianModel, window=None,
                    config: SolverConfig | None = None,
                    threshold: float = 1e-3, scan_points: int = 50,
                    eta_eval: float = 1e-3, cache: dict | None = None) -> OutlierReport:
    """Locate the real zeros of det beta inside a search window by counting.

    Walks ``scan_points`` equispaced points down from the top of the window,
    solving the Dyson equation on the real axis.  Each solve is warm-started
    from the last point that converged, the first from Re G(hi + i eta_eval).
    A point whose solve fails within min(max_iterations, 2500) iterations
    lies in the support, and each boundary between a converged and a failed
    point is bisected down to a width of 1e-4.  Between two adjacent
    converged points, every eigenvalue of Theta^(-1) - U* G U that turns
    from negative to nonnegative marks one root, which brentq polishes with
    solves at the full ``config``.

    Each root is a candidate with det_abs = |det beta(root)|, accepted when
    det_abs <= ``threshold``.  A window without roots reports one candidate,
    never accepted: the converged point with the smallest |det beta|.  When
    ``window`` is None it defaults to [edge - 0.5, edge + max |theta| + 2]
    around the estimated bulk edge.

    ``cache`` maps each real lambda solved to its G, or to None where the
    solve failed.  It depends on the profile and Y only, so callers may
    share it across spike strengths.  Raises RuntimeError when no point of
    the walk converges, or when a solve between two converged points fails.
    """
    if config is None:
        config = SolverConfig()
    if scan_points < 3:
        raise ValueError("need at least 3 scan points")
    if window is None:
        edge = _estimate_bulk_edge(model, config)
        window = (edge - 0.5, edge + float(np.abs(model.spikes.theta).max()) + 2.0)
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("search window is empty")

    profile, y, spikes = model.profile, model.y, model.spikes
    w = profile.entries / profile.rows
    cache = cache if cache is not None else {}
    # Points inside the support never converge, so the walk and the
    # bisection run on a capped budget; brentq uses the full configuration.
    probe = min(config.max_iterations, 2500)
    warm = None

    def solve(lam: float, max_iterations: int):
        nonlocal warm
        if lam not in cache:
            if warm is None:
                top = SpectralParameter.scalar(complex(hi, eta_eval), profile.rows)
                seed = solve_dyson(profile, y, top, replace(config, max_iterations=probe))
                warm = seed.g_square.diag.real
            cache[lam] = _solve_real(w, y, lam, warm, config.tolerance, max_iterations)
        if cache[lam] is not None:
            warm = cache[lam]
        return cache[lam]

    walk = [float(t) for t in np.linspace(hi, lo, scan_points)]
    points = {}
    for i, lam in enumerate(walk):
        points[lam] = solve(lam, probe)
        if i and (points[lam] is None) != (points[walk[i - 1]] is None):
            a, b = lam, walk[i - 1]
            while b - a > 1e-4:
                mid = 0.5 * (a + b)
                points[mid] = solve(mid, probe)
                if (points[mid] is None) == (points[a] is None):
                    a = mid
                else:
                    b = mid

    inv_theta = np.diag(1.0 / spikes.theta)

    def spectrum(lam: float) -> np.ndarray:
        g = solve(lam, config.max_iterations)
        if g is None:
            raise RuntimeError(f"real-axis Dyson solve failed at lambda = {lam} "
                               "between two converged points")
        return np.linalg.eigvalsh(inv_theta - _core(spikes, profile, y, lam, g))

    def det_abs(eigenvalues: np.ndarray) -> float:
        # det beta = det(Theta^(-1) - core) det Theta
        return abs(float(np.prod(eigenvalues) * np.prod(spikes.theta)))

    lams = sorted(points)
    spectra = {lam: spectrum(lam) for lam in lams if points[lam] is not None}
    if not spectra:
        raise RuntimeError("no scan point converged; widen the window, raise "
                           "max_iterations or loosen the tolerance")
    candidates = []
    for a, b in zip(lams, lams[1:]):
        if a not in spectra or b not in spectra:
            continue
        for j in np.flatnonzero((spectra[a] < 0.0) & (spectra[b] >= 0.0)):
            root = brentq(lambda t: spectrum(t)[j], a, b)
            value = det_abs(spectrum(root))
            candidates.append(OutlierCandidate(lam=root, det_abs=value,
                                               accepted=value <= threshold))
    if not candidates:
        lam = min(spectra, key=lambda t: det_abs(spectra[t]))
        candidates.append(OutlierCandidate(lam=lam, det_abs=det_abs(spectra[lam]),
                                           accepted=False))
    candidates.sort(key=lambda c: c.lam)
    return OutlierReport(candidates=candidates, threshold=threshold, window=(lo, hi))


def closed_form_outlier(kind: str, theta: float, n: int | None = None,
                        m: int | None = None):
    """Known outlier locations for reference profiles, None below threshold.

    constant:          sqrt((1 + theta^2)(n/m + theta^2)) / theta
                       for theta >= (n/m)^(1/4);
    doubly-stochastic: theta + 1/theta for theta >= 1.

    At the threshold both formulas land exactly on the bulk edge.
    """
    if theta <= 0.0:
        raise ValueError("spike strength must be > 0")
    kind = kind.replace("_", "-")
    if kind == "constant":
        if n is None or m is None:
            raise ValueError("constant-profile formula needs n and m")
        c = n / m
        if theta < c ** 0.25:
            return None
        return math.sqrt((1.0 + theta * theta) * (c + theta * theta)) / theta
    if kind == "doubly-stochastic":
        if theta < 1.0:
            return None
        return theta + 1.0 / theta
    raise ValueError(f"no closed form for profile kind {kind!r}")
