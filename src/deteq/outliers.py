"""Outlier localization for spiked models via determinant zero-crossings.

A rank-k Hermitian spike U Theta U* added to a profile ensemble creates
eigenvalue outliers at the real zeros of

    det beta(lambda) = det(I_k - U* G(lambda I) U Theta),

where G is the Dyson fixed point of the unspiked model.  For a dense
deformation Y the same determinant reads

    det(I_k - U* (Omega(lambda I) - Y)^(-1) U Theta),

with Omega(Lambda) = Lambda - R(G(Lambda)); for diagonal Y the two forms
coincide, so the code picks the cheaper one from the kind of Y.
``locate_outliers`` scans a window for local minima of
|det beta| and polishes them with Nelder-Mead, evaluating the real-axis
limit by Richardson extrapolation in the regularization eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .dilation import DilatedModel, _check_frame
from .dyson import (SolverConfig, SpectralParameter, _classify_deformation, r_map,
                    solve_dyson)
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

_SNAP = 1e-5          # lambda quantization for cached determinant evaluations
_MAX_REFINEMENTS = 8  # refine at most this many scan minima


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


def _beta_from_g(spikes: SpikeSet, profile: VarianceProfile, y, lam_value: complex,
                 g: np.ndarray) -> np.ndarray:
    """I - U* diag(G) U Theta, or I - U* (Omega - Y)^(-1) U Theta for dense Y.

    ``y`` must already be classified.
    """
    if y is None or y.ndim == 1:
        core = (spikes.u.conj().T * g[np.newaxis, :]) @ spikes.u
    else:
        omega = lam_value - r_map(profile, g)
        core = spikes.u.conj().T @ np.linalg.solve(np.diag(omega) - y, spikes.u)
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


class _DetEvaluator:
    """Cached determinant evaluations for one model.

    Dyson solutions are memoized per (snapped lambda, eta) in ``cache``,
    which callers may share across invocations to reuse solves, e.g. when
    sweeping spike strengths over a fixed window: the fixed point depends
    on the model only, not on the spikes.
    """

    def __init__(self, model: HermitianModel, config: SolverConfig, eta_eval: float,
                 cache: dict):
        self.model = model
        self.config = config
        self.eta = eta_eval
        self.cache = cache
        self.warm = None

    def _solve(self, lam_c: complex):
        key = (round(lam_c.real / _SNAP) * _SNAP, lam_c.imag)
        sol = self.cache.get(key)
        if sol is None:
            cfg = self.config if self.warm is None else replace(self.config, initial=self.warm)
            lam = SpectralParameter.scalar(complex(key[0], key[1]),
                                           self.model.profile.rows)
            sol = solve_dyson(self.model.profile, self.model.y, lam, cfg)
            self.cache[key] = sol
        self.warm = sol.g_square
        return key[0], sol

    def det_at(self, lam_c: complex):
        """Determinant at one complex point; returns (det, converged)."""
        lam_snapped, sol = self._solve(lam_c)
        beta = _beta_from_g(self.model.spikes, self.model.profile, self.model.y,
                            complex(lam_snapped, lam_c.imag), sol.g_square.diag)
        return complex(np.linalg.det(beta)), sol.converged

    def boundary_det(self, lam: float):
        """Richardson limit eta -> 0 of det(lambda + i eta).

        Three geometrically spaced evaluations cancel the first and second
        order terms in eta; the remainder is O(eta^3) away from branch
        points of the deterministic determinant.
        """
        d1, c1 = self.det_at(complex(lam, self.eta))
        d2, c2 = self.det_at(complex(lam, self.eta / 2.0))
        d4, c4 = self.det_at(complex(lam, self.eta / 4.0))
        det = (8.0 * d4 - 6.0 * d2 + d1) / 3.0
        return det, (c1 and c2 and c4)


def det_beta_curve(model: HermitianModel, lambdas, config: SolverConfig | None = None,
                   eta_eval: float = 1e-3, cache: dict | None = None):
    """det beta(lambda + i eta_eval) over a real grid.

    Returns (complex determinants, per-point convergence flags).
    """
    if config is None:
        config = SolverConfig()
    ev = _DetEvaluator(model, config, eta_eval, cache if cache is not None else {})
    lambdas = np.asarray(lambdas, dtype=np.float64)
    dets = np.empty(lambdas.shape, dtype=np.complex128)
    flags = np.empty(lambdas.shape, dtype=bool)
    for i, lam in enumerate(lambdas):
        dets[i], flags[i] = ev.det_at(complex(lam, eta_eval))
    return dets, flags


def _local_minima(values: np.ndarray) -> list:
    idx = []
    last = len(values) - 1
    for i, v in enumerate(values):
        left = values[i - 1] if i > 0 else math.inf
        right = values[i + 1] if i < last else math.inf
        if v <= left and v <= right:
            idx.append(i)
    idx.sort(key=lambda i: values[i])
    return idx[:_MAX_REFINEMENTS]


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
    """Locate real zeros of det beta inside a search window.

    Scans ``scan_points`` equispaced points, refines each local minimum of
    |det| with Nelder-Mead, and accepts a candidate when the extrapolated
    boundary determinant falls at or below ``threshold`` and the solves
    behind it converged.  When ``window`` is None it defaults to
    [edge - 0.5, edge + max theta + 2] around the estimated bulk edge.
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

    shared_cache = cache if cache is not None else {}
    # Scan points that land inside the bulk cannot reach tolerance at small
    # eta and only seed the minima detection, so the scan runs on a capped
    # iteration budget; refinement uses the full configuration.
    scan_config = replace(config, max_iterations=min(config.max_iterations, 2500))
    scan_ev = _DetEvaluator(model, scan_config, eta_eval, shared_cache)
    lams = np.linspace(lo, hi, scan_points)
    scan = np.empty(scan_points)
    any_converged = False
    for i, lam in enumerate(lams):
        det, conv = scan_ev.det_at(complex(lam, eta_eval))
        scan[i] = abs(det)
        any_converged = any_converged or conv
    ev = _DetEvaluator(model, config, eta_eval, shared_cache)
    ev.warm = scan_ev.warm
    if not any_converged:
        raise RuntimeError("no scan point converged; widen the window, raise "
                           "max_iterations or loosen the tolerance")

    refined = {}

    def objective(x) -> float:
        lam = float(x[0])
        if lam < lo or lam > hi:
            return 1e6 + abs(lam - 0.5 * (lo + hi))
        lam = round(lam / _SNAP) * _SNAP
        hit = refined.get(lam)
        if hit is None:
            det, conv = ev.boundary_det(lam)
            hit = (abs(det), conv)
            refined[lam] = hit
        return hit[0]

    step = (hi - lo) / (scan_points - 1)
    candidates = []
    for i in _local_minima(scan):
        x0 = lams[i]
        res = minimize(objective, x0=[x0], method="Nelder-Mead",
                       options={"xatol": 1e-4, "fatol": 1e-15, "maxfev": 80,
                                "initial_simplex": [[x0], [x0 + step / 4.0]]})
        lam = round(float(res.x[0]) / _SNAP) * _SNAP
        lam = min(max(lam, lo), hi)
        det_abs, conv = refined.get(lam, (None, None))
        if det_abs is None:
            det, conv = ev.boundary_det(lam)
            det_abs = abs(det)
        candidates.append((lam, det_abs, conv))

    candidates.sort()
    merged = []
    for lam, det_abs, conv in candidates:
        if merged and abs(lam - merged[-1][0]) < 5e-4:
            if det_abs < merged[-1][1]:
                merged[-1] = (lam, det_abs, conv)
            continue
        merged.append((lam, det_abs, conv))

    out = [OutlierCandidate(lam=lam, det_abs=det_abs,
                            accepted=bool(conv and det_abs <= threshold))
           for lam, det_abs, conv in merged]
    return OutlierReport(candidates=out, threshold=threshold, window=(lo, hi))


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
