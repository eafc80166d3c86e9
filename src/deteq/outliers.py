"""Outlier localization for spiked models by eigenvalue counting.

A rank-k Hermitian spike U Theta U* added to a profile ensemble creates
eigenvalue outliers at the real zeros, outside the support, of

    det beta(lambda) = det(I_k - U* G(lambda I) U Theta),

where G is the Dyson fixed point of the unspiked model.  For a dense
deformation Y the same determinant reads

    det(I_k - U* (Omega(lambda I) - Y)^(-1) U Theta),

with Omega(Lambda) = Lambda - R(G(Lambda)); for diagonal Y the two forms
coincide, and the deformation object that ``dyson._classify_deformation``
returns evaluates the cheaper one for its form.

Outside the support G(lambda) is real and decreasing, so the eigenvalues of
the Hermitian k x k matrix Theta^(-1) - U* G U increase with lambda and, by
Sylvester inertia, each one that crosses zero marks one outlier
(Benaych-Georges & Nadakuditi, Adv. Math. 2011).  ``locate_outliers``
counts and polishes those crossings along the real axis.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dilation import DilatedModel, _hold_frame
from .dyson import SolverConfig, SpectralParameter, _prepare, _Prepared, _solve_path
from .profiles import VarianceProfile, _hold_array

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
        u = _hold_frame(self, "u", "spike u")
        theta = _hold_array(self, "theta", self.theta, np.float64, ndmin=1)
        if theta.shape != (u.shape[1],):
            raise ValueError("u and theta must agree on the spike count")
        if theta.size == 0:
            raise ValueError("spike set must contain at least one spike")
        if not np.all(np.isfinite(theta)):
            raise ValueError("spike strengths must be finite")
        if np.any(theta == 0.0):
            raise ValueError("spike strengths must be nonzero")

    @property
    def k(self) -> int:
        return self.theta.size


@dataclass(frozen=True, eq=False)
class HermitianModel:
    """Hermitian ensemble (profile noise + deformation Y) with a spike set.

    ``y`` is stored classified: None, a real diagonal vector, or a dense
    Hermitian matrix, read-only and taken in by ``profiles._hold_array``'s
    rule; the model is prepared for the solver once.
    """

    profile: VarianceProfile
    y: np.ndarray | None
    spikes: SpikeSet
    _prepared: _Prepared = field(init=False, repr=False)

    def __post_init__(self) -> None:
        prepared = _prepare(self.profile, self.y)
        if self.spikes.u.shape[0] != prepared.n:
            raise ValueError("spike vectors do not match the profile dimension")
        object.__setattr__(self, "y", None if self.y is None else prepared.y.array)
        object.__setattr__(self, "_prepared", prepared)

    def _scaled(self, theta: float) -> "HermitianModel":
        """This model with each spike strength times theta, sharing its prepared profile and Y."""
        model = copy.copy(self)
        object.__setattr__(model, "spikes", SpikeSet(u=self.spikes.u,
                                                     theta=self.spikes.theta * theta))
        return model

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


def _beta_from_g(spikes: SpikeSet, model: _Prepared, lam_value: complex,
                 g: np.ndarray) -> np.ndarray:
    """I - core Theta, core = U* (Omega - Y)^(-1) U at G, all n rows in ``g``."""
    core = model.y.core(spikes.u, model.w, lam_value, g)
    return np.eye(spikes.k, dtype=np.complex128) - core * spikes.theta[np.newaxis, :]


def _check_eta_eval(eta_eval: float) -> None:
    if not (math.isfinite(eta_eval) and eta_eval > 0.0):
        raise ValueError("eta_eval must be finite and > 0")


def beta_square(lam, spikes: SpikeSet, profile: VarianceProfile, y=None,
                config: SolverConfig | None = None, eta_eval: float = 1e-3) -> np.ndarray:
    """k x k determinant matrix at lambda for any Hermitian deformation Y.

    Absent or diagonal Y gives I - U* G(lambda I) U Theta; dense Y gives
    I - U* (Omega(lambda I) - Y)^(-1) U Theta.  Real ``lam`` is evaluated
    just above the axis at lam + i eta_eval.  Raises ValueError for a
    non-finite or non-positive ``eta_eval``.
    """
    _check_eta_eval(eta_eval)
    lam_c = complex(lam)
    if lam_c.imag < 0.0:
        raise ValueError("spectral arguments must satisfy Im lambda >= 0")
    if lam_c.imag == 0.0:
        lam_c = complex(lam_c.real, eta_eval)
    model = HermitianModel(profile, y, spikes)._prepared
    sol = next(_solve_path(model, [SpectralParameter.scalar(lam_c, model.n)], config))
    if not sol.converged:
        raise RuntimeError(
            f"Dyson solve did not converge at lambda = {lam_c} "
            f"(residual {sol.residual:.3e} after {sol.iterations} iterations)")
    return _beta_from_g(spikes, model, lam_c, sol.g_square.diag)


def det_beta_curve(model: HermitianModel, lambdas, config: SolverConfig | None = None,
                   eta_eval: float = 1e-3):
    """det beta(lambda + i eta_eval) over a real grid.

    Each solve is warm-started from the previous grid point.  Returns
    (complex determinants, per-point convergence flags).  Raises ValueError
    for a non-finite point of ``lambdas`` or a non-finite or non-positive
    ``eta_eval``.
    """
    _check_eta_eval(eta_eval)
    lams = [complex(lam, eta_eval) for lam in np.asarray(lambdas, dtype=np.float64)]
    if not np.isfinite(lams).all():
        raise ValueError("lambdas must be finite")
    dets = np.empty(len(lams), dtype=np.complex128)
    flags = np.empty(len(lams), dtype=bool)
    points = (SpectralParameter.scalar(lam, model.profile.rows) for lam in lams)
    for i, (lam, sol) in enumerate(zip(lams, _solve_path(model._prepared, points, config))):
        beta = _beta_from_g(model.spikes, model._prepared, lam, sol.g_square.diag)
        dets[i], flags[i] = np.linalg.det(beta), sol.converged
    return dets, flags


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float = 2e-12,
           rtol: float = 4 * float(np.finfo(float).eps), maxiter: int = 100) -> float:
    """A zero of f between a and b, where ``fa`` = f(a) and ``fb`` = f(b)
    differ in sign.

    Brent's method (Brent 1973, ch. 4) step for step as scipy's brentq.c
    runs it, at its defaults: a secant or inverse quadratic step when it is
    short enough, else bisection, until the bracket is narrower than
    xtol + rtol |x|.  brentq.c evaluates the two ends first; here the caller
    passes them in, so f is called only inside the bracket.  Raises
    ValueError without a sign change and RuntimeError when ``maxiter``
    steps do not converge.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(fa), float(fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre  # the root lies between xcur and xblk
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur holds the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge after {maxiter} iterations")


@dataclass(frozen=True, eq=False)
class _CacheRecord:
    """What the real G's of a ``locate_outliers`` cache depend on; the cache's
    first key, mapped to None."""

    profile: np.ndarray
    y: np.ndarray
    config: SolverConfig
    eta_eval: float


def _check_cache(cache: dict, model: _Prepared, config: SolverConfig, eta_eval: float) -> None:
    """Record in an empty cache what its G's depend on; else raise ValueError
    when this call differs from the record, naming what differs."""
    record = _CacheRecord(model.entries, model.y.array, config, eta_eval)
    if not cache:
        cache[record] = None
        return
    first = next(iter(cache))
    if not isinstance(first, _CacheRecord):
        raise ValueError("cache was not filled by locate_outliers")
    changed = [name for name, old, new in (("profile", first.profile, record.profile),
                                           ("Y", first.y, record.y))
               if not (old is new or np.array_equal(old, new))]
    changed += [name for name in ("config", "eta_eval")
                if getattr(first, name) != getattr(record, name)]
    if changed:
        raise ValueError(f"cache was filled for another {' and '.join(changed)}; share a "
                         "cache only between calls that agree on the profile, Y, config "
                         "and eta_eval")


def locate_outliers(model: HermitianModel, window=None,
                    config: SolverConfig | None = None,
                    threshold: float = 1e-3, scan_points: int = 50,
                    eta_eval: float = 1e-3, cache: dict | None = None) -> OutlierReport:
    """Locate the real zeros of det beta inside a search window by counting.

    Walks ``scan_points`` equispaced points down from the top of the window,
    solving the Dyson equation on the real axis, and bisects each boundary
    between a converged and a failed point down to a width of 1e-4.
    ``dyson._solve_path`` places a point in the support when its iteration
    crosses a pole of psi or, above the spectrum, when the Collatz-Wielandt
    bound mu >= 1 shows that no fixed point lies above its start.  Between two adjacent converged points,
    every eigenvalue of Theta^(-1) - U* G U that turns from negative to
    nonnegative marks one root, which Brent's method (``_brent``) polishes.
    Each real solve names its start: a walk point the previous walk point's
    G, a bisection midpoint the converged end of its bracket, a Brent point
    the upper end of its bracket.  Above the spectrum each such start lies
    below G(lambda), so the solve takes the extrapolated steps that reach
    G(lambda) next to an edge in a few iterations.  A point without one (the top point, and
    any after a point in the support) is solved on the path
    [lambda + i eta_eval, lambda], whose complex solve starts from the
    previous such one.  All solves run at ``config``.

    Each root is a candidate with det_abs = |det beta(root)|, accepted when
    det_abs <= ``threshold``.  A window without roots reports one candidate,
    never accepted: the converged point with the smallest |det beta|.  When
    ``window`` is None it defaults to [edge - 0.5, edge + max |theta| + 2],
    where the edge is the first point in the support on the same kind of
    walk, run down from the row-sum bound in steps of 0.02.

    ``cache`` maps each real lambda solved to its real G (an
    ``OperatorStieltjes``), or to None where the solve failed.  Whether a
    solve converges, and from which complex seed, depends on the profile,
    Y, ``config`` and ``eta_eval``, so a cache may be shared only between
    calls that agree on all four, such as a sweep over spike strengths.
    The first call records the four under the cache's first key, which
    maps to None.  Raises ValueError for a non-finite or empty window, a
    non-finite or non-positive ``eta_eval`` or a cache recorded for another
    profile, Y, ``config`` or ``eta_eval``, and RuntimeError when no point
    of the walk converges, when a solve between two converged points fails,
    or when a complex seed does not converge within ``config.max_iterations``.
    """
    if config is None:
        config = SolverConfig()
    if scan_points < 3:
        raise ValueError("need at least 3 scan points")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError("threshold must be finite and >= 0")
    _check_eta_eval(eta_eval)
    prepared, spikes = model._prepared, model.spikes
    cache = cache if cache is not None else {}
    _check_cache(cache, prepared, config, eta_eval)
    seed = config.initial

    def solve(lam: float, start):
        """Real G at lam from the G ``start``, or from a complex seed when it is None.
        A seed that did not converge says nothing about lam, so it raises."""
        nonlocal seed
        if lam not in cache:
            if start is None:
                point = SpectralParameter.scalar(complex(lam, eta_eval), prepared.n)
                first, sol = _solve_path(prepared, [point, lam], replace(config, initial=seed))
                if not first.converged:
                    raise RuntimeError(f"the complex seed at lambda = {lam} + {eta_eval}i did "
                                       f"not converge within max_iterations = "
                                       f"{config.max_iterations}")
                seed = first.g_square
            else:
                sol = next(_solve_path(prepared, [lam], replace(config, initial=start)))
            cache[lam] = sol.g_square if sol.converged else None
        return cache[lam]

    if window is None:
        # The row-sum bound 2 sqrt(max_i R(1)(i)) + ||Y|| dominates the spectrum.
        profile = model.profile
        reach = 2.0 * math.sqrt(float((profile.entries.sum(axis=1) / profile.rows).max()))
        reach += prepared.y.norm
        grid = [float(t) for t in np.arange(reach + 0.02, -0.02, -0.02)]
        edge = next((t for i, t in enumerate(grid)
                     if solve(t, cache[grid[i - 1]] if i else None) is None), reach)
        window = (edge - 0.5, edge + float(np.abs(spikes.theta).max()) + 2.0)
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError("search window must be finite and non-empty")

    walk = [float(t) for t in np.linspace(hi, lo, scan_points)]
    points = {}
    for i, lam in enumerate(walk):
        points[lam] = solve(lam, points[walk[i - 1]] if i else None)
        if i and (points[lam] is None) != (points[walk[i - 1]] is None):
            a, b = lam, walk[i - 1]
            while b - a > 1e-4:
                mid = 0.5 * (a + b)
                points[mid] = solve(mid, points[b] if points[a] is None else points[a])
                if (points[mid] is None) == (points[a] is None):
                    a = mid
                else:
                    b = mid

    inv_theta = np.diag(1.0 / spikes.theta)

    def spectrum(lam: float, start) -> np.ndarray:
        g = solve(lam, start)
        if g is None:
            raise RuntimeError(f"real-axis Dyson solve failed at lambda = {lam} "
                               "between two converged points")
        core = prepared.y.core(spikes.u, prepared.w, lam, g.diag.real)
        return np.linalg.eigvalsh(inv_theta - core)

    def det_abs(eigenvalues: np.ndarray) -> float:
        # det beta = det(Theta^(-1) - core) det Theta
        return abs(float(np.prod(eigenvalues) * np.prod(spikes.theta)))

    lams = sorted(points)
    spectra = {lam: spectrum(lam, g) for lam, g in points.items() if g is not None}
    if not spectra:
        raise RuntimeError("no scan point converged; widen the window, raise "
                           "max_iterations or loosen the tolerance")
    candidates = []
    for a, b in zip(lams, lams[1:]):
        if a not in spectra or b not in spectra:
            continue
        for j in np.flatnonzero((spectra[a] < 0.0) & (spectra[b] >= 0.0)):
            root = _brent(lambda t: spectrum(t, points[b])[j], a, b,
                          spectra[a][j], spectra[b][j])
            value = det_abs(spectrum(root, points[b]))
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
