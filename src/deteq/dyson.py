"""Dyson fixed-point equation for operator-valued Stieltjes transforms.

For a Hermitian random matrix H = X + Y, where X has centered Gaussian
entries with variance profile gamma^2(i, j) / N and Y is deterministic,
the deterministic equivalent of the diagonal of the resolvent solves

    G(Lambda) = diag[(Lambda - R(G(Lambda)) - Y)^(-1)],

with the variance map R(G)(i) = sum_j gamma^2(i, j) G(j, j) / N.  The map
psi(G) = diag[(Lambda - R(G) - Y)^(-1)] is a contraction with constant
gamma_max^2 ||(Im Lambda)^(-1)||^2, and its fixed point is the only one in
the Stieltjes domain Im G <= 0, |G_i| <= 1 / Im Lambda_i.

``solve_dyson`` accelerates damped iteration with type-II Anderson
extrapolation (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  Close to the
real axis, where psi contracts slowly, that cuts the iteration count by one
to two orders of magnitude.  An extrapolation that leaves the Stieltjes
domain or raises the residual gives way to the damped step; with damping
1/2 that step is the averaged iteration whose convergence Helton, Rashidi
Far & Speicher prove (IMRN 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import VarianceProfile

__all__ = [
    "SpectralParameter",
    "OperatorStieltjes",
    "SolverConfig",
    "DysonSolution",
    "DysonDivergenceError",
    "ConcentrationBound",
    "ConcentrationResult",
    "r_map",
    "psi_step",
    "solve_dyson",
    "omega_square",
    "concentration_bound",
]

# How many differences of past iterates the Anderson step in solve_dyson
# extrapolates from.
_ANDERSON_DEPTH = 6


class DysonDivergenceError(RuntimeError):
    """Raised when the fixed-point iteration produces NaN or Inf."""


@dataclass(frozen=True, eq=False)
class SpectralParameter:
    """Diagonal spectral argument Lambda with Im Lambda > 0 entrywise."""

    diag: np.ndarray

    def __post_init__(self) -> None:
        diag = np.array(self.diag, dtype=np.complex128, copy=True)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("spectral parameter must be a non-empty vector")
        if not np.all(np.isfinite(diag)):
            raise ValueError("spectral parameter must be finite")
        if np.any(diag.imag <= 0.0):
            raise ValueError("spectral parameter needs Im > 0 in every entry")
        diag.setflags(write=False)
        object.__setattr__(self, "diag", diag)

    @classmethod
    def scalar(cls, lam: complex, n: int) -> "SpectralParameter":
        """Lambda = lam * I on an n-dimensional space."""
        return cls(np.full(n, complex(lam), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    @property
    def im_min(self) -> float:
        return float(self.diag.imag.min())

    def inv_im_norm(self) -> float:
        """sup norm of (Im Lambda)^(-1)."""
        return 1.0 / self.im_min


@dataclass(frozen=True, eq=False)
class OperatorStieltjes:
    """Diagonal candidate/solution G with Im G <= 0 entrywise."""

    diag: np.ndarray

    def __post_init__(self) -> None:
        diag = np.array(self.diag, dtype=np.complex128, copy=True)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("operator Stieltjes data must be a non-empty vector")
        if not np.all(np.isfinite(diag)):
            raise ValueError("operator Stieltjes data must be finite")
        if np.any(diag.imag > 0.0):
            raise ValueError("operator Stieltjes transforms have Im <= 0")
        diag.setflags(write=False)
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-12
    max_iterations: int = 10000
    initial: OperatorStieltjes | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be finite and > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(eq=False)
class DysonSolution:
    """Fixed-point result plus iteration diagnostics.

    ``g_square`` is the last iterate the solver evaluated and ``residual``
    is the sup norm of G - psi(G) there, whether or not the solve converged.
    ``residual_history`` records that norm at every iteration, one per
    evaluation of psi, including iterates that were dropped because an
    extrapolation overshot.
    """

    g_square: OperatorStieltjes
    iterations: int
    residual: float
    converged: bool
    contraction_certified: bool
    residual_history: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True, eq=False)
class _Prepared:
    """A Hermitian model as the solver reads it: W = Gamma / N, classified Y."""

    n: int
    w: np.ndarray
    y: np.ndarray | None
    gamma_max_sq: float


def _prepare(profile: VarianceProfile, y) -> _Prepared:
    """Read a profile and a deformation once, for every solve that follows."""
    if profile.mode != "hermitian":
        raise ValueError("the Dyson equation needs a hermitian-mode profile")
    n = profile.rows
    return _Prepared(n, profile.entries / n, _classify_deformation(y, n),
                     profile.gamma_max_sq)


def r_map(profile: VarianceProfile, g: np.ndarray) -> np.ndarray:
    """Variance map R(G)(i) = sum_j gamma^2(i, j) G(j, j) / N.

    Linear in g; maps vectors with Im <= 0 to vectors with Im <= 0 and is
    bounded by gamma_max^2 in sup norm.
    """
    model = _prepare(profile, None)
    g = np.asarray(g)
    if g.shape != (model.n,):
        raise ValueError(f"g has shape {g.shape}, expected ({model.n},)")
    return _apply_r(model.w, g)


def _apply_r(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    # w is real; splitting the complex matvec roughly halves the work.
    if np.iscomplexobj(g):
        return w @ g.real + 1j * (w @ g.imag)
    return w @ g


def _classify_deformation(y, n: int):
    """The one reading of a deformation Y on an n-dimensional space.

    Returns None when Y is absent, a real float64 vector when Y is diagonal
    (given as a vector or as a matrix with zero off-diagonal part), and the
    n x n Hermitian matrix otherwise.  Raises ValueError for a wrong shape,
    a complex diagonal or a non-Hermitian matrix.
    """
    if y is None:
        return None
    y = np.asarray(y)
    if y.ndim == 1:
        if y.shape != (n,):
            raise ValueError(f"diagonal deformation has length {y.shape[0]}, expected {n}")
        if np.iscomplexobj(y) and np.any(y.imag != 0.0):
            raise ValueError("diagonal deformation must be real")
        return y.real.astype(np.float64)
    if y.shape != (n, n):
        raise ValueError(f"deformation has shape {y.shape}, expected ({n}, {n})")
    if not np.allclose(y, np.conj(y.T), rtol=0.0, atol=1e-12):
        raise ValueError("deformation matrix must be Hermitian")
    if not np.any(y - np.diag(np.diag(y))):
        return np.diag(y).real.astype(np.float64)
    return y


def _psi_raw(w, lam_diag, g, y):
    shift = lam_diag - _apply_r(w, g)
    if y is None:
        return 1.0 / shift
    if y.ndim == 1:
        return 1.0 / (shift - y)
    return np.linalg.inv(np.diag(shift) - y).diagonal().copy()


def _solve_real(w, y, lam: float, g0, tolerance, max_iterations) -> np.ndarray | None:
    """Plain iteration of psi at a real lambda from the real start ``g0``.

    Outside the support G(lambda) is real and psi contracts near it, so the
    iteration stays on the branch ``g0`` lies on.  Returns None, placing
    lambda in the support, when it hits ``max_iterations`` or goes
    non-finite.  ``w`` is the profile over N; ``y`` is classified.
    """
    g = np.asarray(g0, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max_iterations):
            # a Hermitian Y leaves only rounding in the imaginary part
            psi_g = _psi_raw(w, lam, g, y).real
            if not np.all(np.isfinite(psi_g)):
                return None
            if np.abs(g - psi_g).max() <= tolerance:
                return g
            g = psi_g
    return None


def psi_step(profile: VarianceProfile, y, lam: SpectralParameter,
             g: OperatorStieltjes) -> OperatorStieltjes:
    """One fixed-point map application: diag[(Lambda - R(g) - Y)^(-1)].

    The output again has Im <= 0 and sup norm at most ||(Im Lambda)^(-1)||.
    """
    model = _prepare(profile, y)
    if lam.dim != model.n or g.dim != model.n:
        raise ValueError("dimension mismatch between profile, Lambda and g")
    return OperatorStieltjes(_psi_raw(model.w, lam.diag, g.diag, model.y))


def solve_dyson(profile: VarianceProfile, y, lam: SpectralParameter,
                config: SolverConfig | None = None) -> DysonSolution:
    """Solve G = diag[(Lambda - R(G) - Y)^(-1)] by Anderson-accelerated iteration.

    Starts from G0 = -i / Im(Lambda) unless ``config.initial`` supplies a
    warm start, and stops once sup |g - psi(g)| <= ``config.tolerance``.
    Each step takes the damped step (1 - alpha) g + alpha psi(g) and
    corrects it by a type-II Anderson extrapolation over the last six
    differences of accepted iterates and of their residuals
    f = psi(g) - g: with gamma minimising |f - dF gamma|, the candidate is
    (1 - alpha) g + alpha psi(g) - (dG + alpha dF) gamma.

    Guard: the candidate is taken only when it is finite, has Im <= 0 and
    |g_i| <= 1 / Im lambda_i.  That is the Stieltjes domain, where the
    fixed point is unique, so the iteration cannot move to another branch.
    Fallback: a candidate outside it is replaced by the damped step, and an
    extrapolated iterate whose residual exceeds that of the iterate it
    started from is dropped for the damped step from that iterate.  The
    damping factor alpha starts at 1 and is halved (down to 1/16) whenever
    the residual of the accepted iterates grows five times in a row, which
    tames the oscillations close to the real axis.  Diagonal deformations
    use the entrywise reciprocal update; dense ones pay for a full resolvent
    per step.  A solve that stops at ``config.max_iterations`` returns the
    last iterate it evaluated, with that iterate's residual.
    """
    return next(_solve_path(_prepare(profile, y), [lam], config))


def _solve_path(model: _Prepared, lams, config: SolverConfig | None = None):
    """Yield the ``solve_dyson`` solution at each Lambda of ``lams`` in turn.

    Each solve after the first starts from the previous point's G.
    """
    if config is None:
        config = SolverConfig()
    n = model.n
    start = config.initial
    if start is not None and start.dim != n:
        raise ValueError("warm start has wrong dimension")
    for lam in lams:
        if lam.dim != n:
            raise ValueError(f"Lambda has dimension {lam.dim}, expected {n}")
        lam_diag = lam.diag
        certified = model.gamma_max_sq * lam.inv_im_norm() ** 2 < 1.0
        if model.gamma_max_sq == 0.0:
            # Noise-free model: the equation degenerates to G = diag[(Lambda - Y)^(-1)].
            start = OperatorStieltjes(
                _psi_raw(model.w, lam_diag, np.zeros(n, dtype=np.complex128), model.y))
            yield DysonSolution(start, iterations=1, residual=0.0, converged=True,
                                contraction_certified=True, residual_history=np.zeros(1))
            continue

        g = -1j / lam_diag.imag if start is None else start.diag.copy()
        alpha = 1.0
        bound = 1.0 / lam_diag.imag
        residuals = []
        increase_run = 0
        # The last accepted iterate, its image and its residual, and the
        # differences between consecutive accepted iterates and residuals.
        g_base = psi_base = f_base = None
        res_base = math.inf
        d_g, d_f = [], []
        extrapolated = False
        while True:
            psi_g = _psi_raw(model.w, lam_diag, g, model.y)
            if not np.all(np.isfinite(psi_g)):
                raise DysonDivergenceError(
                    f"fixed-point iterate became non-finite at iteration "
                    f"{len(residuals) + 1} (damping {alpha})")
            f = psi_g - g
            res = float(np.abs(f).max())
            residuals.append(res)
            if res <= config.tolerance or len(residuals) == config.max_iterations:
                break
            if res > res_base:
                if extrapolated:
                    # The extrapolation overshot: take the damped step from the
                    # iterate it started at instead.
                    g = (1.0 - alpha) * g_base + alpha * psi_base
                    extrapolated = False
                    continue
                increase_run += 1
                if increase_run >= 5 and alpha > 1.0 / 16.0:
                    alpha = max(alpha / 2.0, 1.0 / 16.0)
                    increase_run = 0
            else:
                increase_run = 0
            if g_base is not None:
                d_g.append(g - g_base)
                d_f.append(f - f_base)
                if len(d_g) > _ANDERSON_DEPTH:
                    del d_g[0], d_f[0]
            g_base, psi_base, f_base, res_base = g, psi_g, f, res
            extrapolated = False
            if d_g:
                dg, df = np.column_stack(d_g), np.column_stack(d_f)
                gamma = np.linalg.lstsq(df, f, rcond=None)[0]
                cand = g + alpha * f - (dg + alpha * df) @ gamma
                # the guard: stay in the Stieltjes domain
                extrapolated = bool(np.all(np.isfinite(cand)) and np.all(cand.imag <= 0.0)
                                    and np.all(np.abs(cand) <= bound))
            g = cand if extrapolated else (1.0 - alpha) * g + alpha * psi_g

        start = OperatorStieltjes(g)
        yield DysonSolution(start, iterations=len(residuals), residual=res,
                            converged=res <= config.tolerance,
                            contraction_certified=certified,
                            residual_history=np.asarray(residuals))


def omega_square(profile: VarianceProfile, solution: DysonSolution,
                 lam: SpectralParameter) -> np.ndarray:
    """Subordination point Omega(Lambda) = Lambda - R(G(Lambda))."""
    if not solution.converged:
        raise ValueError("omega_square needs a converged Dyson solution")
    return lam.diag - r_map(profile, solution.g_square.diag)


@dataclass(frozen=True)
class ConcentrationBound:
    """Parameters of the finite-N concentration estimates.

    ``gamma_max`` is the largest entrywise standard deviation, ``delta`` the
    failure-probability exponent (the bounds hold outside probability
    ~ exp(-c N^delta-ish terms), see ``concentration_bound``), ``d`` the
    spectral-domain parameter, ``n`` the dimension, and ``im_lambda`` the
    distance of the scalar spectral parameter to the real axis.
    ``diagonal_y`` selects the sharper bounds available when the
    deformation is diagonal.
    """

    gamma_max: float
    delta: float
    d: float
    n: int
    im_lambda: float
    diagonal_y: bool = False

    def __post_init__(self) -> None:
        if self.gamma_max < 0.0:
            raise ValueError("gamma_max must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.d <= 0.0:
            raise ValueError("d must be > 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.im_lambda <= 0.0:
            raise ValueError("im_lambda must be > 0")

    @property
    def admissible(self) -> bool:
        """Whether Im(lambda) is large enough for the bounds to apply."""
        if self.diagonal_y:
            return bool(self.im_lambda >= (self.gamma_max * self.n ** -0.25
                                           * (1.0 - self.delta) ** (-1.0 / 6.0)))
        return bool(self.im_lambda
                    >= self.gamma_max * (2.0 / (self.n * (1.0 - self.delta))) ** 0.2)


@dataclass(frozen=True)
class ConcentrationResult:
    epsilon: float
    epsilon_tilde: float
    admissible: bool


def concentration_bound(params: ConcentrationBound) -> ConcentrationResult:
    """Deterministic error radii for the Dyson approximation.

    ``epsilon`` bounds the sup norm of E[diag resolvent] - G at the
    operator level and ``epsilon_tilde`` bounds the normalized-trace
    deviation |tr (Lambda - H)^(-1) / N - tr G / N| that holds with
    probability 1 - 4 exp(-(d - 2) log N) - 2 exp(-delta N^(1/5) ...)
    style corrections.  With a diagonal deformation the second summand
    improves by a factor gamma_max / (Im lambda sqrt(N)) / 2.
    """
    gam = params.gamma_max
    s = 1.0 / params.im_lambda
    n = params.n
    logn = math.log(n)
    lead = math.sqrt(2.0) * gam * math.sqrt(params.d * logn / n) * s * s
    lead_tilde = math.sqrt(2.0) * gam * math.sqrt(2.0 * params.d * logn) * s * s / n
    prefactor = 1.0 + gam * gam * s * s / params.delta
    if params.diagonal_y:
        tail = prefactor * gam ** 4 * s ** 5 / n ** 1.5
        eps = lead + tail
        eps_tilde = lead_tilde + tail
    else:
        tail = prefactor * 2.0 * gam ** 3 * s ** 4 / n
        eps = lead + tail
        eps_tilde = lead_tilde + tail
    return ConcentrationResult(epsilon=eps, epsilon_tilde=eps_tilde,
                               admissible=params.admissible)
