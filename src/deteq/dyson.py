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
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytri, zhetrf, zhetri

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
            raise ValueError("tolerance: must be finite and > 0")
        try:
            cap = operator.index(self.max_iterations)
        except TypeError:
            cap = 0
        if cap < 1:
            raise ValueError("max_iterations: must be an integer >= 1")


@dataclass(eq=False)
class DysonSolution:
    """Fixed-point result plus iteration diagnostics.

    ``g_square`` is the last iterate the solver evaluated and ``residual``
    is the sup norm of G - psi(G) there, whether or not the solve converged.
    A real-axis solve that does not converge returns its start instead.
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
    """A Hermitian model as the solver reads it: its row classes and classified Y.

    G is constant on the classes (``_classes``), so the solver iterates on one
    value per class.  Row i is in class ``labels[i]``; class c has first row
    ``first[c]`` and ``sizes[c]`` rows, and ``w[c, d]`` = (exact mean of row
    first[c] over class d) |d| / N.  A dense Y makes every row a class.
    """

    n: int
    labels: np.ndarray
    first: np.ndarray
    sizes: np.ndarray
    w: np.ndarray
    y: np.ndarray | None
    gamma_max_sq: float
    entries: np.ndarray

    def refined(self, *vectors) -> "_Prepared":
        """The model on the coarsest equitable refinement on which every vector is constant."""
        if self.first.size == self.n or all(
                np.array_equal(v, v[self.first][self.labels]) for v in vectors):
            return self
        keys = [self.labels, *(p for v in vectors for p in (v.real, v.imag))]
        return _classes(self.entries, keys, self.y, self.gamma_max_sq)


def _prepare(profile: VarianceProfile, y) -> _Prepared:
    """Read a profile and a deformation once, for every solve that follows."""
    if profile.mode != "hermitian":
        raise ValueError("the Dyson equation needs a hermitian-mode profile")
    n = profile.rows
    y = _classify_deformation(y, n)
    # a dense Y couples every row, so each starts as its own class
    keys = np.zeros(n) if y is None else np.arange(n) if y.ndim == 2 else y
    return _classes(profile.entries, [keys], y, profile.gamma_max_sq)


def _classes(entries: np.ndarray, keys, y, gamma_max_sq: float) -> _Prepared:
    """The coarsest equitable partition that refines the classes of ``keys``.

    psi keeps vectors constant on equitable classes, whose rows have equal sums
    over every class, so its unique fixed point is constant on them (Ajanki,
    Erdos & Kruger, Mem. AMS 261, 2019).  Colour refinement (Grohe et al.,
    arXiv:1307.5697) splits each class by its rows' float sums over the classes
    until none splits.  A row unequal to its class's first row stays only if,
    per class, the fsum of its differing entries and the first row's negated
    ones is 0.0: fsum rounds correctly, and a nonzero sum is at least 2^-1074.
    """
    n = entries.shape[0]
    labels, first = _numbered(np.column_stack(keys))
    while first.size < n:
        parent, count = labels, first.size
        order, starts = _blocks(parent)
        cols = entries[:, order]
        with np.errstate(over="ignore"):  # an infinite sum is a key like any other
            labels, first = _numbered(np.column_stack([parent, np.add.reduceat(cols, starts, 1)]))
        # each row's entries that differ from its first row's, by row and then class
        i, j = np.divmod(np.flatnonzero(cols != cols[first[labels]]), n)
        cuts = np.flatnonzero(np.diff(i * n + parent[order][j], prepend=-1))
        terms = np.column_stack([cols[i, j], -cols[first[labels[i]], j]])
        tied = []
        for part in np.split(terms, cuts)[1:]:
            try:
                tied.append(math.fsum(part.ravel().tolist()) == 0.0)
            except OverflowError:  # an overflow counts as a difference
                tied.append(False)
        split = i[cuts[~np.array(tied, dtype=bool)]]
        if split.size:
            labels, first = _numbered(np.column_stack([labels, np.isin(np.arange(n), split)]))
        elif i.size == 0 or first.size == count:
            break
    sizes = np.bincount(labels)
    if first.size == n:
        return _Prepared(n, labels, first, sizes, entries / n, y, gamma_max_sq, entries)
    order, starts = _blocks(labels)
    head = entries[first][:, order]
    means = np.minimum.reduceat(head, starts, axis=1)
    for c, d in zip(*np.nonzero(means != np.maximum.reduceat(head, starts, axis=1))):
        block = head[c, starts[d]:starts[d] + sizes[d]]
        means[c, d] = float(sum(map(Fraction, block[block > 0.0].tolist())) / int(sizes[d]))
    return _Prepared(n, labels, first, sizes, means * (sizes / n), y, gamma_max_sq, entries)


def _numbered(keys: np.ndarray):
    """Labels of the distinct rows of ``keys``, in order of first occurrence, and those rows."""
    order = np.lexsort(keys.T)
    new = np.append(True, np.any(keys[order][1:] != keys[order][:-1], axis=1))
    first = order[new]  # lexsort is stable, so this is each class's first row
    rank = np.argsort(np.argsort(first))  # class numbers in order of first row
    return rank[np.cumsum(new) - 1][np.argsort(order)], np.sort(first)


def _blocks(labels: np.ndarray):
    """The columns in class order (a slice when they are already) and each class's start."""
    order = slice(None) if np.all(labels[1:] >= labels[:-1]) else np.argsort(labels, kind="stable")
    return order, np.flatnonzero(np.diff(labels[order], prepend=-1))


def _variance_map(profile: VarianceProfile) -> np.ndarray:
    """Gamma / N on all n rows of a hermitian-mode profile."""
    if profile.mode != "hermitian":
        raise ValueError("the Dyson equation needs a hermitian-mode profile")
    return profile.entries / profile.rows


def r_map(profile: VarianceProfile, g: np.ndarray) -> np.ndarray:
    """Variance map R(G)(i) = sum_j gamma^2(i, j) G(j, j) / N.

    Linear in g; maps vectors with Im <= 0 to vectors with Im <= 0 and is
    bounded by gamma_max^2 in sup norm.  It reads the profile row by row,
    without the row classes the solver iterates on.
    """
    w = _variance_map(profile)
    g = np.asarray(g)
    if g.shape != (w.shape[0],):
        raise ValueError(f"g has shape {g.shape}, expected ({w.shape[0]},)")
    return _apply_r(w, g)


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
    a non-finite entry, a complex diagonal or a non-Hermitian matrix.
    """
    if y is None:
        return None
    y = np.asarray(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("deformation must be finite")
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


def _psi_raw(w, lam_diag, g, y, inertia=False):
    """psi(g) = diag[(lambda - R(g) - Y)^(-1)] on class values.

    With ``inertia`` (real lambda, so the matrix is Hermitian) it also
    returns the inertia a real-axis solve compares: the sign pattern of
    psi(g) for absent or diagonal Y, the count of positive eigenvalues of
    lambda - R(g) - Y for dense Y.
    """
    shift = lam_diag - _apply_r(w, g)
    if y is not None and y.ndim == 2:
        if inertia:
            return _hermitian_inverse_diagonal(np.diag(shift) - y)
        return np.linalg.inv(np.diag(shift) - y).diagonal().copy()
    psi = 1.0 / (shift if y is None else shift - y)
    return (psi, psi > 0.0) if inertia else psi


def _hermitian_inverse_diagonal(a: np.ndarray):
    """diag(a^(-1)) and the count of positive eigenvalues of a Hermitian a.

    Both come from one Bunch-Kaufman factorization a = U D U*, where D has
    the inertia of a (Sylvester).  Bunch-Kaufman takes a 2 x 2 pivot only
    when its determinant is negative, so each 2 x 2 block of D holds one
    positive eigenvalue.  A singular a gives a NaN diagonal.
    """
    trf, tri = (zhetrf, zhetri) if np.iscomplexobj(a) else (dsytrf, dsytri)
    # a workspace of 64 n lets LAPACK factor in blocks of 64 columns
    lu, ipiv, info = trf(a, lwork=64 * a.shape[0], overwrite_a=1)
    if info != 0:
        return np.full(a.shape[0], np.nan), -1
    # ipiv > 0 marks a 1 x 1 block; a 2 x 2 block has two negative entries
    positive = np.count_nonzero(lu.diagonal()[ipiv > 0].real > 0.0) \
        + np.count_nonzero(ipiv < 0) // 2
    inv, _ = tri(lu, ipiv, overwrite_a=1)
    return inv.diagonal().real.copy(), positive


def psi_step(profile: VarianceProfile, y, lam: SpectralParameter,
             g: OperatorStieltjes) -> OperatorStieltjes:
    """One fixed-point map application: diag[(Lambda - R(g) - Y)^(-1)].

    The output again has Im <= 0 and sup norm at most ||(Im Lambda)^(-1)||.
    Like ``r_map`` it reads the profile row by row.
    """
    w = _variance_map(profile)
    y = _classify_deformation(y, w.shape[0])
    if lam.dim != w.shape[0] or g.dim != w.shape[0]:
        raise ValueError("dimension mismatch between profile, Lambda and g")
    return OperatorStieltjes(_psi_raw(w, lam.diag, g.diag, y))


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
    tames the oscillations close to the real axis.  The iteration runs on
    one value per row class of the model (see ``_Prepared``), which is every
    row when Y is dense.  Diagonal deformations use the entrywise reciprocal
    update; dense ones pay for a full resolvent per step.  A solve that
    stops at ``config.max_iterations`` returns the last iterate it
    evaluated, with that iterate's residual.
    """
    return next(_solve_path(_prepare(profile, y), [lam], config))


def _solve_path(model: _Prepared, lams, config: SolverConfig | None = None):
    """Yield one ``DysonSolution`` for each point of ``lams`` in turn.

    A point is a ``SpectralParameter``, solved as ``solve_dyson`` describes,
    or a float, a real lambda solved by plain iteration.  Each solve starts
    from the previous point's G, the first from ``config.initial``; a real
    lambda needs one.  On the real axis psi is order-preserving (its
    Jacobian |M_ik|^2 W_kj is nonnegative, M = (lambda - R(g) - Y)^(-1)), so
    from G at a point of the same gap the iterates move monotonically to
    G(lambda) and keep the inertia that ``_psi_raw`` reports; inside the
    support they cross a pole of psi.  A real solve iterates on the real
    part of its start and stops at the first iterate whose inertia differs
    from the start's, or whose psi is non-finite: it is then unconverged and
    yields its start unchanged, placing lambda in the support.
    ``max_iterations`` is a backstop there.
    """
    if config is None:
        config = SolverConfig()
    n = model.n
    start = config.initial
    if start is not None and start.dim != n:
        raise ValueError("warm start has wrong dimension")
    for lam in lams:
        # Iterate on the coarsest classes on which Lambda and the start are constant too.
        real = isinstance(lam, float)
        if real:
            if start is None or not math.isfinite(lam):
                raise ValueError("a real lambda must be finite and have a start")
            certified = model.gamma_max_sq == 0.0
            part = model.refined(start.diag)
            lam_c = lam
        else:
            if lam.dim != n:
                raise ValueError(f"Lambda has dimension {lam.dim}, expected {n}")
            # gamma_max^2 ||(Im Lambda)^(-1)||^2 < 1, without squaring a tiny Im Lambda
            certified = math.sqrt(model.gamma_max_sq) < lam.im_min
            part = model.refined(lam.diag) if start is None else model.refined(lam.diag, start.diag)
            lam_c = lam.diag[part.first]
        # Y as the class equations read it: None, one value per class, or the dense matrix
        y_c = part.y if part.y is None or part.y.ndim == 2 else part.y[part.first]
        if model.gamma_max_sq == 0.0:
            # Noise-free model: the equation degenerates to G = diag[(Lambda - Y)^(-1)],
            # which is infinite where a real lambda meets an eigenvalue of Y.
            with np.errstate(divide="ignore"):
                g = _psi_raw(part.w, lam_c, np.zeros(part.sizes.size), y_c, real)
            g = g[0] if real else g
            converged = bool(np.all(np.isfinite(g)))
            residuals = [0.0 if converged else math.inf]
        elif real:
            g = start.diag[part.first].real
            residuals, signs = [], None
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                while len(residuals) < config.max_iterations:
                    psi_g, inertia = _psi_raw(part.w, lam_c, g, y_c, True)
                    residuals.append(float(np.abs(g - psi_g).max()))
                    signs = inertia if signs is None else signs
                    crossed = not np.all(np.isfinite(psi_g)) or np.any(inertia != signs)
                    if crossed or residuals[-1] <= config.tolerance:
                        break
                    g = psi_g
            converged = not crossed and residuals[-1] <= config.tolerance
        else:
            g = -1j / lam_c.imag if start is None else start.diag[part.first]
            # Class c stands for sizes[c] equal rows: weighting its least-squares
            # rows by sqrt(sizes[c]) makes the Anderson step the n-dimensional one.
            weight = np.sqrt(part.sizes)
            alpha = 1.0
            bound = 1.0 / lam_c.imag
            residuals = []
            increase_run = 0
            # The last accepted iterate, its image and its residual, and the
            # differences between consecutive accepted iterates and residuals.
            g_base = psi_base = f_base = None
            res_base = math.inf
            d_g, d_f = [], []
            extrapolated = False
            while True:
                psi_g = _psi_raw(part.w, lam_c, g, y_c)
                if not np.all(np.isfinite(psi_g)):
                    raise DysonDivergenceError(
                        f"fixed-point iterate became non-finite at iteration "
                        f"{len(residuals) + 1} (damping {alpha})")
                f = psi_g - g
                res = float(np.abs(f).max())
                residuals.append(res)
                if res <= config.tolerance or len(residuals) >= config.max_iterations:
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
                    gamma = np.linalg.lstsq(df * weight[:, np.newaxis], f * weight,
                                            rcond=None)[0]
                    cand = g + alpha * f - (dg + alpha * df) @ gamma
                    # the guard: stay in the Stieltjes domain
                    extrapolated = bool(np.all(np.isfinite(cand)) and np.all(cand.imag <= 0.0)
                                        and np.all(np.abs(cand) <= bound))
                g = cand if extrapolated else (1.0 - alpha) * g + alpha * psi_g
            converged = res <= config.tolerance

        if real and not converged:  # the start stays the next point's start
            residual = residuals[0]
        else:
            start, residual = OperatorStieltjes(g[part.labels]), residuals[-1]
        yield DysonSolution(start, iterations=len(residuals), residual=residual,
                            converged=converged, contraction_certified=certified,
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
        if not (math.isfinite(self.gamma_max) and self.gamma_max >= 0.0):
            raise ValueError("gamma_max must be finite and >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError("d must be finite and > 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(self.im_lambda) and self.im_lambda > 0.0):
            raise ValueError("im_lambda must be finite and > 0")

    @property
    def min_im_lambda(self) -> float:
        """The smallest Im(lambda) for which the bounds apply."""
        if self.diagonal_y:
            return self.gamma_max * self.n ** -0.25 * (1.0 - self.delta) ** (-1.0 / 6.0)
        return self.gamma_max * (2.0 / (self.n * (1.0 - self.delta))) ** 0.2

    @property
    def admissible(self) -> bool:
        """Whether Im(lambda) is large enough for the bounds to apply."""
        return bool(self.im_lambda >= self.min_im_lambda)


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
