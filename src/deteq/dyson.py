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
from numpy.linalg import _umath_linalg

from ._lapack import _hermitian_inverse_diagonal
from .profiles import VarianceProfile, _hold_array

__all__ = [
    "SpectralParameter",
    "OperatorStieltjes",
    "SolverConfig",
    "DysonSolution",
    "DysonDivergenceError",
    "ConcentrationBound",
    "r_map",
    "psi_step",
    "solve_dyson",
    "omega_square",
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
        diag = _hold_array(self, "diag", self.diag, np.complex128)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("spectral parameter must be a non-empty vector")
        if not np.all(np.isfinite(diag)):
            raise ValueError("spectral parameter must be finite")
        if np.any(diag.imag <= 0.0):
            raise ValueError("spectral parameter needs Im > 0 in every entry")

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


@dataclass(frozen=True, eq=False)
class OperatorStieltjes:
    """Diagonal candidate/solution G with Im G <= 0 entrywise."""

    diag: np.ndarray

    def __post_init__(self) -> None:
        diag = _hold_array(self, "diag", self.diag, np.complex128)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("operator Stieltjes data must be a non-empty vector")
        if not np.all(np.isfinite(diag)):
            raise ValueError("operator Stieltjes data must be finite")
        if np.any(diag.imag > 0.0):
            raise ValueError("operator Stieltjes transforms have Im <= 0")

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-12
    max_iterations: int = 10000
    initial: OperatorStieltjes | None = None

    def __post_init__(self) -> None:
        # True would read as a tolerance of 1.0 and as a cap of one step
        if isinstance(self.tolerance, (bool, np.bool_)) or not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance: must be finite and > 0")
        try:
            cap = operator.index(self.max_iterations)
        except TypeError:
            cap = 0
        if cap < 1 or isinstance(self.max_iterations, bool):
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
    first[c] over class d) |d| / N.  ``y`` is the form of Y that
    ``_classify_deformation`` returned, and ``class_y`` is Y on the classes,
    built once.  A dense Y makes every row a class.
    """

    n: int
    labels: np.ndarray
    first: np.ndarray
    sizes: np.ndarray
    w: np.ndarray
    y: _DiagonalY | _DenseY
    gamma_max_sq: float
    entries: np.ndarray
    class_y: _DiagonalY | _DenseY = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_y", self.y.on_classes(self.first))

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
    return _classes(profile.entries, [y.keys], y, profile.gamma_max_sq)


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

    Returns a ``_DiagonalY`` when Y is absent (the zero diagonal) or diagonal
    (given as a vector or as a matrix with zero off-diagonal part), and a
    ``_DenseY`` holding the n x n Hermitian matrix otherwise.  Raises
    ValueError for a wrong shape, a non-finite entry, a complex diagonal or a
    non-Hermitian matrix.  No other code looks at the form of Y: it asks the
    object returned here.
    """
    if y is None:
        return _DiagonalY(np.zeros(n))
    y = np.asarray(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("deformation must be finite")
    if y.ndim == 1:
        if y.shape != (n,):
            raise ValueError(f"diagonal deformation has length {y.shape[0]}, expected {n}")
        if np.iscomplexobj(y) and np.any(y.imag != 0.0):
            raise ValueError("diagonal deformation must be real")
        return _DiagonalY(y.real)
    if y.shape != (n, n):
        raise ValueError(f"deformation has shape {y.shape}, expected ({n}, {n})")
    if not np.allclose(y, np.conj(y.T), rtol=0.0, atol=1e-12):
        raise ValueError("deformation matrix must be Hermitian")
    if not np.any(y - np.diag(np.diag(y))):
        return _DiagonalY(np.diag(y).real)
    return _DenseY(y)


@dataclass(frozen=True, eq=False)
class _DiagonalY:
    """Y = diag(values), one real value per row.

    An absent Y is the zero diagonal: x - 0.0 is x in IEEE arithmetic,
    signed zeros included, so every result is the one computed without Y.
    Each member answers a question that the solver, ``outliers`` or
    ``sampling`` asks of Y; ``_DenseY`` answers the same ones.
    """

    values: np.ndarray
    dense = False

    def __post_init__(self) -> None:
        _hold_array(self, "values", self.values, np.float64)

    @property
    def array(self):
        """Y as a model reports it: the diagonal."""
        return self.values

    @property
    def keys(self):
        """The row keys that the row classes refine."""
        return self.values

    def on_classes(self, first):
        """Y on the class values, each class read at its first row."""
        return _DiagonalY(self.values[first])

    def psi(self, shift, inertia=False):
        """diag[(diag(shift) - Y)^(-1)].

        With ``inertia`` (a real shift) it returns (psi, inertia, top, M): the
        sign pattern of psi, whether diag(shift) - Y is positive definite,
        and M = (diag(shift) - Y)^(-1), held as its diagonal psi.
        """
        psi = 1.0 / (shift - self.values)
        if not inertia:
            return psi
        positive = psi > 0.0
        return psi, positive, positive.all(), psi

    def jacobian_apply(self, w, m, x):
        """J x = |M|^2 W x, for the M that ``psi`` returned."""
        return m * m * (w @ x)

    def core(self, u, w, lam, g):
        """U* (Omega - Y)^(-1) U at the fixed point G, given on all rows: U* diag(G) U."""
        return (u.conj().T * g[np.newaxis, :]) @ u

    @property
    def norm(self):
        return float(np.abs(self.values).max())

    def combine(self, a, op):
        """a = op(a, Y) in place, for op np.add or np.subtract, on one matrix or
        on each of a stack of them; Y is zero off the diagonal."""
        diagonal = np.einsum("...ii->...i", a)  # a writeable view
        op(diagonal, self.values, out=diagonal)


@dataclass(frozen=True, eq=False)
class _DenseY:
    """A Hermitian Y with a nonzero off-diagonal part, held as its matrix.

    It couples every row, so each row is its own class.  ``psi`` reports as
    inertia the count of positive eigenvalues of diag(shift) - Y, which one
    Bunch-Kaufman factorization gives together with M.
    """

    matrix: np.ndarray
    dense = True

    def __post_init__(self) -> None:  # its dtype picks the real or complex kernel
        _hold_array(self, "matrix", self.matrix, np.result_type(self.matrix, np.float64))

    @property
    def array(self):
        return self.matrix

    @property
    def keys(self):
        return np.arange(self.matrix.shape[0])

    def on_classes(self, first):
        return self

    def psi(self, shift, inertia=False):
        a = np.diag(shift) - self.matrix
        if not inertia:
            return np.linalg.inv(a).diagonal().copy()
        diag, positive, inv = _hermitian_inverse_diagonal(a)
        return diag, positive, positive == a.shape[0], inv

    def jacobian_apply(self, w, m, x):
        return np.abs(m) ** 2 @ (w @ x)

    def core(self, u, w, lam, g):
        omega = lam - _apply_r(w, g)  # every row is a class, so w is Gamma / N
        return u.conj().T @ np.linalg.solve(np.diag(omega) - self.matrix, u)

    @property
    def norm(self):
        return float(np.linalg.norm(self.matrix, 2))

    def combine(self, a, op):
        op(a, self.matrix, out=a)


def _psi_raw(w, lam_diag, g, y, inertia=False):
    """psi(g) = diag[(lambda - R(g) - Y)^(-1)] on class values, for Y on the classes.

    With ``inertia`` (real lambda, so the matrix is Hermitian) it returns
    the quadruple (psi, inertia, top, M) a real-axis solve reads, as the
    deformation's ``psi`` describes it.
    """
    return y.psi(lam_diag - _apply_r(w, g), inertia)


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

    A point is a ``SpectralParameter``, solved by ``_anderson_steps``, or a
    float, a real lambda, solved by ``_real_steps``.  Each solve starts from
    the previous point's G, the first from ``config.initial``; a real lambda
    needs one.  An unconverged real solve yields its start unchanged.
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
        if model.gamma_max_sq == 0.0:
            # Noise-free model: the equation degenerates to G = diag[(Lambda - Y)^(-1)],
            # which is infinite where a real lambda meets an eigenvalue of Y.
            with np.errstate(divide="ignore"):
                g = _psi_raw(part.w, lam_c, np.zeros(part.sizes.size), part.class_y, real)
            g = g[0] if real else g
            converged = bool(np.all(np.isfinite(g)))
            residuals = [0.0 if converged else math.inf]
        elif real:
            g, residuals, converged = _real_steps(part, lam_c, start.diag[part.first].real, config)
        else:
            g = -1j / lam_c.imag if start is None else start.diag[part.first]
            g, residuals, converged = _anderson_steps(part, lam_c, g, config)

        if real and not converged:  # the start stays the next point's start
            residual = residuals[0]
        else:
            start, residual = OperatorStieltjes(g[part.labels]), residuals[-1]
        yield DysonSolution(start, iterations=len(residuals), residual=residual,
                            converged=converged, contraction_certified=certified,
                            residual_history=np.asarray(residuals))


def _real_steps(part: _Prepared, lam: float, g: np.ndarray, config: SolverConfig):
    """(g, residuals, converged) of psi's iteration at a real lambda from a real ``g``.

    On the real axis psi is order-preserving: its Jacobian J = |M_ik|^2 W_kj,
    with M = (lambda - R(g) - Y)^(-1), is nonnegative.  So from G at a point
    of the same gap the iterates move monotonically to G(lambda) and keep the
    inertia that ``_psi_raw`` reports; inside the support they cross a pole
    of psi.  The solve stops at the first iterate whose inertia differs from
    the first one's, or whose psi is non-finite: it is then unconverged.

    The step is g <- psi(g), except at a subsolution, b = psi(g) - g >= 0,
    in the top gap, where lambda - R(g) - Y is positive definite and psi is
    also convex.  There it is the two-step Collatz-Wielandt extrapolation
    g <- g + (b + J b) / (1 - mu), with mu = min over b_i > 0 of
    (J^2 b)_i / b_i.  Since J^2 b >= mu b, the step is at least the plain
    step b and at most the Newton step (I - J)^(-1) b, which does not pass
    G(lambda), and the new g is again a subsolution: the iterates rise to
    G(lambda) without passing it or a pole.  mu >= 1 shows rho(J)^2 >= 1,
    which no g below a stable G(lambda) has (Alt, Erdos & Kruger,
    arXiv:1804.07752), so the solve stops unconverged there, as at a pole
    crossing.  For one class, and for the two classes of a dilated constant
    profile, J^2 = rho^2 I and the step is Newton's.  Next to a square-root
    edge, where rho -> 1 and plain steps stall, it takes a few steps.
    ``max_iterations`` is a backstop.
    """
    residuals, signs = [], None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while len(residuals) < config.max_iterations:
            psi_g, inertia, top, m = _psi_raw(part.w, lam, g, part.class_y, True)
            b = psi_g - g
            residuals.append(float(np.abs(b).max()))
            signs = inertia if signs is None else signs
            inside = not np.all(np.isfinite(psi_g)) or np.any(inertia != signs)
            if inside or residuals[-1] <= config.tolerance:
                break
            if not (top and np.all(b >= 0.0)):
                g = psi_g
                continue
            # a subsolution in the top gap: the two-step extrapolation
            u = part.class_y.jacobian_apply(part.w, m, b)
            v = part.class_y.jacobian_apply(part.w, m, u)
            rising = b > 0.0
            mu = float(np.min(v[rising] / b[rising]))
            if mu >= 1.0:  # rho(J)^2 >= mu: no fixed point lies above g
                inside = True
                break
            # a NaN mu (J b overflowed next to a pole) leaves the plain step
            g = g + (b + u) / (1.0 - mu) if mu < 1.0 else psi_g
    return g, residuals, not inside and residuals[-1] <= config.tolerance


def _anderson_steps(part: _Prepared, lam: np.ndarray, g: np.ndarray, config: SolverConfig):
    """(g, residuals, converged) of the iteration that ``solve_dyson``
    describes, at a complex Lambda from ``g``; g is the last iterate evaluated.

    The differences live in two r x ``_ANDERSON_DEPTH`` buffers allocated
    once per solve, oldest column first, and the least squares is the
    ``zgelsd`` solve of ``np.linalg.lstsq(a, b, rcond=None)``, called without
    its wrapper: each step does the floating-point operations of the plain
    loop in ``tests/reference.py``, in its order, so G keeps its bits.
    """
    w, class_y, tolerance, cap = part.w, part.class_y, config.tolerance, config.max_iterations
    # Class c stands for sizes[c] equal rows: weighting its least-squares
    # rows by sqrt(sizes[c]) makes the Anderson step the n-dimensional one.
    weight = np.sqrt(part.sizes)
    row_weight, rows = weight[:, np.newaxis], weight.size
    # lstsq's rcond=None cuts singular values off at eps max(rows, columns)
    eps = np.finfo(np.float64).eps
    alpha = 1.0
    bound = 1.0 / lam.imag
    residuals = []
    increase_run = 0
    # The last accepted iterate, its image and its residual, and the
    # differences between consecutive accepted iterates and residuals, the
    # last ``depth`` of them in the first columns of d_g and d_f.
    g_base = psi_base = f_base = None
    res_base = math.inf
    d_g = np.empty((rows, _ANDERSON_DEPTH), dtype=np.complex128)
    d_f = np.empty_like(d_g)
    depth = 0
    extrapolated = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            psi_g = _psi_raw(w, lam, g, class_y)
            f = psi_g - g
            res = float(np.abs(f).max())
            # a non-finite psi(g) makes the residual non-finite
            if not math.isfinite(res) and not np.isfinite(psi_g).all():
                raise DysonDivergenceError(
                    f"fixed-point iterate became non-finite at iteration "
                    f"{len(residuals) + 1} (damping {alpha})")
            residuals.append(res)
            if res <= tolerance or len(residuals) >= cap:
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
                if depth == _ANDERSON_DEPTH:  # drop the oldest difference
                    d_g[:, :-1] = d_g[:, 1:]
                    d_f[:, :-1] = d_f[:, 1:]
                else:
                    depth += 1
                np.subtract(g, g_base, out=d_g[:, depth - 1])
                np.subtract(f, f_base, out=d_f[:, depth - 1])
            g_base, psi_base, f_base, res_base = g, psi_g, f, res
            extrapolated = False
            if depth:
                dg, df = d_g[:, :depth], d_f[:, :depth]
                gamma = _umath_linalg.lstsq(df * row_weight, (f * weight)[:, np.newaxis],
                                            eps * max(rows, depth), signature="DDd->Ddid")[0][:, 0]
                cand = g + alpha * f - (dg + alpha * df) @ gamma
                # the guard: stay in the Stieltjes domain
                extrapolated = bool(np.isfinite(cand).all() and (cand.imag <= 0.0).all()
                                    and (np.abs(cand) <= bound).all())
                if not extrapolated and np.isnan(gamma).any():
                    # lstsq's contract: zgelsd's SVD did not converge
                    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
            g = cand if extrapolated else (1.0 - alpha) * g + alpha * psi_g
    return g, residuals, res <= tolerance


def omega_square(profile: VarianceProfile, solution: DysonSolution,
                 lam: SpectralParameter) -> np.ndarray:
    """Subordination point Omega(Lambda) = Lambda - R(G(Lambda))."""
    if not solution.converged:
        raise ValueError("omega_square needs a converged Dyson solution")
    return lam.diag - r_map(profile, solution.g_square.diag)


@dataclass(frozen=True)
class ConcentrationBound:
    """Deterministic error radii of the Dyson approximation at finite N.

    ``gamma_max`` is the largest entrywise standard deviation, ``delta`` the
    failure-probability exponent (the bounds hold outside probability
    ~ exp(-c N^delta-ish terms), see ``epsilon_tilde``), ``d`` the
    spectral-domain parameter, ``n`` the dimension, and ``im_lambda`` the
    distance of the scalar spectral parameter to the real axis.
    ``diagonal_y`` selects the sharper bounds available when the
    deformation is diagonal.  ``epsilon`` and ``epsilon_tilde`` are the
    radii, which apply where ``admissible`` holds.
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

    # Each radius rounds as written: `validate` reports epsilon_tilde to the
    # last bit, and reordering its operations moves that bit.
    @property
    def epsilon(self) -> float:
        """Radius bounding the sup norm of E[diag resolvent] - G at the operator level."""
        gam, s, n = self.gamma_max, 1.0 / self.im_lambda, self.n
        return math.sqrt(2.0) * gam * math.sqrt(self.d * math.log(n) / n) * s * s + self._tail

    @property
    def epsilon_tilde(self) -> float:
        """Radius of the normalized-trace deviation |tr (Lambda - H)^(-1) / N - tr G / N|.

        It holds with probability 1 - 4 exp(-(d - 2) log N) - 2 exp(-delta
        N^(1/5) ...) style corrections.
        """
        gam, s, n = self.gamma_max, 1.0 / self.im_lambda, self.n
        return math.sqrt(2.0) * gam * math.sqrt(2.0 * self.d * math.log(n)) * s * s / n + self._tail

    @property
    def _tail(self) -> float:
        """The second summand of both radii; a diagonal deformation improves it
        by a factor gamma_max / (Im lambda sqrt(N)) / 2."""
        gam, s, n = self.gamma_max, 1.0 / self.im_lambda, self.n
        prefactor = 1.0 + gam * gam * s * s / self.delta
        if self.diagonal_y:
            return prefactor * gam ** 4 * s ** 5 / n ** 1.5
        return prefactor * 2.0 * gam ** 3 * s ** 4 / n
