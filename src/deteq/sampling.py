"""Monte Carlo sampling of profile ensembles and validation statistics.

Hermitian draws follow the GUE convention: diagonal entries are real
standard Gaussians, off-diagonal entries are complex with unit total
variance (real and imaginary parts of variance 1/2 each), everything
scaled by gamma(i, j) / sqrt(N).  Rectangular draws use gamma(i, j)
x_ij / sqrt(M) with the same complex entry convention.  Batches derive one
independent child stream per draw from the batch seed via
numpy.random.SeedSequence.spawn, so draw j is reproducible on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyson import (ConcentrationBound, SolverConfig, SpectralParameter, _apply_r,
                    _prepare, _solve_path, concentration_bound)
from .profiles import VarianceProfile

__all__ = [
    "SampleBatch",
    "sample_gue_profile",
    "sample_rect_gaussian",
    "empirical_spectrum",
    "check_master_equality",
    "validate_concentration",
]


@dataclass(frozen=True)
class SampleBatch:
    """Seeded description of a batch of draws from one ensemble."""

    seed: int
    count: int
    n: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("a sample batch needs count >= 1")
        if self.n < 1:
            raise ValueError("a sample batch needs n >= 1")

    def child_seeds(self):
        return np.random.SeedSequence(self.seed).spawn(self.count)


def _deformation_matrix(y):
    """A classified Y as a term to add to a draw: 0.0 when absent, else a matrix."""
    if y is None:
        return 0.0
    return np.diag(y) if y.ndim == 1 else y


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_gue_profile(profile: VarianceProfile, seed) -> np.ndarray:
    """One Hermitian draw H = (gamma(i, j) x_ij / sqrt(N))_ij.

    The output is exactly Hermitian by construction: the strict upper
    triangle is drawn, mirrored conjugately, and the diagonal is real.
    """
    if profile.mode != "hermitian":
        raise ValueError("sample_gue_profile needs a hermitian-mode profile")
    rng = _rng(seed)
    n = profile.rows
    gamma = np.sqrt(profile.entries)
    scale = 1.0 / np.sqrt(n)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    x_diag = rng.standard_normal(n)
    h = np.zeros((n, n), dtype=np.complex128)
    iu = np.triu_indices(n, 1)
    h[iu] = gamma[iu] * z[iu] * scale
    h = h + h.conj().T
    h[np.diag_indices(n)] = np.diag(gamma) * x_diag * scale
    return h


def sample_rect_gaussian(profile: VarianceProfile, seed) -> np.ndarray:
    """One rectangular draw X = (gamma(i, j) x_ij / sqrt(M))_ij, x_ij complex."""
    if profile.mode != "rectangular":
        raise ValueError("sample_rect_gaussian needs a rectangular-mode profile")
    rng = _rng(seed)
    n, m = profile.rows, profile.cols
    z = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)
    return np.sqrt(profile.entries) * z / np.sqrt(m)


def empirical_spectrum(h: np.ndarray, lam: complex):
    """Eigenvalues of a Hermitian matrix and its empirical Stieltjes trace.

    Returns (g_emp, eigenvalues) with g_emp = mean(1 / (lam - eig)).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("empirical_spectrum needs a square matrix")
    if not np.allclose(h, h.conj().T, atol=1e-10, rtol=0.0):
        raise ValueError("empirical_spectrum needs a Hermitian matrix")
    if complex(lam).imag <= 0.0:
        raise ValueError("spectral parameter needs Im > 0")
    eigs = np.linalg.eigvalsh(h)
    g_emp = complex(np.mean(1.0 / (complex(lam) - eigs)))
    return g_emp, eigs


def check_master_equality(profile: VarianceProfile, y, lam: SpectralParameter,
                          batch: SampleBatch) -> float:
    """Operator-norm deviation in the resolvent identity

        E[X (Lambda - H)^(-1)] = E[R(diag resolvent) (Lambda - H)^(-1)],

    H = X + Y, estimated with ``batch.count`` Monte Carlo draws.  The
    deviation tends to 0 like count^(-1/2); both sides share every draw, so
    the statistic is a pure fluctuation measure.
    """
    model = _prepare(profile, y)
    n = model.n
    if batch.n != n or lam.dim != n:
        raise ValueError("batch, profile and Lambda dimensions disagree")
    y_mat = _deformation_matrix(model.y)
    lam_mat = np.diag(lam.diag)
    lhs = np.zeros((n, n), dtype=np.complex128)
    rhs = np.zeros((n, n), dtype=np.complex128)
    for child in batch.child_seeds():
        x = sample_gue_profile(profile, child)
        resolvent = np.linalg.inv(lam_mat - x - y_mat)
        lhs += x @ resolvent
        rhs += _apply_r(model.w, resolvent.diagonal())[:, np.newaxis] * resolvent
    return float(np.linalg.norm((lhs - rhs) / batch.count, 2))


def validate_concentration(profile: VarianceProfile, y, lam: complex, d: float,
                           delta: float, draws: int, seed: int,
                           config: SolverConfig | None = None) -> dict:
    """Empirical check of the trace-level concentration bound.

    Draws ``draws`` matrices, compares each empirical Stieltjes trace at
    ``lam`` with the Dyson value, and reports the fraction of draws whose
    deviation stays within epsilon_tilde.
    """
    model = _prepare(profile, y)
    n = model.n
    params = ConcentrationBound(gamma_max=np.sqrt(model.gamma_max_sq),
                                delta=delta, d=d, n=n, im_lambda=complex(lam).imag,
                                diagonal_y=model.y is None or model.y.ndim == 1)
    bound = concentration_bound(params)
    sol = next(_solve_path(model, [SpectralParameter.scalar(lam, n)], config))
    if not sol.converged:
        raise RuntimeError("Dyson solve did not converge; cannot validate")
    g_det = complex(sol.g_square.diag.mean())

    y_add = _deformation_matrix(model.y)
    batch = SampleBatch(seed=seed, count=draws, n=n)
    deviations = np.empty(draws)
    for j, child in enumerate(batch.child_seeds()):
        h = sample_gue_profile(profile, child) + y_add
        g_emp, _ = empirical_spectrum(h, lam)
        deviations[j] = abs(g_emp - g_det)
    passes = int(np.sum(deviations <= bound.epsilon_tilde))
    return {
        "draws": draws,
        "passes": passes,
        "pass_rate": passes / draws,
        "epsilon_tilde": bound.epsilon_tilde,
        "admissible": bound.admissible,
        "max_deviation": float(deviations.max()),
    }
