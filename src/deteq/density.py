"""Spectral density curves from the Dyson fixed point.

The scalar Stieltjes transform g(lambda) = tr G(lambda I) / N evaluated at
lambda = t + i eta gives the eta-smoothed spectral density
f(t) = -Im g(t + i eta) / pi, the convolution of the limiting measure with
the Cauchy kernel eta / (pi (t^2 + eta^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyson import (OperatorStieltjes, SolverConfig, SpectralParameter, _prepare,
                    _solve_path)
from .profiles import VarianceProfile

__all__ = [
    "DensityCurve",
    "stieltjes_trace",
    "density_curve",
    "sv_density_correction",
    "write_density_csv",
]


@dataclass(eq=False)
class DensityCurve:
    """Sampled density values on a real grid, plus solve metadata."""

    grid: np.ndarray
    values: np.ndarray
    eta: float
    converged: np.ndarray
    tolerance: float

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.converged = np.asarray(self.converged, dtype=bool)
        if self.grid.ndim != 1:
            raise ValueError("density grid must be one-dimensional")
        if self.values.shape != self.grid.shape or self.converged.shape != self.grid.shape:
            raise ValueError("grid, values and convergence flags must share a shape")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and > 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")
        if np.any(self.values < -1e-12):
            raise ValueError("density values must be >= -1e-12")

    def mass(self) -> float:
        """Trapezoid-rule integral of the curve over its grid."""
        return float(np.trapezoid(self.values, self.grid))


def stieltjes_trace(g: OperatorStieltjes) -> complex:
    """Normalized trace tr G / N of a diagonal operator Stieltjes transform."""
    return complex(g.diag.mean())


def density_curve(profile: VarianceProfile, y, grid, eta: float = 0.01,
                  config: SolverConfig | None = None) -> DensityCurve:
    """Smoothed density f(t) = -Im g(t + i eta) / pi over a real grid.

    The points are solved in grid order, each warm-started from the
    solution at its neighbor, so a fine grid costs few iterations per point.
    """
    if config is None:
        config = SolverConfig()
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("grid must be a non-empty vector of finite points")
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError("eta must be finite and > 0")
    model = _prepare(profile, y)
    lams = (SpectralParameter.scalar(t + 1j * eta, model.n) for t in grid)
    values = np.empty(grid.shape)
    flags = np.empty(grid.shape, dtype=bool)
    for i, sol in enumerate(_solve_path(model, lams, config)):
        values[i] = -stieltjes_trace(sol.g_square).imag / math.pi
        flags[i] = sol.converged
    return DensityCurve(grid=grid, values=values, eta=eta, converged=flags,
                        tolerance=config.tolerance)


def sv_density_correction(raw: DensityCurve, n: int, m: int) -> DensityCurve:
    """Singular-value density from the density of a dilated N x M model.

    The dilation spectrum carries the symmetrized singular values together
    with M - N extra zeros, so the smoothed curve contains a Cauchy bump of
    mass (M - N) / (M + N) at the origin.  Removing it and rescaling gives

        f_sv(t) = 2 / (1 - q) * (f(t) - q * eta / (pi (t^2 + eta^2))),

    with q = (M - N) / (M + N), a probability density on t >= 0 up to
    smoothing tails.
    """
    if n > m:
        raise ValueError("dilated models need n <= m")
    if np.any(raw.grid < 0.0):
        raise ValueError("singular-value grids live on t >= 0")
    q = (m - n) / (m + n)
    # eta / (t^2 + eta^2) as (eta / h) / h, h = hypot(t, eta): eta^2 may underflow
    h = np.hypot(raw.grid, raw.eta)
    atom = q / math.pi * (raw.eta / h) / h
    values = (raw.values - atom) * (2.0 / (1.0 - q))
    # The subtraction is exact in expectation but float noise can leave
    # tiny negative values near the origin; clip those at the invariant.
    values = np.maximum(values, -1e-12)
    return DensityCurve(grid=raw.grid, values=values, eta=raw.eta,
                        converged=raw.converged, tolerance=raw.tolerance)


def write_density_csv(curve: DensityCurve, path) -> None:
    lines = ["t,density"]
    for t, v in zip(curve.grid, curve.values):
        lines.append(f"{t:.17g},{v:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
