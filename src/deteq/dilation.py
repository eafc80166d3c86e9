"""Hermitian dilation of rectangular models.

An N x M rectangular model X + Z (noise plus low-rank signal) embeds into
an (N + M)-dimensional Hermitian one via D(A) = [[0, A], [A*, 0]], whose
spectrum is the symmetrized singular values of A padded with M - N zeros.
The variance profile rescales by (N + M) / M so that the dilated model is
again of the form "profile / dimension", and a rank-k spike U Theta V*
dilates to W diag(Theta, -Theta) W* with orthonormal W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import VarianceProfile, _hold_array

__all__ = [
    "RectangularSpikes",
    "RectangularModel",
    "DilatedModel",
    "hermitian_dilation",
    "dilate_model",
]

_ORTHO_TOL = 1e-10


def _hold_frame(owner, name: str, what: str) -> np.ndarray:
    """Hold the field ``name`` of ``owner`` as a complex matrix with orthonormal columns."""
    mat = _hold_array(owner, name, getattr(owner, name), np.complex128, ndmin=2)
    gram = mat.conj().T @ mat
    if not np.allclose(gram, np.eye(mat.shape[1]), atol=_ORTHO_TOL, rtol=0.0):
        raise ValueError(f"{what} columns must be orthonormal (tolerance {_ORTHO_TOL})")
    return mat


@dataclass(frozen=True, eq=False)
class RectangularSpikes:
    """Rank-k signal U diag(theta) V* with orthonormal U, V and theta > 0."""

    u: np.ndarray
    theta: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = _hold_frame(self, "u", "spike u")
        v = _hold_frame(self, "v", "spike v")
        theta = _hold_array(self, "theta", self.theta, np.float64, ndmin=1)
        if theta.shape != (u.shape[1],) or v.shape[1] != theta.size:
            raise ValueError("u, v and theta must agree on the spike count")
        if not np.all(np.isfinite(theta) & (theta > 0.0)):
            raise ValueError("rectangular spike strengths must be finite and > 0")

    @property
    def k(self) -> int:
        return self.theta.size


@dataclass(frozen=True, eq=False)
class RectangularModel:
    """Rectangular noise-plus-signal model: profile noise, optional Y and spikes."""

    profile: VarianceProfile
    y: np.ndarray | None = None
    spikes: RectangularSpikes | None = None

    def __post_init__(self) -> None:
        if self.profile.mode != "rectangular":
            raise ValueError("rectangular models need a rectangular-mode profile")
        n, m = self.profile.rows, self.profile.cols
        if self.y is not None:
            y = _hold_array(self, "y", self.y, np.complex128)
            if y.shape != (n, m):
                raise ValueError(f"deformation has shape {y.shape}, expected ({n}, {m})")
            if not np.all(np.isfinite(y)):
                raise ValueError("deformation must be finite")
        if self.spikes is not None and (self.spikes.u.shape[0] != n
                                        or self.spikes.v.shape[0] != m):
            raise ValueError("spike vectors do not match the profile shape")

    @property
    def n(self) -> int:
        return self.profile.rows

    @property
    def m(self) -> int:
        return self.profile.cols


@dataclass(frozen=True, eq=False)
class DilatedModel:
    """Hermitian image of a rectangular model.

    ``profile`` is the (N + M)-dimensional hermitian-mode profile
    (N + M) / M * D(Gamma), ``y`` the dilated deformation (None when the
    rectangular model has none), ``w`` the orthonormal dilated spike frame
    and ``theta_signed`` the signed spike strengths (+theta, -theta).
    """

    profile: VarianceProfile
    y: np.ndarray | None
    w: np.ndarray
    theta_signed: np.ndarray
    n: int
    m: int

    def __post_init__(self) -> None:
        size = self.n + self.m
        if self.profile.mode != "hermitian" or self.profile.rows != size:
            raise ValueError("dilated profile must be hermitian of dimension n + m")
        if self.y is not None:
            y = _hold_array(self, "y", self.y, np.complex128)
            if y.shape != (size, size):
                raise ValueError("dilated deformation must be (n + m) square")
            if not np.allclose(y, y.conj().T, atol=1e-12, rtol=0.0):
                raise ValueError("dilated deformation must be Hermitian")
            if np.any(y[: self.n, : self.n] != 0.0) or np.any(y[self.n:, self.n:] != 0.0):
                raise ValueError("dilated deformation must have zero diagonal blocks")
        w = _hold_frame(self, "w", "dilated spikes")
        theta = _hold_array(self, "theta_signed", self.theta_signed, np.float64, ndmin=1)
        if w.shape[0] != size or theta.shape != (w.shape[1],):
            raise ValueError("dilated spike frame does not match theta_signed")


def hermitian_dilation(a: np.ndarray) -> np.ndarray:
    """D(A) = [[0, A], [A*, 0]], real when A is; eigenvalues are +-singular values of A."""
    a = np.atleast_2d(np.asarray(a))
    n, m = a.shape
    out = np.zeros((n + m, n + m), dtype=np.result_type(a.dtype, np.float64))
    out[:n, n:] = a
    out[n:, :n] = a.conj().T
    return out


def dilate_model(model: RectangularModel) -> DilatedModel:
    """Dilate profile, deformation and spikes of a rectangular model.

    The profile becomes (N + M) / M * D(Gamma), which keeps the variance
    map of the dilated Hermitian ensemble equal to the degree map of
    D(Gamma) / M.  Each spike (u_j, theta_j, v_j) becomes a pair of
    dilated vectors stacking (-u_j, -v_j) / sqrt(2) and (u_j, -v_j) / sqrt(2),
    carrying strengths +theta_j and -theta_j respectively.
    """
    n, m = model.n, model.m
    size = n + m
    gamma = hermitian_dilation(model.profile.entries)
    gamma *= size / m
    y = None if model.y is None else hermitian_dilation(model.y)

    if model.spikes is not None:
        k = model.spikes.k
        u, v = model.spikes.u, model.spikes.v
        w = np.zeros((size, 2 * k), dtype=np.complex128)
        w[:n, :k] = -u
        w[:n, k:] = u
        w[n:, :k] = -v
        w[n:, k:] = -v
        w /= np.sqrt(2.0)
        theta_signed = np.concatenate([model.spikes.theta, -model.spikes.theta])
    else:
        w = np.zeros((size, 0), dtype=np.complex128)
        theta_signed = np.zeros(0)
    for built in (gamma, w, theta_signed) if y is None else (gamma, y, w, theta_signed):
        built.setflags(write=False)  # the models take them over without a copy

    return DilatedModel(profile=VarianceProfile(gamma, "hermitian"), y=y, w=w,
                        theta_signed=theta_signed, n=n, m=m)

