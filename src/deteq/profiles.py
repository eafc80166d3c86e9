"""Variance profiles for Gaussian random matrices.

A profile stores the entrywise variances gamma^2(i, j) of a random matrix
whose entry (i, j) is gamma(i, j) x_ij / sqrt(N) (Hermitian mode) or
gamma(i, j) x_ij / sqrt(M) (rectangular mode).  Profiles are immutable;
every generator that draws randomness takes an explicit seed and uses
numpy's PCG64 generator, so profiles are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VarianceProfile",
    "constant_profile",
    "piecewise_profile",
    "bernoulli_profile",
    "doubly_stochastic_profile",
    "normalize_profile",
    "write_profile_csv",
    "read_profile_csv",
]

_MODES = ("hermitian", "rectangular")


def _hold_array(owner, name: str, value, dtype, ndmin: int = 0) -> np.ndarray:
    """Set the array field ``name`` of the frozen ``owner`` to ``value``, and return it.

    Every value type of deteq takes in its arrays here.  An ndarray of ``dtype``, with at
    least ``ndmin`` dimensions, that owns its data and is read-only is taken over as it is;
    anything else, a read-only view included, is copied (``ndmin`` prepends axes as in
    ``np.array``), so no later write by the caller reaches what the object checked.  The
    stored array is read-only, and so is every array the object hands out.
    """
    if not (type(value) is np.ndarray and value.dtype == dtype and value.ndim >= ndmin
            and value.flags.owndata and not value.flags.writeable):
        value = np.array(value, dtype=dtype, ndmin=ndmin)
        value.setflags(write=False)
    object.__setattr__(owner, name, value)
    return value


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Matrix of entrywise variances gamma^2(i, j), all finite and >= 0.

    ``mode`` is "hermitian" for square symmetric profiles attached to
    self-adjoint ensembles, "rectangular" otherwise.  ``entries`` is a
    read-only float64 array, taken in by ``_hold_array``'s rule.
    """

    entries: np.ndarray
    mode: str = "rectangular"

    def __post_init__(self) -> None:
        entries = _hold_array(self, "entries", self.entries, np.float64)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("profile entries must form a non-empty 2-d array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("profile entries must be finite")
        if np.any(entries < 0.0):
            raise ValueError("profile entries are variances and must be >= 0")
        if self.mode not in _MODES:
            raise ValueError(f"unknown profile mode {self.mode!r}")
        if self.mode == "hermitian":
            if entries.shape[0] != entries.shape[1]:
                raise ValueError("hermitian profiles must be square")
            if not np.array_equal(entries, entries.T):
                raise ValueError("hermitian profiles must be symmetric")

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def gamma_max_sq(self) -> float:
        """Largest entrywise variance, the gamma_max^2 of every bound."""
        return float(self.entries.max())

    def mean_variance(self) -> float:
        """Average variance sum gamma^2(i, j) / (rows * cols)."""
        return float(self.entries.sum() / (self.rows * self.cols))


def constant_profile(n: int, m: int, value: float = 1.0,
                     hermitian: bool = False) -> VarianceProfile:
    """Profile with gamma^2 identically equal to ``value``."""
    _check_shape(n, m)
    entries = np.full((n, m), float(value))
    return VarianceProfile(entries, "hermitian" if hermitian else "rectangular")


def piecewise_profile(n: int, m: int, gamma1_sq: float, gamma2_sq: float,
                      hermitian: bool = False) -> VarianceProfile:
    """Two-level block profile.

    The top-left n/4 x m/4 and bottom-right 3n/4 x 3m/4 blocks carry
    gamma1_sq; the two off blocks carry gamma2_sq.  ``n`` and ``m`` must be
    divisible by 4.
    """
    _check_shape(n, m)
    if n % 4 != 0 or m % 4 != 0:
        raise ValueError("piecewise profiles need n and m divisible by 4")
    entries = np.full((n, m), float(gamma2_sq))
    entries[: n // 4, : m // 4] = gamma1_sq
    entries[n // 4:, m // 4:] = gamma1_sq
    return VarianceProfile(entries, "hermitian" if hermitian else "rectangular")


def bernoulli_profile(n: int, m: int, p: float, seed) -> VarianceProfile:
    """Sparse profile: each entry is 0 with probability 1 - p.

    All surviving entries share one variance, fixed after sampling so that
    the profile average sum gamma^2 / (n m) equals 1.  With k nonzero
    entries that common variance is n m / k.
    """
    _check_shape(n, m)
    if not 0.0 < p <= 1.0:
        raise ValueError("bernoulli probability p must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < p
    count = int(mask.sum())
    if count == 0:
        raise ValueError("bernoulli draw produced an all-zero profile; "
                         "increase p or change the seed")
    entries = np.where(mask, n * m / count, 0.0)
    return VarianceProfile(entries, "rectangular")


def doubly_stochastic_profile(n: int, k_perms: int, seed) -> VarianceProfile:
    """Profile with Gamma / n an average of ``k_perms`` permutation matrices.

    The resulting Gamma / n is doubly stochastic, and the profile satisfies
    the average-variance normalization exactly: every row and column of the
    entries sums to n.
    """
    if n < 1:
        raise ValueError("profile needs n >= 1")
    if k_perms < 1:
        raise ValueError("need at least one permutation")
    rng = np.random.default_rng(seed)
    counts = np.zeros((n, n))
    rows = np.arange(n)
    for _ in range(k_perms):
        counts[rows, rng.permutation(n)] += 1.0
    return VarianceProfile(counts * (n / k_perms), "rectangular")


def normalize_profile(profile: VarianceProfile, target: float = 1.0) -> VarianceProfile:
    """Rescale entries so that sum gamma^2(i, j) / (rows * cols) == target."""
    if target <= 0.0:
        raise ValueError("normalization target must be > 0")
    mean = profile.mean_variance()
    if mean == 0.0:
        raise ValueError("cannot normalize an all-zero profile")
    return VarianceProfile(profile.entries * (target / mean), profile.mode)


def write_profile_csv(profile: VarianceProfile, path) -> None:
    """Dense row-major CSV with a 'rows,cols,mode' header line."""
    lines = ["rows,cols,mode", f"{profile.rows},{profile.cols},{profile.mode}"]
    for row in profile.entries:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile_csv(path) -> VarianceProfile:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 3 or lines[0] != "rows,cols,mode":
        raise ValueError(f"{path}: not a profile CSV (missing rows,cols,mode header)")
    rows_s, cols_s, mode = lines[1].split(",")
    rows, cols = int(rows_s), int(cols_s)
    if len(lines) != 2 + rows:
        raise ValueError(f"{path}: expected {rows} data rows, found {len(lines) - 2}")
    entries = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    if entries.shape != (rows, cols):
        raise ValueError(f"{path}: data block does not match declared shape")
    return VarianceProfile(entries, mode)


def _check_shape(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError("profile needs n >= 1 and m >= 1")
