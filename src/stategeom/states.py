"""Positive functionals, states and probability vectors.

A normal positive functional on the n x n matrix algebra is represented by a
Hermitian PSD matrix through the trace pairing xi(a) = Tr(xi a); a state is
the unit-trace case, and a classical state is a probability vector (embedded
as a diagonal density matrix).  This module owns validation, the spectral
split into support and kernel, orbit-class labels and spectrum generators
for truncation experiments.

Values are immutable after validation (array buffers are frozen), so they
are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotPSD, TraceError, ValidationError, ZeroFunctional
from .linalg import dagger, fro_scale, gamma, require_hermitian, sorted_eigh


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=a.dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PositiveFunctional:
    """A nonzero Hermitian PSD matrix acting by xi(a) = Tr(xi a)."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class StateDensity(PositiveFunctional):
    """A positive functional with unit trace (a density matrix)."""


@dataclass(frozen=True)
class ProbabilityVector:
    """A point of the probability simplex (a classical state)."""

    p: np.ndarray

    @property
    def m(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class SpectralSplit:
    """Support/kernel decomposition of a positive functional.

    ``support_basis`` holds the eigenvectors of the strictly positive
    eigenvalues (sorted non-increasing) and ``kernel_basis`` the rest; the
    horizontal concatenation is unitary.
    """

    eigenvalues: np.ndarray
    support_basis: np.ndarray
    kernel_basis: np.ndarray

    @property
    def support_dim(self) -> int:
        return self.support_basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.support_basis.shape[0]

    @property
    def corank(self) -> int:
        return self.kernel_basis.shape[1]

    def full_basis(self) -> np.ndarray:
        return np.hstack([self.support_basis, self.kernel_basis])

    def reconstruct(self) -> np.ndarray:
        e = self.support_basis
        return (e * self.eigenvalues) @ dagger(e)


@dataclass(frozen=True)
class OrbitClass:
    """Rank/corank class of a positive functional, as computed from its spectrum.

    At finite ambient dimension only the finite-rank class occurs, so ``tag``
    is "FiniteRank(rank)".
    """

    rank: int
    corank: int
    tag: str


def default_rank_tol(m: np.ndarray) -> float:
    return config.scaled(config.RANK_RTOL) * fro_scale(m)


def validate_positive(m) -> PositiveFunctional:
    """Validate a matrix as a nonzero positive functional.

    Raises NotHermitian, NotPSD or ZeroFunctional.
    """
    mat, scale = require_hermitian(m, "functional")
    w = np.linalg.eigvalsh((mat + dagger(mat)) / 2.0)
    config.check("-(smallest eigenvalue)", -w[0], config.PSD_CLAMP_RTOL, scale, NotPSD)
    config.check("largest eigenvalue", w[-1], config.PSD_CLAMP_RTOL, scale, ZeroFunctional,
                 floor=True)
    return PositiveFunctional(matrix=_frozen(mat))


def validate_state(m) -> StateDensity:
    """Validate a matrix as a density matrix (positive, unit trace)."""
    return unit_trace(validate_positive(m).matrix)


def unit_trace(frozen: np.ndarray) -> StateDensity:
    """``validate_state``'s trace test on a frozen matrix that passed (or is
    certified to pass) ``validate_positive``."""
    trace = float(np.trace(frozen).real)
    # the slack is the rounding of the tested sum of n terms, gamma_(n+1)
    config.check("|trace - 1|", abs(trace - 1.0), config.TRACE_ATOL, 1.0, TraceError,
                 slack=gamma(frozen.shape[0] + 1))
    return StateDensity(matrix=frozen)


def validate_probability(p) -> ProbabilityVector:
    """Validate a real vector as a point of the probability simplex."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValidationError(f"probability vector must be 1-d and nonempty, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("probability vector contains non-finite entries")
    if np.any(v < 0.0):
        raise NotPSD(f"probability vector has negative entry {v.min():.3e}")
    config.check("|sum - 1|", abs(v.sum() - 1.0), config.PROBABILITY_ATOL, 1.0, TraceError,
                 slack=gamma(v.shape[0] + 1))
    return ProbabilityVector(p=_frozen(v))


def _as_functional(rho) -> PositiveFunctional:
    if isinstance(rho, PositiveFunctional):
        return rho
    return validate_positive(rho)


def spectral_split(rho) -> SpectralSplit:
    """Split the ambient space into the support and kernel of ``rho``:
    eigenvalues at or below 1e-12*(1+||rho||_F) count as kernel."""
    mat = _as_functional(rho).matrix
    dec = sorted_eigh(mat)
    k = int(np.count_nonzero(dec.eigenvalues > default_rank_tol(mat)))
    if k == 0:
        raise ZeroFunctional("functional has empty support at the given tolerance")
    return SpectralSplit(
        eigenvalues=_frozen(dec.eigenvalues[:k]),
        support_basis=_frozen(dec.eigenvectors[:, :k]),
        kernel_basis=_frozen(dec.eigenvectors[:, k:]),
    )


def classify_orbit(rho) -> OrbitClass:
    """Rank/corank orbit label of a positive functional."""
    split = spectral_split(rho)
    k = split.support_dim
    return OrbitClass(rank=k, corank=split.corank, tag=f"FiniteRank({k})")


def embed_classical(p) -> StateDensity:
    """Diagonal embedding of a probability vector as a density matrix."""
    prob = p if isinstance(p, ProbabilityVector) else validate_probability(p)
    return validate_state(np.diag(prob.p.astype(complex)))


def gibbs_spectrum(n: int, ratio: float) -> np.ndarray:
    """Normalized geometric spectrum c*(1, r, ..., r^(n-1)), descending.

    Built by cumulative products so successive entry ratios reproduce ``r``
    exactly when r is exactly representable (for example r = 0.5).
    """
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must lie in (0, 1), got {ratio}")
    raw = np.concatenate([[1.0], np.full(n - 1, ratio)]).cumprod()
    return raw / raw.sum()


def gibbs_family(n: int, ratio: float) -> StateDensity:
    """Full-rank diagonal state with geometric eigenvalue decay."""
    return validate_state(np.diag(gibbs_spectrum(n, ratio).astype(complex)))


def maximally_mixed(n: int) -> StateDensity:
    """The tracial state I/n on the full matrix algebra."""
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    return validate_state(np.eye(n, dtype=complex) / n)
