"""Isotropy Lie algebras of both actions at a functional or state.

A generator a fixes a positive functional xi under the congruence flow iff
xi(a†b + ba) = 0 for every b; in an eigenbasis adapted to the support/kernel
split this pins the blocks of a: kernel-kernel and support-kernel entries are
free, kernel-support entries vanish, and support-block entries pair up as
a_kl = -(p_k/p_l) * conj(a_lk).  The normalized action adds exactly one real
direction, the identity.  This module builds explicit real bases for the
isotropy algebra and its complement, tests membership, and evaluates orbit
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ValidationError
from .linalg import as_operator, dagger, frobenius, fro_scale, matrix_unit
from .states import (
    PositiveFunctional,
    SpectralSplit,
    StateDensity,
    spectral_split,
    validate_state,
)
from .tangent import alpha_velocity, phi_velocity

__all__ = [
    "RealBasis",
    "IsotropyReport",
    "hermitian_basis",
    "hermitian_components",
    "isotropy_membership_alpha",
    "isotropy_membership_phi",
    "isotropy_basis_alpha",
    "complement_basis_alpha",
    "isotropy_basis_phi",
    "isotropy_dimension_alpha",
    "orbit_dimension",
    "real_gram",
    "isotropy_report",
]


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Canonical Hermitian basis: diagonal units, symmetric and antisymmetric pairs.

    Spans the algebra over C, so sweeping it is enough for the (complex
    linear in b) isotropy constraints.
    """
    basis = [matrix_unit(n, j, j) for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            upper, lower = matrix_unit(n, j, k), matrix_unit(n, k, j)
            basis.append(upper + lower)
            basis.append(1j * upper - 1j * lower)
    return basis


def hermitian_components(t: np.ndarray) -> np.ndarray:
    """Pairings Tr(t b_i) of a Hermitian matrix against hermitian_basis(n).

    For Hermitian t these are the diagonal entries and, per off-diagonal
    pair, twice the real and imaginary parts, all real numbers, in the same
    order as hermitian_basis.
    """
    n = t.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    off = t[rows, cols]
    pairs = np.empty(2 * off.size)
    pairs[0::2] = 2.0 * off.real
    pairs[1::2] = 2.0 * off.imag
    return np.concatenate([np.diagonal(t).real, pairs])


def _membership(values: np.ndarray, a: np.ndarray, base: np.ndarray) -> tuple[bool, float]:
    residual = float(np.max(np.abs(values))) if values.size else 0.0
    tol = config.scaled(config.MEMBERSHIP_RTOL) * fro_scale(base) * fro_scale(a)
    return residual <= tol, residual


def isotropy_membership_alpha(a, xi: PositiveFunctional) -> tuple[bool, float]:
    """Whether xi(a†b + ba) vanishes over the Hermitian basis, with the residual."""
    gen = as_operator(a, "generator")
    values = hermitian_components(alpha_velocity(xi.matrix, gen))
    return _membership(values, gen, xi.matrix)


def isotropy_membership_phi(a, rho: StateDensity) -> tuple[bool, float]:
    """Membership in the normalized-action isotropy: the covariance-corrected sweep."""
    gen = as_operator(a, "generator")
    values = hermitian_components(phi_velocity(rho.matrix, gen))
    return _membership(values, gen, rho.matrix)


def real_gram(vectors) -> np.ndarray:
    """Gram matrix of Re Tr(a†b), the real inner product of the realification.

    Tr(a†b) is the entrywise inner product of the flattened matrices.
    """
    flat = np.array([np.ravel(v) for v in vectors])
    return (np.conjugate(flat) @ flat.T).real


@dataclass(frozen=True)
class RealBasis:
    """Real-linearly independent unit-norm matrices spanning a subspace."""

    vectors: tuple

    @property
    def dim_real(self) -> int:
        return len(self.vectors)

    def gram(self) -> np.ndarray:
        return real_gram(self.vectors)


def _real_basis(vectors: list[np.ndarray]) -> RealBasis:
    normalized = []
    for v in vectors:
        nrm = frobenius(v)
        if nrm == 0.0:
            raise ValidationError("basis candidate is zero")
        w = v / nrm
        w.flags.writeable = False
        normalized.append(w)
    g = real_gram(normalized)
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] <= config.scaled(config.GRAM_MIN_EIG_RTOL) * max(1.0, eigs[-1]):
        raise ValidationError(
            f"basis is not linearly independent: Gram eigenvalue {eigs[0]:.3e}"
        )
    return RealBasis(vectors=tuple(normalized))


def isotropy_basis_alpha(split: SpectralSplit) -> RealBasis:
    """Explicit real basis of the congruence-action isotropy algebra.

    Built blockwise in the adapted eigenbasis and rotated back; dimension is
    k^2 + 2k(n-k) + 2(n-k)^2 for support dimension k.  The support-block
    pairing uses the actual eigenvalue ratios, which degenerates continuously
    to the skew-Hermitian rule on subspaces with equal eigenvalues.
    """
    n = split.ambient_dim
    k = split.support_dim
    p = split.eigenvalues
    w = split.full_basis()
    blocks: list[np.ndarray] = []

    for j in range(k):
        blocks.append(1j * matrix_unit(n, j, j))
    for l in range(k):
        for m in range(l + 1, k):
            ratio = p[l] / p[m]
            blocks.append(matrix_unit(n, m, l) - ratio * matrix_unit(n, l, m))
            blocks.append(1j * matrix_unit(n, m, l) + 1j * ratio * matrix_unit(n, l, m))
    for j in range(k):
        for l in range(k, n):
            blocks.append(matrix_unit(n, j, l))
            blocks.append(1j * matrix_unit(n, j, l))
    for j in range(k, n):
        for l in range(k, n):
            blocks.append(matrix_unit(n, j, l))
            blocks.append(1j * matrix_unit(n, j, l))

    return _real_basis([w @ b @ dagger(w) for b in blocks])


def complement_basis_alpha(split: SpectralSplit) -> RealBasis:
    """Algebraic complement of the isotropy algebra: support-block Hermitian
    plus arbitrary kernel-to-support entries; dimension k^2 + 2k(n-k)."""
    n = split.ambient_dim
    k = split.support_dim
    w = split.full_basis()
    blocks: list[np.ndarray] = []

    for j in range(k):
        blocks.append(matrix_unit(n, j, j))
    for l in range(k):
        for m in range(l + 1, k):
            blocks.append(matrix_unit(n, l, m) + matrix_unit(n, m, l))
            blocks.append(1j * matrix_unit(n, l, m) - 1j * matrix_unit(n, m, l))
    for j in range(k, n):
        for l in range(k):
            blocks.append(matrix_unit(n, j, l))
            blocks.append(1j * matrix_unit(n, j, l))

    return _real_basis([w @ b @ dagger(w) for b in blocks])


def isotropy_basis_phi(split: SpectralSplit) -> RealBasis:
    """Isotropy basis of the normalized action: the congruence one plus the identity."""
    base = isotropy_basis_alpha(split)
    n = split.ambient_dim
    return _real_basis(list(base.vectors) + [np.eye(n, dtype=complex)])


def isotropy_dimension_alpha(k: int, n: int) -> int:
    """Real dimension k^2 + 2(n-k)^2 + 2k(n-k) of the congruence isotropy."""
    if not 1 <= k <= n:
        raise ValidationError(f"support dimension must lie in [1, {n}], got {k}")
    return k * k + 2 * (n - k) ** 2 + 2 * k * (n - k)


def orbit_dimension(split: SpectralSplit, action: str) -> int:
    """Orbit dimension 2n^2 - dim(isotropy) for the requested action."""
    n = split.ambient_dim
    dim_alpha = isotropy_dimension_alpha(split.support_dim, n)
    if action == "alpha":
        return 2 * n * n - dim_alpha
    if action == "phi":
        return 2 * n * n - (dim_alpha + 1)
    raise ValidationError(f"unknown action {action!r}, expected 'alpha' or 'phi'")


@dataclass(frozen=True)
class IsotropyReport:
    """Dimension identities and worst membership residual at one base point."""

    ambient_dim: int
    support_dim: int
    dim_alpha: int
    dim_phi: int
    dim_complement: int
    max_residual: float


def isotropy_report(xi: PositiveFunctional) -> IsotropyReport:
    """Compute both isotropy bases at xi and report dimensions and residuals.

    The congruence isotropy is scale invariant, so a non-normalized
    functional is paired with its normalized state for the phi residuals.
    """
    split = spectral_split(xi)
    basis_a = isotropy_basis_alpha(split)
    basis_c = complement_basis_alpha(split)
    basis_p = isotropy_basis_phi(split)
    state = validate_state(xi.matrix / np.trace(xi.matrix).real)

    residual = 0.0
    for v in basis_a.vectors:
        residual = max(residual, isotropy_membership_alpha(v, xi)[1])
    for v in basis_p.vectors:
        residual = max(residual, isotropy_membership_phi(v, state)[1])

    n = split.ambient_dim
    return IsotropyReport(
        ambient_dim=2 * n * n,
        support_dim=split.support_dim,
        dim_alpha=basis_a.dim_real,
        dim_phi=basis_p.dim_real,
        dim_complement=basis_c.dim_real,
        max_residual=residual,
    )
