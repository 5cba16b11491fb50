"""Isotropy Lie algebras of both actions at a functional or state.

A generator a fixes a positive functional xi under the congruence flow iff
xi(a†b + ba) = 0 for every b; in an eigenbasis adapted to the support/kernel
split this pins the blocks of a: kernel-kernel and support-kernel entries are
free, kernel-support entries vanish, and support-block entries pair up as
a_kl = -(p_k/p_l) * conj(a_lk).  The normalized action adds exactly one real
direction, the identity.  This module builds explicit real bases for the
isotropy algebra and its complement, tests membership, and evaluates orbit
dimensions.

Every basis element is a unit-norm block B = c1 E[j1,l1] + c2 E[j2,l2] in
the adapted eigenbasis w, rotated back through w E[j,l] w† = w_j w_l†, so a
whole basis is one O(n^4) stack of outer products.  Blocks share matrix
units only with their real/imaginary partner, so the block Gram matrix
G = [Re Tr(B_a† B_b)] is 1x1- and 2x2-block-diagonal and its extreme
eigenvalues cost O(dim).  Linear independence is certified without forming
the Gram matrix of the rotated vectors:

- ||w X w†||_F >= sigma_min(w)^2 ||X||_F, so the rotated Gram matrix has
  lambda_min >= sigma_min(w)^4 lambda_min(G) and lambda_max <=
  sigma_max(w)^4 lambda_max(G);
- for the normalized action the unrotated identity I/sqrt(n) borders G with
  c_a = Re Tr(B_a)/sqrt(n).  With G = I the bordered eigenvalues are 1 and
  1 -+ ||c||; by Weyl they move by at most ||G - I||_2.  Because the identity
  is not rotated, the square root of the bound is lowered by ||I - w w†||_2.

A basis is rejected (ValidationError) when the bound is at most
GRAM_MIN_EIG_RTOL times max(1, the bound on lambda_max).  The certificate
costs one O(n^3) SVD of w; building a basis costs O(n^4) time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ValidationError
from .linalg import as_operator, dagger, fro_scale, matrix_unit
from .states import (
    PositiveFunctional,
    SpectralSplit,
    StateDensity,
    spectral_split,
    validate_state,
)
from .tangent import alpha_velocity, phi_velocity

_SWEEP_ENTRIES = 1 << 16  # matrix entries per chunk of the residual sweep (1 MiB)

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
    order as hermitian_basis.  A stack of shape (..., n, n) gives one row of
    n^2 pairings per matrix.
    """
    rows, cols = np.triu_indices(t.shape[-1], k=1)
    return _pairings(np.diagonal(t, axis1=-2, axis2=-1).real, t[..., rows, cols])


def _pairings(diagonal: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The diagonal pairings, then 2 Re and 2 Im of each upper off-diagonal entry."""
    k = diagonal.shape[-1]
    out = np.empty(diagonal.shape[:-1] + (k + 2 * off.shape[-1],))
    out[..., :k] = diagonal
    out[..., k::2] = 2.0 * off.real
    out[..., k + 1::2] = 2.0 * off.imag
    return out


def _membership(values: np.ndarray, a: np.ndarray, base: np.ndarray) -> tuple[bool, float]:
    residual = float(np.max(np.abs(values))) if values.size else 0.0
    tol = config.scaled(config.MEMBERSHIP_RTOL) * fro_scale(base) * fro_scale(a)
    return residual <= tol, residual


def isotropy_membership_alpha(a, xi: PositiveFunctional) -> tuple[bool, float]:
    """Whether xi(a†b + ba) vanishes over the Hermitian basis, with the residual."""
    gen = as_operator(a, "generator", xi.n)
    values = hermitian_components(alpha_velocity(xi.matrix, gen))
    return _membership(values, gen, xi.matrix)


def isotropy_membership_phi(a, rho: StateDensity) -> tuple[bool, float]:
    """Membership in the normalized-action isotropy: the covariance-corrected sweep."""
    gen = as_operator(a, "generator", rho.n)
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
    """Real-linearly independent matrices spanning a subspace.

    The vectors have unit norm when the adapted eigenbasis is unitary.
    ``gram_floor`` is the certified lower bound on the smallest eigenvalue of
    ``gram()`` that the independence check accepted.
    """

    vectors: tuple
    gram_floor: float

    @property
    def dim_real(self) -> int:
        return len(self.vectors)

    def gram(self) -> np.ndarray:
        return real_gram(self.vectors)


@dataclass(frozen=True)
class _Blocks:
    """Unit-norm blocks c1 E[j1,l1] + c2 E[j2,l2] in the adapted eigenbasis.

    The first ``singles`` blocks stand alone; the rest come in consecutive
    real/imaginary partners on the same units.  Blocks of different groups
    share no unit, so the block Gram matrix is 1x1- and 2x2-block-diagonal.
    """

    j1: np.ndarray
    l1: np.ndarray
    c1: np.ndarray
    j2: np.ndarray
    l2: np.ndarray
    c2: np.ndarray
    singles: int

    @property
    def dim(self) -> int:
        return self.c1.size


def _from_sections(singles: int, sections) -> _Blocks:
    """Blocks from sections of fields (j1, l1, c1, j2, l2, c2).

    The fields of a section broadcast to (count, partners); partners become
    consecutive blocks.
    """
    columns = zip(*(np.broadcast_arrays(*section) for section in sections))
    return _Blocks(*(np.concatenate([c.ravel() for c in col]) for col in columns),
                   singles=singles)


def _blocks(split: SpectralSplit) -> tuple[_Blocks, _Blocks]:
    """Blocks of the congruence isotropy algebra and of its complement.

    Isotropy: i E[j,j] on the support; per support pair l < m the partners
    E[m,l] - r E[l,m] and i E[m,l] + i r E[l,m] with r = p_l/p_m; then E, iE
    on every unit (j, l) with l in the kernel, row-major.  Complement: E[j,j]
    on the support; the Hermitian pairs E[l,m] + E[m,l], i E[l,m] - i E[m,l];
    then E, iE on the kernel-to-support units (j in kernel, l in support).
    """
    n, k = split.ambient_dim, split.support_dim
    diag = np.arange(k)[:, None]
    low, high = (idx[:, None] for idx in np.triu_indices(k, k=1))
    ratio = split.eigenvalues[low] / split.eigenvalues[high]
    norm = np.hypot(1.0, ratio)
    half = np.sqrt(0.5)
    partners = np.array([1.0, 1j])

    def grid(rows, cols):
        j, l = np.meshgrid(rows, cols, indexing="ij")
        return j.reshape(-1, 1), l.reshape(-1, 1)

    free_j, free_l = grid(np.arange(n), np.arange(k, n))
    into_j, into_l = grid(np.arange(k, n), np.arange(k))
    isotropy = _from_sections(k, [
        (diag, diag, 1j, diag, diag, 0j),
        (high, low, partners / norm, low, high, np.array([-1.0, 1j]) * ratio / norm),
        (free_j, free_l, partners, free_j, free_l, 0j),
    ])
    complement = _from_sections(k, [
        (diag, diag, 1.0 + 0j, diag, diag, 0j),
        (low, high, partners * half, high, low, np.array([1.0, -1j]) * half),
        (into_j, into_l, partners, into_j, into_l, 0j),
    ])
    return isotropy, complement


def _overlap(b: _Blocks, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(B_x† B_y) elementwise over index arrays x and y."""
    terms = ((b.j1, b.l1, b.c1), (b.j2, b.l2, b.c2))
    total = np.zeros(x.size, dtype=complex)
    for jx, lx, cx in terms:
        for jy, ly, cy in terms:
            same = (jx[x] == jy[y]) & (lx[x] == ly[y])
            total += np.where(same, np.conjugate(cx[x]) * cy[y], 0.0)
    return total.real


def _gram_range(b: _Blocks) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the block Gram matrix, group by group."""
    solo = np.arange(b.singles)
    first = np.arange(b.singles, b.dim, 2)
    second = first + 1
    single = _overlap(b, solo, solo)
    p, s = _overlap(b, first, first), _overlap(b, second, second)
    mean = (p + s) / 2.0
    radius = np.hypot((p - s) / 2.0, _overlap(b, first, second))
    return (float(np.concatenate([single, mean - radius]).min()),
            float(np.concatenate([single, mean + radius]).max()))


def _certify(b: _Blocks, sv: np.ndarray, identity: bool = False) -> float:
    """Certified lower bound on the smallest Gram eigenvalue of the blocks rotated
    by w (followed by I/sqrt(n) when ``identity``), from the singular values
    ``sv`` of w in descending order; raises ValidationError when it does not
    clear the independence threshold."""
    low, high = _gram_range(b)
    defect = 0.0
    if identity:
        trace = np.where(b.j1 == b.l1, b.c1, 0.0) + np.where(b.j2 == b.l2, b.c2, 0.0)
        border = float(np.linalg.norm(trace.real)) / np.sqrt(sv.size)
        spread = max(1.0 - low, high - 1.0)
        low, high = 1.0 - border - spread, 1.0 + border + spread
        defect = float(np.max(np.abs(1.0 - sv**2)))
    lower = max(sv[-1] ** 2 * np.sqrt(max(low, 0.0)) - defect, 0.0) ** 2
    upper = (sv[0] ** 2 * np.sqrt(high) + defect) ** 2
    return config.check("basis is not linearly independent: Gram eigenvalue bound", lower,
                        config.GRAM_MIN_EIG_RTOL, max(1.0, upper), ValidationError, floor=True)


def _outer_stack(b: _Blocks, left: np.ndarray, right: np.ndarray, part=slice(None)) -> np.ndarray:
    """Stack of c1 left_j1 right_l1† + c2 left_j2 right_l2† over the blocks in
    ``part``, where left_j and right_l are columns."""
    lt, rt = left.T, np.conjugate(right.T)
    out = (b.c1[part, None] * lt[b.j1[part]])[:, :, None] * rt[b.l1[part]][:, None, :]
    out += (b.c2[part, None] * lt[b.j2[part]])[:, :, None] * rt[b.l2[part]][:, None, :]
    return out


def _rotated_basis(split: SpectralSplit, b: _Blocks, identity: bool = False) -> RealBasis:
    w = split.full_basis()
    floor = _certify(b, np.linalg.svd(w, compute_uv=False), identity)
    stack = _outer_stack(b, w, w)
    stack.flags.writeable = False
    vectors = tuple(stack)
    if identity:
        n = split.ambient_dim
        eye = np.eye(n, dtype=complex) / np.sqrt(n)
        eye.flags.writeable = False
        vectors += (eye,)
    return RealBasis(vectors=vectors, gram_floor=floor)


def isotropy_basis_alpha(split: SpectralSplit) -> RealBasis:
    """Explicit real basis of the congruence-action isotropy algebra.

    Built blockwise in the adapted eigenbasis and rotated back; dimension is
    k^2 + 2k(n-k) + 2(n-k)^2 for support dimension k.  The support-block
    pairing uses the actual eigenvalue ratios, which degenerates continuously
    to the skew-Hermitian rule on subspaces with equal eigenvalues.
    """
    return _rotated_basis(split, _blocks(split)[0])


def complement_basis_alpha(split: SpectralSplit) -> RealBasis:
    """Algebraic complement of the isotropy algebra: support-block Hermitian
    plus arbitrary kernel-to-support entries; dimension k^2 + 2k(n-k)."""
    return _rotated_basis(split, _blocks(split)[1])


def isotropy_basis_phi(split: SpectralSplit) -> RealBasis:
    """Isotropy basis of the normalized action: the congruence one plus the identity."""
    return _rotated_basis(split, _blocks(split)[0], identity=True)


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


def _sweep_residual(b: _Blocks, w: np.ndarray, base: np.ndarray, normalized: bool) -> float:
    """Worst membership residual of the rotated blocks at ``base``, sweeping the
    velocities _SWEEP_ENTRIES matrix entries at a time (O(n^2) memory).

    For v = c w_j w_l† and y = h w, h the Hermitian part of base, the
    congruence velocity is c w_j y_l† + conj(c) y_l w_j†; the normalized
    action subtracts its trace times base.  The pairings of the velocity
    t + t† are read straight from t, in the order of hermitian_components.
    """
    y = ((base + dagger(base)) / 2.0) @ w
    rows, cols = np.triu_indices(w.shape[0], k=1)
    step = max(1, _SWEEP_ENTRIES // w.size)
    worst = 0.0
    for start in range(0, b.dim, step):
        t = _outer_stack(b, w, y, slice(start, start + step))
        values = _pairings(2.0 * np.diagonal(t, axis1=1, axis2=2).real,
                           t[:, rows, cols] + np.conjugate(t[:, cols, rows]))
        if normalized:
            trace = 2.0 * np.trace(t, axis1=1, axis2=2).real
            values -= trace[:, None] * hermitian_components(base)
        worst = max(worst, float(np.max(np.abs(values))))
    return worst


def isotropy_report(xi: PositiveFunctional) -> IsotropyReport:
    """Compute both isotropy bases at xi and report dimensions and residuals.

    The congruence isotropy is scale invariant, so a non-normalized
    functional is paired with its normalized state for the phi residuals.
    The bases are certified but never formed: the membership sweep works on
    their blocks, one bounded chunk at a time.
    """
    split = spectral_split(xi)
    isotropy, complement = _blocks(split)
    w = split.full_basis()
    sv = np.linalg.svd(w, compute_uv=False)
    _certify(complement, sv)
    # the congruence Gram matrix is a principal submatrix of the bordered one
    _certify(isotropy, sv, identity=True)
    state = validate_state(xi.matrix / np.trace(xi.matrix).real)
    n = split.ambient_dim
    residual = max(
        _sweep_residual(isotropy, w, xi.matrix, normalized=False),
        _sweep_residual(isotropy, w, state.matrix, normalized=True),
        isotropy_membership_phi(np.eye(n) / np.sqrt(n), state)[1],
    )
    return IsotropyReport(
        ambient_dim=2 * n * n,
        support_dim=split.support_dim,
        dim_alpha=isotropy.dim,
        dim_phi=isotropy.dim + 1,
        dim_complement=complement.dim,
        max_residual=residual,
    )
