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
costs one O(n^3) SVD of w; building a basis costs O(n^4) time and memory,
so a basis of more than config.BASIS_MAX_ENTRIES matrix entries is refused
(ValidationError) before it is allocated.

isotropy_report never builds a basis.  It certifies the blocks and sweeps
their membership residuals _SWEEP_ENTRIES matrix entries at a time through
two chunk buffers allocated once: O(n^4) time, O(n^2) memory (a traced peak
of about 1 MiB at n=32).  The velocity of each chunk is formed as whole
matrices, so the residual costs a few passes over each chunk and no index
gathers, and has the bits of the pairings taken one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ValidationError
from .linalg import as_operator, dagger, fro_scale, frobenius, matrix_unit
from .states import (
    PositiveFunctional,
    SpectralSplit,
    StateDensity,
    spectral_split,
    validate_state,
)
from .tangent import alpha_velocity, phi_velocity

_SWEEP_ENTRIES = 1 << 14  # matrix entries per chunk of the residual sweep (256 KiB)


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
    n^2 pairings per matrix.  The strict upper triangle is read through a
    boolean mask, which selects it in the row-major order of
    np.triu_indices(n, 1).
    """
    n = t.shape[-1]
    off = t[..., ~np.tri(n, dtype=bool)]
    out = np.empty(t.shape[:-2] + (n * n,))
    out[..., :n] = np.diagonal(t, axis1=-2, axis2=-1).real
    out[..., n::2] = 2.0 * off.real
    out[..., n + 1::2] = 2.0 * off.imag
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


@dataclass(frozen=True)
class RealBasis:
    """Real-linearly independent matrices spanning a subspace.

    The vectors have unit norm when the adapted eigenbasis is unitary.
    ``gram_floor`` is the certified lower bound on the smallest eigenvalue of
    their real Gram matrix Re Tr(a†b) that the independence check accepted.
    """

    vectors: tuple
    gram_floor: float

    @property
    def dim_real(self) -> int:
        return len(self.vectors)


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
    low, high = (idx[:, None] for idx in np.nonzero(~np.tri(k, dtype=bool)))
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
        border = frobenius(trace.real) / np.sqrt(sv.size)
        spread = max(1.0 - low, high - 1.0)
        low, high = 1.0 - border - spread, 1.0 + border + spread
        defect = float(np.max(np.abs(1.0 - sv**2)))
    lower = max(sv[-1] ** 2 * np.sqrt(max(low, 0.0)) - defect, 0.0) ** 2
    upper = (sv[0] ** 2 * np.sqrt(high) + defect) ** 2
    return config.check("basis is not linearly independent: Gram eigenvalue bound", lower,
                        config.GRAM_MIN_EIG_RTOL, max(1.0, upper), ValidationError, floor=True)


def _outer_stack(b: _Blocks, w: np.ndarray) -> np.ndarray:
    """Stack of the rotated blocks c1 w_j1 w_l1† + c2 w_j2 w_l2†."""
    lt, rt = w.T, np.conjugate(w.T)
    out = (b.c1[:, None] * lt[b.j1])[:, :, None] * rt[b.l1][:, None, :]
    out += (b.c2[:, None] * lt[b.j2])[:, :, None] * rt[b.l2][:, None, :]
    return out


def _rotated_basis(split: SpectralSplit, b: _Blocks, identity: bool = False) -> RealBasis:
    n = split.ambient_dim
    if b.dim * n * n > config.BASIS_MAX_ENTRIES:
        raise ValidationError(
            f"explicit basis of {b.dim} matrices of dimension {n} has {b.dim * n * n} "
            f"entries, above the limit of {config.BASIS_MAX_ENTRIES} (isotropy_report "
            "needs no basis)")
    w = split.full_basis()
    floor = _certify(b, np.linalg.svd(w, compute_uv=False), identity)
    stack = _outer_stack(b, w)
    stack.flags.writeable = False
    vectors = tuple(stack)
    if identity:
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
    velocities _SWEEP_ENTRIES matrix entries at a time through two chunk
    buffers allocated once (O(n^2) memory).

    For v = c w_j w_l† and y = h w, h the Hermitian part of base, the
    congruence velocity is t + t† with t = c w_j y_l†, plus the second unit
    of the block unless the whole chunk has c2 = 0; the normalized action
    subtracts 2 Re Tr(t) times base.  t + t† is formed as whole matrices: its
    diagonal is 2 Re t and its off-diagonal is exactly Hermitian, as is base
    with its upper triangle mirrored, so with the diagonal halved the largest
    pairing of hermitian_components is 2 max(|Re|, |Im|) over the chunk.
    Each step is exact up to factors of two, so the residual has the bits of
    the pairings taken one by one (unless an intermediate is subnormal).
    """
    n = w.shape[0]
    y = ((base + dagger(base)) / 2.0) @ w
    lt, rt = w.T, np.conjugate(y.T)
    step = max(1, min(b.dim, _SWEEP_ENTRIES // w.size))
    t = np.empty((step, n, n), dtype=complex)
    v = np.empty_like(t)
    t_real, v_real = (a.view(float).reshape(step, n, n, 2) for a in (t, v))
    t_diag, v_diag = (a.reshape(step, n * n)[:, :: n + 1] for a in (t, v))
    if normalized:
        mirror = np.triu(base, 1)
        mirror += dagger(mirror)
        np.fill_diagonal(mirror, base.diagonal().real)
        mirror = mirror.view(float).reshape(n, n, 2)
    single = b.c2 == 0
    worst = 0.0
    for start in range(0, b.dim, step):
        stop = min(start + step, b.dim)
        m = stop - start
        tc, vc = t[:m], v[:m]
        left = b.c1[start:stop, None] * lt[b.j1[start:stop]]
        np.multiply(left[:, :, None], rt[b.l1[start:stop]][:, None, :], out=tc)
        if not single[start:stop].all():
            left = b.c2[start:stop, None] * lt[b.j2[start:stop]]
            np.multiply(left[:, :, None], rt[b.l2[start:stop]][:, None, :], out=vc)
            tc += vc
        np.conjugate(tc.transpose(0, 2, 1), out=vc)
        vc += tc
        if normalized:
            trace = t_diag[:m].sum(axis=-1).real * 2.0
            # t is spent: it holds trace * base, one float product per entry
            np.einsum("b,pqc->bpqc", trace, mirror, out=t_real[:m])
            v_real[:m] -= t_real[:m]
        v_diag[:m] *= 0.5
        worst = max(worst, 2.0 * float(v_real[:m].max()), -2.0 * float(v_real[:m].min()))
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
