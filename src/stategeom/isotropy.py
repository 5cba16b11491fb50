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
whole basis is one O(n^4) stack of outer products, sized by the closed-form
dimension (isotropy_dimension_alpha, or 2n^2 less it for the complement; the
normalized action's identity I/sqrt(n) takes one more, last slot) and written
section by section from ``_sections`` by ``_outer_stack``, in slices of at most
_SLICE_ENTRIES entries, so a build peaks at about the stack plus one slice.
hermitian_basis is the same writer's stack at w = I.  The block Gram matrix
G = [Re Tr(B_a† B_b)] is diagonal by construction (see ``_certify``), so its
extreme eigenvalues are the extreme coefficient norms |c1|^2 + |c2|^2.
Linear independence is certified without forming the Gram matrix of the
rotated vectors:

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
(ValidationError) from that dimension, before its stack is allocated or any part
of the layout is built; the refusal counts every matrix a builder returns, the
identity included.

isotropy_report never builds a basis or sweeps it, nor any per-block array: it
reduces the block layout of ``_sections`` section by section in closed form.
Its max_residual is a certified upper bound on the membership residual of every
isotropy basis element under both actions, as a floating-point sweep of the
blocks computes it (_residual_bound): one O(n^3) product with w, O(n^2) memory,
and at most 21 times the swept maximum on the seeded inputs of the tests.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import config
from .actions import alpha_velocity, phi_velocity
from .errors import ValidationError
from .linalg import (as_operator, dagger, fro_scale, gamma, hermitian_part, in_range,
                     require_dimension)
from .states import (PositiveFunctional, SpectralSplit, StateDensity, scale_of, spectral_split,
                     validate_positive, validate_state)


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Canonical Hermitian basis: diagonal units, symmetric and antisymmetric pairs.

    Spans the algebra over C, so sweeping it is enough for the (complex
    linear in b) isotropy constraints.  Laid out in the terms of ``_sections``
    (E[j,j], then per pair j < k the partners E[j,k] + E[k,j] and
    i E[j,k] - i E[k,j]) and written by ``_outer_stack`` with w = I: the n^2
    matrices are views of one stack, refused, as the rotated bases are, above
    config.BASIS_MAX_ENTRIES entries before it is allocated.
    """
    n = require_dimension(n)
    stack = _basis_stack(n * n, n)
    diag = np.arange(n)[:, None]
    low, high = (idx[:, None] for idx in np.nonzero(~np.tri(n, dtype=bool)))
    sections = [(diag, diag, 1.0 + 0j, diag, diag, 0j),
                (low, high, np.array([1.0, 1j]), high, low, np.array([1.0, -1j]))]
    return list(_outer_stack(sections, np.eye(n, dtype=complex), stack))


def hermitian_components(t: np.ndarray) -> np.ndarray:
    """Pairings Tr(t b_i) of a Hermitian matrix against hermitian_basis(n).

    For Hermitian t these are the diagonal entries and, per off-diagonal
    pair, twice the real and imaginary parts, all real numbers, in the same
    order as hermitian_basis.  A stack of shape (..., n, n) gives one row of
    n^2 pairings per matrix.  The strict upper triangle is read through the
    boolean mask i < j, which selects it in the row-major order of
    np.triu_indices(n, 1).
    """
    n = t.shape[-1]
    off = t[..., np.arange(n)[:, None] < np.arange(n)]
    out = np.empty(t.shape[:-2] + (n * n,))
    out[..., :n] = t.diagonal(axis1=-2, axis2=-1).real
    out[..., n::2] = 2.0 * off.real
    out[..., n + 1::2] = 2.0 * off.imag
    return out


def _membership(velocity, validate, a, value) -> tuple[bool, float]:
    """Whether the pairings of velocity(base, a) with the Hermitian basis vanish, with
    the largest, base the matrix of ``validate(value)``; NumericalError when a pairing
    overflows.  A velocity is at most 2 ||a||_F ||base||_F (1 + ||base||_F) in
    magnitude, and a pairing twice that."""
    value = validate(value)
    a, base = as_operator(a, "generator", value.n), value.matrix
    base_scale, a_scale = scale_of(value), fro_scale(a)
    values = in_range("isotropy pairing", a_scale * base_scale * base_scale,
                      lambda: hermitian_components(velocity(base, a)))
    residual = float(np.maximum.reduce(np.abs(values), axis=None)) if values.size else 0.0
    tol = config.scaled(config.MEMBERSHIP_RTOL) * base_scale * a_scale
    return residual <= tol, residual


def isotropy_membership_alpha(a, xi: PositiveFunctional) -> tuple[bool, float]:
    """Whether xi(a†b + ba) vanishes over the Hermitian basis, with the residual;
    NumericalError when a pairing overflows."""
    return _membership(alpha_velocity, validate_positive, a, xi)


def isotropy_membership_phi(a, rho: StateDensity) -> tuple[bool, float]:
    """Membership in the normalized-action isotropy: the covariance-corrected sweep;
    NumericalError when a pairing overflows."""
    return _membership(phi_velocity, validate_state, a, rho)


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


def _sections(split: SpectralSplit) -> tuple[list, list]:
    """The block layout of the congruence isotropy algebra and of its complement,
    as sections of fields (j1, l1, c1, j2, l2, c2) for the blocks c1 E[j1,l1] +
    c2 E[j2,l2]; the fields of a section broadcast to (count..., partners), and
    partners are consecutive blocks.  ``_outer_stack`` rotates them into a basis
    and isotropy_report reduces them in closed form, neither expanding them into
    per-block arrays.

    Isotropy: i E[j,j] on the support; per support pair l < m the partners
    E[m,l] - r E[l,m] and i E[m,l] + i r E[l,m] with r = p_l/p_m; then E, iE
    on every unit (j, l) with l in the kernel, row-major.  Complement: E[j,j]
    on the support; the Hermitian pairs E[l,m] + E[m,l], i E[l,m] - i E[m,l];
    then E, iE on the kernel-to-support units (j in kernel, l in support).
    NumericalError when a ratio r is not finite: an eigenvalue overflowed.
    """
    n, k = split.support_basis.shape
    diag = np.arange(k)[:, None]
    low, high = [idx[:, None] for idx in (diag < diag.T).nonzero()]
    ratio = in_range("eigenvalue", np.inf, lambda: split.eigenvalues[low] / split.eigenvalues[high])
    norm = np.hypot(1.0, ratio)
    half = np.sqrt(0.5)
    partners = np.array([1.0, 1j])
    # the product grids: rows (count, 1, 1) against columns (count, 1)
    rows, kernel = np.arange(n)[:, None, None], np.arange(k, n)[:, None]
    into, support = np.arange(k, n)[:, None, None], diag
    isotropy = [
        (diag, diag, 1j, diag, diag, 0j),
        (high, low, partners / norm, low, high, np.array([-1.0, 1j]) * ratio / norm),
        (rows, kernel, partners, rows, kernel, 0j),
    ]
    complement = [
        (diag, diag, 1.0 + 0j, diag, diag, 0j),
        (low, high, partners * half, high, low, np.array([1.0, -1j]) * half),
        (into, support, partners, into, support, 0j),
    ]
    return isotropy, complement


def _coefficient_range(sections, n: int, k: int,
                       identity: bool) -> tuple[float, float, float | None]:
    """The least and greatest coefficient norms |c1|^2 + |c2|^2 over the blocks of
    one side of ``_sections`` (support dimension k of n), and, when ``identity``,
    the norm ||Re Tr B||_F over the isotropy blocks, else None; no block is built.

    Every block off the support pairs has |c1| = 1 and c2 = 0, and the support
    diagonal is never empty, so the pairs' norms and 1 give the range.  The
    complement's pair coefficients carry no pair axis, so they count only when
    there is a pair (a broadcast to that axis cost a report about 5% at n = 32).
    Re Tr B is 1 on the real partner of each kernel unit E[j,j] and 0 on every
    other isotropy block: the squares sum exactly, so the norm is sqrt(n - k).
    """
    _, (j1, _, c1, _, _, c2), _ = sections
    norms = np.abs(c1) ** 2 + np.abs(c2) ** 2 if j1.size else np.ones(1)
    return (float(norms.min(initial=1.0)), float(norms.max(initial=1.0)),
            float(np.sqrt(n - k)) if identity else None)


def _certify(sv: np.ndarray, low: float, high: float, border: float | None) -> float:
    """Certified lower bound on the smallest Gram eigenvalue of blocks rotated by w
    (followed by I/sqrt(n) when ``border``, the norm ||Re Tr B||_F over the blocks,
    is not None), from the singular values ``sv`` of w in descending order and the
    least and greatest coefficient norms ``low`` and ``high`` of the blocks
    (``_coefficient_range``); raises ValidationError when it does not clear the
    independence threshold."""
    # G is diagonal with entries |c1|^2 + |c2|^2 (c2 = 0 on a repeated unit):
    # only partners share units, and their cross term Re(conj(c1a) c1b +
    # conj(c2a) c2b) pairs a real coefficient with an imaginary one, exactly 0
    defect = 0.0
    if border is not None:
        border /= np.sqrt(sv.size)
        spread = max(1.0 - low, high - 1.0)
        low, high = 1.0 - border - spread, 1.0 + border + spread
        defect = float(np.maximum.reduce(np.abs(1.0 - sv**2)))
    lower = max(sv[-1] ** 2 * np.sqrt(max(low, 0.0)) - defect, 0.0) ** 2
    upper = (sv[0] ** 2 * np.sqrt(high) + defect) ** 2
    return config.check("basis is not linearly independent: Gram eigenvalue bound", lower,
                        config.GRAM_MIN_EIG_RTOL, max(1.0, upper), ValidationError, floor=True)


_SLICE_ENTRIES = 1 << 16  # matrix entries written per step of ``_outer_stack``


def _outer_stack(sections, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the rotated blocks c1 w_j1 w_l1† + c2 w_j2 w_l2† of one side of
    ``_sections`` into ``out`` in block order, and return it: each section fills
    its slice of ``out`` (sections of any other total fail at a reshape) in steps
    of at most _SLICE_ENTRIES entries, so the c2 term's temporary is one step."""
    n = w.shape[0]
    lt, rt = w.T[:, :, None], np.conjugate(w.T)[:, None, :]
    step = max(1, _SLICE_ENTRIES // (n * n))
    fields = [np.broadcast_arrays(*section) for section in sections]
    ends = np.cumsum([c1.size for _, _, c1, *_ in fields])[:-1]
    for section, part in zip(fields, np.split(out, ends)):
        j1, l1, c1, j2, l2, c2 = (field.ravel() for field in section)
        part = part.reshape(c1.size, n, n)
        for t in (slice(s, s + step) for s in range(0, c1.size, step)):
            np.multiply(c1[t, None, None] * lt[j1[t]], rt[l1[t]], out=part[t])
            part[t] += c2[t, None, None] * lt[j2[t]] * rt[l2[t]]
    return out


def _basis_stack(count: int, n: int) -> np.ndarray:
    """An empty stack of ``count`` complex matrices of dimension n; ValidationError,
    before anything is allocated, when it has more than BASIS_MAX_ENTRIES entries."""
    if count * n * n > config.BASIS_MAX_ENTRIES:
        raise ValidationError(
            f"explicit basis of {count} matrices of dimension {n} has {count * n * n} "
            f"entries, above the limit of {config.BASIS_MAX_ENTRIES} (isotropy_report "
            "needs no basis)")
    return np.empty((count, n, n), dtype=complex)


def _rotated_basis(split: SpectralSplit, which: int, identity: bool = False) -> RealBasis:
    """The isotropy (``which`` 0) or complement (1) side of ``_sections``, rotated
    back into a stack of the closed-form dimension, with I/sqrt(n) in one more
    slot when ``identity``; a functional given for ``split`` is split by
    ``spectral_split``."""
    split = split if isinstance(split, SpectralSplit) else spectral_split(split)
    n, k = split.ambient_dim, split.support_dim
    dim = isotropy_dimension_alpha(k, n)
    dim = 2 * n * n - dim if which else dim
    stack = _basis_stack(dim + identity, n)
    sections = _sections(split)[which]
    w = split.full_basis()
    floor = _certify(np.linalg.svd(w, compute_uv=False),
                     *_coefficient_range(sections, n, k, identity))
    _outer_stack(sections, w, stack[:dim])
    if identity:
        stack[dim] = np.eye(n, dtype=complex) / np.sqrt(n)
    stack.flags.writeable = False
    return RealBasis(vectors=tuple(stack), gram_floor=floor)


def isotropy_basis_alpha(split: SpectralSplit) -> RealBasis:
    """Explicit real basis of the congruence-action isotropy algebra.

    Built blockwise in the adapted eigenbasis and rotated back; dimension is
    k^2 + 2k(n-k) + 2(n-k)^2 for support dimension k.  The support-block
    pairing uses the actual eigenvalue ratios, which degenerates continuously
    to the skew-Hermitian rule on subspaces with equal eigenvalues.  A functional
    given for ``split`` is split by ``spectral_split``, as in the two below.
    """
    return _rotated_basis(split, 0)


def complement_basis_alpha(split: SpectralSplit) -> RealBasis:
    """Algebraic complement of the isotropy algebra: support-block Hermitian
    plus arbitrary kernel-to-support entries; dimension k^2 + 2k(n-k)."""
    return _rotated_basis(split, 1)


def isotropy_basis_phi(split: SpectralSplit) -> RealBasis:
    """Isotropy basis of the normalized action: the congruence one plus the identity."""
    return _rotated_basis(split, 0, identity=True)


def isotropy_dimension_alpha(k: int, n: int) -> int:
    """Real dimension k^2 + 2(n-k)^2 + 2k(n-k) of the congruence isotropy; k and n
    are integers, and a real k outside [1, n] is refused as out of range."""
    n = require_dimension(n)
    if isinstance(k, numbers.Real) and not 1 <= k <= n:
        raise ValidationError(f"support dimension must lie in [1, {n}], got {k}")
    k = require_dimension(k)  # an integer too
    return k * k + 2 * (n - k) ** 2 + 2 * k * (n - k)


def orbit_dimension(split: SpectralSplit, action: str) -> int:
    """Orbit dimension 2n^2 - dim(isotropy) for the requested action; a functional
    given for ``split`` is split by ``spectral_split``."""
    split = split if isinstance(split, SpectralSplit) else spectral_split(split)
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


def _residual_bound(sections, w: np.ndarray, base: np.ndarray, p: np.ndarray,
                    normalized: bool) -> float:
    """Upper bound on the membership residuals that a floating-point sweep of the
    rotated isotropy blocks computes at ``base``, p being the eigenvalues that built
    the blocks, rescaled to base and zero on the kernel: O(n^3) for y = h w (h the
    Hermitian part of base), then O(n^2).  The bound of every block is formed from
    the isotropy ``sections`` of ``_sections`` without building the blocks.

    The sweep (tests/oracles.py) forms y from (base + base†) / 2, which has the bits
    of ``hermitian_part(base)`` wherever it is finite and no entry's half is
    subnormal, so there it forms this same y; then t = sum_k c_k w_jk y_lk†
    over the block's two units and the pairings of t + t†, less 2 Re Tr(t) times
    those of base for phi.  With F = y - w P, P = diag(p), exactly t + t† = V =
    w D w† + X + X† where X = w B F† and D = B P + P B†.  Take u = 2^-53, gamma_k
    = k u / (1 - k u) (Higham 2002), and a, f, ym (nu, phi, eta) the column maxima
    (2-norms) of |w|, of F~ = |fl(y - w p)| / (1 - u) + u |w| p >= |F| and of |y|.

    - D: a support pair has c1 = e/N, c2 = -e r/N, r = p_l/p_m, e = 1 or i, each
      within two roundings and r within one, and p within one more (p / Tr); so
      D's entries d = c1 p_l + conj(c2) p_m and conj(d) have |d| <= gamma_10 |c1|
      p_l, and D = 0 for other blocks.  So |(w D w†)_iq| <= 2 |d| a_j1 a_l1, and
      |X_iq| <= sum_k |c_k| a_jk f_lk.
    - Rounding: c is real or imaginary, so c w rounds once, then the product
      with conj(y) (Lemma 3.5) and the sum of the units: each entry of t lies
      within gamma_5 sum_k |c_k| |w_pjk| |y_qlk| of exact.  t + t† rounds once and
      a pairing at most doubles, so each congruence pairing is at most
      4 (|d| a a + sum_k |c_k| a (f + gamma_5 ym)), times 1 + u.
    - Trace: by Cauchy-Schwarz the diagonal of V sums in magnitude to at most
      2 (|d| nu nu + sum_k |c_k| nu_jk phi_lk) and the rounding of t's diagonal to
      gamma_5 sum_k |c_k| nu_jk eta_lk; Tr(t) sums real parts apart from imaginary
      ones, so the computed 2 Re Tr(t) is at most tau = 2 (|d| nu nu + sum_k |c_k|
      nu_jk (phi_lk + gamma_5 eta_lk)), times 1 + gamma_n.  It scales pairings of
      base of largest magnitude beta, and the difference rounds once.

    The last factor covers the factors 1 + u and 1 + gamma_n and this function's
    own roundings (fewer than 2n + 32 deep, on nonnegative terms).  It assumes,
    as Higham's model does, that no intermediate underflows.

    Per section, each block's bound has the bits of the per-block formula
    (tests/oracles.py).  On the support diagonal and the free grid c1 is 1 or i
    and c2 = 0, so |c1| = 1, d = 0 and the block's sum is fl(x_j z_l) exactly:
    its zero terms add nothing but a NaN where z_l is not finite, carried apart.
    The partners of a support pair share |c1| and |c2|: numpy divides by the
    real norm N by scaling both parts of the numerator by fl(1/N), so 1/N and i/N,
    -r/N and i r/N have the same moduli, and one sum is formed per pair.
    """
    u, g5, top = gamma(1), gamma(5), np.maximum.reduce  # column maxima, axis 0
    y = hermitian_part(base) @ w
    aw, ay = np.abs(w), np.abs(y)
    fb = np.abs(y - w * p) / (1.0 - u) + u * aw * p
    (diag, *_), (high, low, c1, _, _, c2), (rows, kernel, *_) = sections
    diag, high, low, rows, kernel = diag[:, 0], high[:, 0], low[:, 0], rows[:, 0, 0], kernel[:, 0]
    c1, c2 = np.abs(c1[:, 0]), np.abs(c2[:, 0])
    d = gamma(10) * c1 * p[low]

    def units(x: np.ndarray, z: np.ndarray) -> list:
        xh, xl = x[high], x[low]
        return [x[diag] * z[diag], d * xh * xl + (c1 * xh * z[low] + c2 * xl * z[high]),
                np.multiply.outer(x[rows], z[kernel])]

    z = top(fb) + g5 * top(ay)
    bound = [4.0 * x for x in units(top(aw), z)]
    carried = 0.0 * float(top(z))  # the zero terms' NaN, if any
    if normalized:
        nu, phi, eta = [np.sqrt(np.add.reduce(m * m)) for m in (aw, fb, ay)]
        zeta = phi + g5 * eta
        beta = float(top(np.abs(hermitian_components(base)), axis=None))
        bound = [b + beta * (2.0 * x) for b, x in zip(bound, units(nu, zeta))]
        carried += 0.0 * float(top(zeta))
    peak = max([float(top(b, axis=None, initial=0.0)) for b in bound]) + carried
    return peak * (1.0 + gamma(4 * w.shape[0] + 64))


def isotropy_report(xi: PositiveFunctional) -> IsotropyReport:
    """Certify both isotropy bases at xi, never forming them, and report the
    dimensions and a bound on the membership residuals (``_residual_bound``),
    those of phi at xi / Tr xi; the identity direction's residual there is
    formed outright in O(n^2), with the bits of isotropy_membership_phi.
    NumericalError when the largest eigenvalue of xi overflows.
    """
    xi = validate_positive(xi)
    split = spectral_split(xi)
    in_range("eigenvalue", split.eigenvalues[0], lambda: split.eigenvalues)
    isotropy, complement = _sections(split)
    w = split.full_basis()
    sv = np.linalg.svd(w, compute_uv=False)
    n, k = split.ambient_dim, split.support_dim
    _certify(sv, *_coefficient_range(complement, n, k, identity=False))
    # the congruence Gram matrix is a principal submatrix of the bordered one
    _certify(sv, *_coefficient_range(isotropy, n, k, identity=True))
    p = np.zeros(n)
    p[:k] = split.eigenvalues
    # rho = xi / Tr xi from xi / 2^b, 2^b > n, whose trace is finite for every validated
    # xi (at most sqrt(n) ||xi||_F / 2^b): the same quotients wherever Tr xi is finite
    # and no entry of xi / 2^b is subnormal
    down = 2.0 ** -n.bit_length()
    scaled = xi.matrix * down
    trace = float(scaled.trace().real)
    rho = scaled / trace
    # phi_velocity of I / sqrt(n) at rho: a product with the identity rounds once
    half = rho * (1.0 / np.sqrt(n))
    v = half + dagger(half)
    v -= v.trace().real * rho
    residual = max(
        _residual_bound(isotropy, w, xi.matrix, p, normalized=False),
        _residual_bound(isotropy, w, rho, p * down / trace, normalized=True),
        float(np.maximum.reduce(np.abs(hermitian_components(v)), axis=None)),
    )
    dim_alpha = isotropy_dimension_alpha(k, n)
    return IsotropyReport(
        ambient_dim=2 * n * n,
        support_dim=k,
        dim_alpha=dim_alpha,
        dim_phi=dim_alpha + 1,
        dim_complement=2 * n * n - dim_alpha,
        max_residual=residual,
    )
