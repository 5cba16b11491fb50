"""The two actions of the invertible group on functionals and states.

The linear congruence action sends xi to g xi g†; it preserves positivity,
rank and faithfulness but not the unit trace.  Its normalized deformation
phi(g, rho) = g rho g† / Tr(g rho g†) is a left action on states that agrees
with the unitary coadjoint action on the unitary subgroup and is non-affine
elsewhere.  The classical specialization acts on probability vectors by
q_j = |w_j|^2 p_j / sum_k |w_k|^2 p_k.

The derivative of each action at g = I is its velocity formula, whose kernel
is the isotropy algebra and whose image the tangent space of the orbit.
Differentiating t -> exp(ta) xi exp(ta)† at t = 0 gives ``alpha_velocity``,
a xi + xi a†, which splits as {xi, x} - i[xi, y] for a = x + iy with x, y
Hermitian.  ``phi_velocity`` adds the normalized action's trace correction
-Tr(a rho + rho a†) rho, making the velocity traceless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotUnitary, NumericallySingular, Singular, ValidationError, ZeroWeight
from .linalg import (as_operator, dagger, eig_allowance, fro_scale, frobenius, gamma,
                     hermitian_part, in_range, require_hermitian)
from .states import (
    GATE,
    PositiveFunctional,
    ProbabilityVector,
    StateDensity,
    _frozen,
    min_eigenvalue,
    psd_gate,
    unit_trace,
    validate_probability,
    validate_state,
)


@dataclass(frozen=True)
class GroupElement:
    """An invertible algebra element with its invertibility certificate.

    ``sigma_min``/``sigma_max`` are the extreme singular values computed at
    construction; 1/sigma_min bounds the operator norm of the inverse.
    """

    matrix: np.ndarray
    sigma_min: float
    sigma_max: float

    def __array__(self, dtype=None, copy=None):
        """The frozen matrix, so the value is an operand wherever an array is."""
        return np.array(self.matrix, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def inverse_norm_bound(self) -> float:
        return 1.0 / self.sigma_min


def group_element(g, n: int | None = None) -> GroupElement:
    """Certify invertibility, sigma_min > 1e-12*(1+opnorm) (Singular otherwise), and
    the dimension ``n`` of the value g acts on when given; NumericalError when the
    largest singular value overflows.  A GroupElement is its own certificate."""
    if isinstance(g, GroupElement) and (n is None or g.n == n):
        return g
    m = as_operator(g, "group element", n)
    s = np.linalg.svd(m, compute_uv=False)
    in_range("singular value", s[0], lambda: s)
    smin, smax = float(s[-1]), float(s[0])
    config.check("sigma_min", smin, config.SINGULAR_RTOL, 1.0 + smax, Singular, floor=True)
    return GroupElement(matrix=_frozen(m), sigma_min=smin, sigma_max=smax)


def _congruence(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """g m g†; NumericalError when the product overflows."""
    return in_range("g xi g†", math.inf, lambda: g @ m @ dagger(g))


def alpha(g, xi):
    """Congruence action xi -> g xi g† on self-adjoint functionals.

    Accepts a PositiveFunctional (returned as PositiveFunctional) or a bare
    Hermitian matrix (returned as a matrix); either way the image is the
    Hermitian part of g xi g†, with the same bits.  The action is linear and
    sends PSD inputs to PSD outputs of the same rank.  Raises NumericalError
    when g xi g† overflows.

    A PositiveFunctional's image is exactly Hermitian and finite, so of
    ``validate_positive``'s tests it takes the eigenvalue tests alone: the
    congruence certificate from xi's ``_rates`` at ratio ||g||_F^2, and
    ``psd_gate`` where that cannot decide (``_positive``).
    """
    if isinstance(xi, PositiveFunctional):
        m = group_element(g, xi.n).matrix
        mat = hermitian_part(_congruence(m, xi.matrix))
        norm, g_norm = frobenius(mat), frobenius(m)
        value = PositiveFunctional(matrix=mat)
        value.__dict__[GATE] = _positive(mat, norm, fro_scale(mat, norm), g_norm * g_norm,
                                         _rates(xi))
        return value
    ge = group_element(g)
    return hermitian_part(_congruence(ge.matrix, require_hermitian(xi, "functional", ge.n)[0]))


def alpha_velocity(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d/dt exp(ta) xi exp(ta)† at t=0, i.e. a xi + xi a† (Hermitian)."""
    return hermitian_part(a @ xi + xi @ dagger(a))


def denominator(g, rho: StateDensity) -> float:
    """Normalization Tr(g rho g†) = Tr(rho g†g), strictly positive for invertible g:
    the number ``phi`` divides by, 2^2e d for d from ``_normalization``.

    Raises NumericallySingular exactly where ``phi`` does, when the value falls at
    or below 1e-14; the action fails loudly there instead of renormalizing noise.
    Raises NumericalError when the value overflows.
    """
    rho = validate_state(rho)
    _, e, _, _, d = _normalization(group_element(g, rho.n).matrix, rho)
    return float(in_range("Tr(rho g†g)", math.inf, lambda: np.ldexp(d, 2 * e)))


def phi(g, rho: StateDensity) -> StateDensity:
    """Normalized action g rho g† / Tr(g rho g†).

    Preserves unit trace, positivity, rank and faithfulness; invariant under
    rescaling g -> lambda g.  That invariance keeps g rho g† finite for large
    g: g is first divided by the power of two above ||g||_F, which is exact
    and is what every ``flow`` point divides by, and the floor test applies
    to the trace of the unscaled product.  The image takes ``validate_state``'s
    tests (``phi_state``), its eigenvalue tests decided by the congruence
    certificate from rho's ``_rates``, and by ``psd_gate`` where that cannot.
    """
    rho = validate_state(rho)
    return phi_state(group_element(g, rho.n).matrix, rho, _rates(rho))


def phi_state(g: np.ndarray, rho: StateDensity, rates: tuple) -> StateDensity:
    """phi's image of the validated state ``rho`` under the matrix g, with
    ``validate_state``'s tests: the Hermitian test, the eigenvalue tests
    (``_positive``, from rho's ``rates`` at the ratio ||m||_F^2 / d of m and d from
    ``_normalization``), then
    the trace test.  The matrix is frozen in place and keeps its gate record."""
    _, _, m_norm, num, d = _normalization(g, rho)
    mat, norm, scale = require_hermitian(num / d, "functional")
    return unit_trace(mat, _positive(mat, norm, scale, m_norm * m_norm / d, rates))


def _rates(xi: PositiveFunctional) -> tuple[float, float, float]:
    """``_positive``'s factors for the congruences of the n x n value xi, from its
    (low, ||xi||_F): the gate record validation left, or for a value built from its
    class, which has none, its eigen-record's smallest eigenvalue and its norm.  They
    are the deficit gamma_{4n+8} ||xi||_F - floor + n^2 2^-1070, with floor = min(0,
    low - eig_allowance(n) ||xi||_F) a lower bound on the smallest eigenvalue of xi's
    Hermitian part (``states.scale_of``), ``eig_allowance``(n) and the trace's
    rounding sqrt(n) gamma_n."""
    low, norm = xi.__dict__.get(GATE) or (min_eigenvalue(xi), frobenius(xi.matrix))
    n = xi.matrix.shape[0]
    allowance = eig_allowance(n)
    deficit = gamma(4 * n + 8) * norm - min(0.0, low - allowance * norm)
    return deficit + n * n * 2.0 ** -1070, allowance, math.sqrt(n) * gamma(n)


def _positive(mat: np.ndarray, norm: float, scale: float, ratio: float,
              rates: tuple) -> tuple[float, float]:
    """``psd_gate``'s verdict on mat = m xi m† / d, with its norm ||mat||_F and
    scale 1 + ||mat||_F, ratio ||m||_F^2 / d (d = 1 for ``alpha`` and ``unitary_phi``,
    phi's from ``_normalization``) and xi's ``_rates``, and the gate record (low, norm)
    it leaves.  The congruence certificate decides where it can, without eigvalsh: low
    is then its lower bound -(deficit ratio + allowance scale) on the smallest
    eigenvalue of mat's exact Hermitian part; elsewhere ``psd_gate`` runs, and low is
    its smallest eigenvalue.  mat is frozen in place.

    PSD: the Hermitian part of the exact m xi m† / d is m xi_H m† / d, whose
    smallest eigenvalue is at least floor sigma_max(m)^2 / d >= floor ratio for
    xi's floor <= 0 (Ostrowski).  The two complex products round by at most
    gamma_{4n+8} ||m||_F^2 ||xi||_F, and gradual underflow adds at most
    n^2 2^-1073 (1 + ||m||_F): below n^2 2^-1070 ratio where ||m||_F >= 1/2 and
    d <= ||m||_F^2 (phi's prescaled m; a unitary), and below n^2 2^-1072 where
    d = 1 and ||m||_F < 1 (alpha).  Else m = g in phi, so d passed the scaled
    DENOMINATOR_FLOOR itself, and this test passes only at tolerance scales of
    at least eig_allowance(n) / PSD_CLAMP_RTOL: the term is below n^2 2^-1000.
    eigvalsh errs by ``eig_allowance`` ||mat||_F, which covers a symmetrization
    and a division before it, and the allowance, ``eig_allowance`` * scale,
    exceeds that by 2^-51 or more: room for those terms and for the quotient's
    and eigvalsh's underflow, O(n^2 2^-1074).  So -(smallest eigenvalue) <=
    (gamma_{4n+8} ||xi||_F - floor + n^2 2^-1070) ratio + allowance, which must
    clear PSD_CLAMP_RTOL * scale.
    Nonzero: the largest eigenvalue is at least Tr(mat) / n less the same
    allowance and the trace's rounding, which must be above that bound.
    """
    # the deficit per unit of ratio, the others per unit of scale
    deficit, allowance, slack = rates
    bound = deficit * ratio + allowance * scale
    top = (float(mat.trace().real) - slack * scale) / mat.shape[0]
    # an infinite deficit (an overflowing ||xi||_F) at a ratio that underflowed to 0 is NaN
    certain = (bound < math.inf and config.clears(bound, config.PSD_CLAMP_RTOL, scale)
               and config.clears(top - allowance * scale, config.PSD_CLAMP_RTOL, scale, floor=True))
    mat.flags.writeable = False
    return (-bound if certain else psd_gate(mat, scale)), norm


def prescaled_phi(g: np.ndarray, rho: StateDensity) -> np.ndarray:
    """``phi``'s matrix before validation, m rho m† / d, for m = g / 2^e and
    d = Tr(m rho m†) from ``_normalization``, the floor test applied to 2^2e d."""
    num, d = _normalization(g, rho)[3:]
    return num / d


def _normalization(g: np.ndarray,
                   rho: StateDensity) -> tuple[np.ndarray, int, float, np.ndarray, float]:
    """The normalized action's one step: (m, e, ||m||_F, m rho m†, d) for m = g / 2^e, 2^e
    the least power of two above ||g||_F (e = 0 below 1/2), and d = Tr(m rho m†).  m is
    exact while no entry underflows; ||m||_F < 1, >= 1/2 unless ||g||_F < 1/2.  A norm
    at or above 2^1024 is read off 2^-1024 g.  Raises NumericallySingular when 2^2e d,
    Tr(g rho g†), is at or below the scaled DENOMINATOR_FLOOR."""
    shift, norm = 0, frobenius(g)
    if norm == math.inf:
        shift, norm = 1024, frobenius(g * 2.0 ** -1024)
    e = max(math.frexp(norm)[1] + shift, 0)
    m = np.ldexp(np.ascontiguousarray(g).view(float), -e).view(complex)
    num = m @ rho.matrix @ dagger(m)
    d = config.check("Tr(g rho g†)", float(num.trace().real), config.DENOMINATOR_FLOOR, 1.0,
                     NumericallySingular, floor=True, exp2=2 * e)
    return m, e, math.ldexp(norm, shift - e), num, d


def phi_velocity(rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Velocity of the normalized flow: alpha velocity minus its trace times rho."""
    v = alpha_velocity(rho, a)
    return v - v.trace().real * rho


def unitary_phi(u, rho: StateDensity) -> StateDensity:
    """Coadjoint action u rho u† of the unitary subgroup (spectrum preserving), its
    image tested as phi's is, at ratio ||u||_F^2 (``_positive``)."""
    rho = validate_state(rho)
    m = as_operator(u, "unitary", rho.n)
    norm = frobenius(m)
    # ||u||_F^2, which is n for a unitary, bounds each entry of u†u: where it leaves
    # double range the product may overflow, and the defect is taken as inf
    defect = (frobenius(dagger(m) @ m - np.eye(m.shape[0])) if norm * norm < 2.0 ** 1023
              else math.inf)
    config.check("||u†u - I||_F", defect, config.UNITARY_ATOL, 1.0, NotUnitary)
    mat, mat_norm, scale = require_hermitian(m @ rho.matrix @ dagger(m), "functional")
    return unit_trace(mat, _positive(mat, mat_norm, scale, norm * norm, _rates(rho)))


def _weight_squares(w) -> np.ndarray:
    """|w|^2 after dividing w by the smallest power of two above max|w|, which may
    lie below 1 as well as above: exact, so the classical quotients keep their bits
    while the largest square lies in [1/4, 1), neither overflowing nor underflowing."""
    mags = np.abs(np.asarray(w, dtype=complex))
    return np.ldexp(mags, -math.frexp(float(np.maximum.reduce(mags)))[1]) ** 2


def classical_phi(w, p) -> ProbabilityVector:
    """Classical action q_j = |w_j|^2 p_j / sum_k |w_k|^2 p_k.

    Weights must all be finite (ValidationError otherwise) and nonzero (ZeroWeight
    otherwise, also for a square that underflows).  Invariant under w -> lambda w:
    w is first scaled by the power of two that brings max|w| into [1/2, 1), which
    is exact, so large and tiny weights alike act as in ordinary range.  Dirac
    vectors are exact fixed points.
    """
    prob = validate_probability(p)
    weights = np.asarray(w, dtype=complex)
    if weights.shape != (prob.m,):
        raise ValidationError(f"expected {prob.m} weights, got shape {weights.shape}")
    if not np.logical_and.reduce(np.isfinite(weights)):
        raise ValidationError("weight vector contains non-finite entries")
    mags = _weight_squares(weights)
    if np.logical_or.reduce(mags == 0.0):
        raise ZeroWeight("weight vector has a zero entry")
    scaled = mags * prob.p
    return validate_probability(scaled / np.add.reduce(scaled))


def _require_weight(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"mixing weight must lie in [0, 1], got {lam}")


def mix_states(rho1: StateDensity, rho2: StateDensity, lam: float) -> StateDensity:
    """Convex combination lam*rho1 + (1-lam)*rho2."""
    _require_weight(lam)
    rho1, rho2 = validate_state(rho1), validate_state(rho2)
    m2 = as_operator(rho2.matrix, "second state", rho1.n)
    return validate_state(lam * rho1.matrix + (1.0 - lam) * m2)


def nonconvexity_witness(g, rho1: StateDensity, rho2: StateDensity, lam: float) -> float:
    """Affinity defect ||phi(g, mix) - lam phi(g,rho1) - (1-lam) phi(g,rho2)||_F.

    Zero on the unitary subgroup and at the endpoints lam in {0, 1};
    generically positive otherwise.  The mixture is validated; the three
    images are phi's matrices unvalidated, as no caller receives them, each
    from ``prescaled_phi`` on g's matrix.
    """
    rho1, rho2 = validate_state(rho1), validate_state(rho2)
    m = group_element(g, rho1.n).matrix
    mixed_image = prescaled_phi(m, mix_states(rho1, rho2, lam))
    image_mix = lam * prescaled_phi(m, rho1) + (1.0 - lam) * prescaled_phi(m, rho2)
    return frobenius(mixed_image - image_mix)
