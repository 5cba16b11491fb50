"""The two actions of the invertible group on functionals and states.

The linear congruence action sends xi to g xi g†; it preserves positivity,
rank and faithfulness but not the unit trace.  Its normalized deformation
phi(g, rho) = g rho g† / Tr(g rho g†) is a left action on states that agrees
with the unitary coadjoint action on the unitary subgroup and is non-affine
elsewhere.  The classical specialization acts on probability vectors by
q_j = |w_j|^2 p_j / sum_k |w_k|^2 p_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotUnitary, NumericallySingular, Singular, ValidationError, ZeroWeight
from .linalg import as_operator, dagger, frobenius, hermitian_part, in_range, require_hermitian
from .states import (
    PositiveFunctional,
    ProbabilityVector,
    StateDensity,
    _frozen,
    validate_positive,
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
    the dimension ``n`` of the value g acts on when given.  A GroupElement is its
    own certificate."""
    if isinstance(g, GroupElement) and (n is None or g.n == n):
        return g
    m = as_operator(g, "group element", n)
    s = np.linalg.svd(m, compute_uv=False)
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
    """
    if isinstance(xi, PositiveFunctional):
        return validate_positive(hermitian_part(_congruence(group_element(g, xi.n).matrix,
                                                            xi.matrix)))
    ge = group_element(g)
    return hermitian_part(_congruence(ge.matrix, require_hermitian(xi, "functional", ge.n)[0]))


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
    to the trace of the unscaled product.
    """
    rho = validate_state(rho)
    ge = group_element(g, rho.n)
    return validate_state(prescaled_phi(ge.matrix, rho)[0])


def prescaled_phi(g: np.ndarray, rho: StateDensity) -> tuple[np.ndarray, float]:
    """``phi``'s matrix before validation, m rho m† / d, and ||m||_F^2 / d, for
    m = g / 2^e and d = Tr(m rho m†) from ``_normalization``, the floor test applied
    to 2^2e d.  So 1/d is at most 4 ||m||_F^2 / d, or where ||g||_F < 1/2
    (e = 0) the reciprocal of the floor that d passed."""
    _, _, m_norm, num, d = _normalization(g, rho)
    return num / d, m_norm * m_norm / d


def _normalization(g: np.ndarray,
                   rho: StateDensity) -> tuple[np.ndarray, int, float, np.ndarray, float]:
    """The normalized action's one step: (m, e, ||m||_F, m rho m†, d) for m = g / 2^e, 2^e
    the least power of two above ||g||_F (e = 0 below 1/2), and d = Tr(m rho m†).  m is
    exact while no entry underflows; ||m||_F < 1, >= 1/2 unless ||g||_F < 1/2.  A norm
    at or above 2^1024 is read off 2^-1024 g.  Raises NumericallySingular when 2^2e d,
    Tr(g rho g†), is at or below the scaled DENOMINATOR_FLOOR."""
    shift, norm = 0, frobenius(g)
    if math.isinf(norm):
        shift, norm = 1024, frobenius(g * 2.0 ** -1024)
    e = max(math.frexp(norm)[1] + shift, 0)
    m = np.empty(g.shape, dtype=complex)
    m.real = np.ldexp(g.real, -e)
    m.imag = np.ldexp(g.imag, -e)
    num = m @ rho.matrix @ dagger(m)
    d = config.check("Tr(g rho g†)", float(num.trace().real), config.DENOMINATOR_FLOOR, 1.0,
                     NumericallySingular, floor=True, exp2=2 * e)
    return m, e, math.ldexp(norm, shift - e), num, d


def unitary_phi(u, rho: StateDensity) -> StateDensity:
    """Coadjoint action u rho u† of the unitary subgroup (spectrum preserving)."""
    rho = validate_state(rho)
    m = as_operator(u, "unitary", rho.n)
    norm = frobenius(m)
    # ||u||_F^2, which is n for a unitary, bounds each entry of u†u: where it leaves
    # double range the product may overflow, and the defect is taken as inf
    defect = (frobenius(dagger(m) @ m - np.eye(m.shape[0])) if norm * norm < 2.0 ** 1023
              else math.inf)
    config.check("||u†u - I||_F", defect, config.UNITARY_ATOL, 1.0, NotUnitary)
    return validate_state(m @ rho.matrix @ dagger(m))


def _weight_squares(w) -> np.ndarray:
    """|w|^2 after dividing w by the smallest power of two above max|w|, which may
    lie below 1 as well as above: exact, so the classical quotients keep their bits
    while the largest square lies in [1/4, 1), neither overflowing nor underflowing."""
    mags = np.abs(np.asarray(w, dtype=complex))
    return np.ldexp(mags, -math.frexp(float(np.max(mags)))[1]) ** 2


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
    if not np.all(np.isfinite(weights)):
        raise ValidationError("weight vector contains non-finite entries")
    mags = _weight_squares(weights)
    if np.any(mags == 0.0):
        raise ZeroWeight("weight vector has a zero entry")
    scaled = mags * prob.p
    return validate_probability(scaled / scaled.sum())


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
    mixed_image = prescaled_phi(m, mix_states(rho1, rho2, lam))[0]
    image_mix = lam * prescaled_phi(m, rho1)[0] + (1.0 - lam) * prescaled_phi(m, rho2)[0]
    return frobenius(mixed_image - image_mix)
