"""Tangent vectors of both actions, covariance pairing and one-parameter flows.

Differentiating t -> exp(ta) xi exp(ta)† at t = 0 gives the congruence
velocity a xi + xi a†, which splits as {xi, x} - i[xi, y] for a = x + iy with
x, y Hermitian.  The normalized action adds the trace correction
-Tr(a rho + rho a†) rho, making the velocity traceless.  Flows evaluate
exp(ta) exactly per grid point rather than stepping an ODE, and certify each
point with O(n^2) bounds in place of an SVD and an eigvalsh (see ``flow``).

The rank of a -> phi_velocity(rho, a), the orbit dimension n^2 - (n-k)^2 - 1
at rank k, comes from the closed form of its singular values in the
eigenbasis of rho (O(n^3) time, O(n^2) memory); the tests check that set
against the SVD of the dense realified 2n^2 x 2n^2 map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .actions import _exponent_above, group_element, phi, prescaled_phi
from .errors import NumericalError, ValidationError
from .linalg import (as_operator, dagger, fro_scale, frobenius, gamma, matrix_exp,
                     require_hermitian, sorted_eigh)
from .states import PositiveFunctional, StateDensity, _frozen, default_rank_tol, unit_trace


@dataclass(frozen=True)
class TangentVector:
    """Velocity of a one-parameter flow through ``base`` generated by ``generator``;
    both arrays are frozen copies, like a validated value's."""

    base: PositiveFunctional
    value: np.ndarray
    generator: np.ndarray


def alpha_velocity(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d/dt exp(ta) xi exp(ta)† at t=0, i.e. a xi + xi a† (Hermitian)."""
    v = a @ xi + xi @ dagger(a)
    return (v + dagger(v)) / 2.0


def phi_velocity(rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Velocity of the normalized flow: alpha velocity minus its trace times rho."""
    v = alpha_velocity(rho, a)
    return v - np.trace(v).real * rho


def tangent_alpha(xi: PositiveFunctional, a) -> TangentVector:
    """Tangent vector of the congruence action at ``xi`` along generator ``a``."""
    gen = _frozen(as_operator(a, "generator", xi.n))
    return TangentVector(base=xi, value=_frozen(alpha_velocity(xi.matrix, gen)), generator=gen)


def tangent_phi(rho: StateDensity, a) -> TangentVector:
    """Tangent vector of the normalized action at ``rho``; always traceless."""
    gen = _frozen(as_operator(a, "generator", rho.n))
    return TangentVector(base=rho, value=_frozen(phi_velocity(rho.matrix, gen)), generator=gen)


def covariance(rho: StateDensity, a, b) -> float:
    """Symmetrized covariance Tr(rho(ab+ba)) - 2 Tr(rho a) Tr(rho b).

    Defined for Hermitian a, b; symmetric in its arguments, zero when either
    argument is a multiple of the identity, and nonnegative on the diagonal.
    """
    am, _ = require_hermitian(a, "a", rho.n)
    bm, _ = require_hermitian(b, "b", rho.n)
    m = rho.matrix
    quad = float(np.trace(m @ (am @ bm + bm @ am)).real)
    return quad - 2.0 * float(np.trace(m @ am).real) * float(np.trace(m @ bm).real)


_NORMAL_MIN = 2.0 ** -1022    # smallest normal double
_EXACT_PRODUCTS = 2.0 ** -900  # least m * m * rho component product keeping the congruence exact


def _eig_allowance(n: int) -> float:
    """How far eigvalsh's eigenvalues of (m + m†)/2 may lie from those of m's
    Hermitian part, per unit of ||m||_F: sqrt(n) gamma_4n for its backward error
    and gamma_4n for the symmetrization and a division before it."""
    return (math.sqrt(n) + 1.0) * gamma(4 * n)


def _smallest_component(a: np.ndarray) -> float:
    """The smallest nonzero |real part| or |imaginary part| of an entry (inf if none)."""
    v = np.abs(np.ravel(a, order="K").view(np.float64))
    return float(np.min(v, where=v > 0.0, initial=np.inf))


@dataclass(frozen=True)
class _Flow:
    """What every point of the flow of ``rho`` along ``gen`` shares: ||gen||_F,
    ||rho||_F, the smallest nonzero component of rho, and ``rho_floor`` =
    min(0, lambda_min - ``_eig_allowance`` ||rho||_F), a lower bound on the
    smallest eigenvalue of rho's Hermitian part (one eigvalsh per flow)."""

    rho: StateDensity
    gen: np.ndarray
    gen_norm: float
    rho_norm: float
    rho_floor: float
    rho_tiny: float


def _flow_of(rho: StateDensity, a) -> _Flow:
    gen = as_operator(a, "generator", rho.n)
    m = rho.matrix
    rho_norm = frobenius(m)
    lam = float(np.linalg.eigvalsh((m + dagger(m)) / 2.0)[0])
    return _Flow(rho=rho, gen=gen, gen_norm=frobenius(gen), rho_norm=rho_norm,
                 rho_floor=min(0.0, lam - _eig_allowance(rho.n) * rho_norm),
                 rho_tiny=_smallest_component(m))


def _invertible(g_norm: float, x: float, n: int) -> bool:
    """Whether ``group_element``'s test sigma_min > SINGULAR_RTOL (1 + sigma_max)
    certainly passes on g = matrix_exp(A) with ||A||_F <= x, without its SVD.

    The exact exp(A) has sigma_min >= e^-||A||_2 >= e^-x.  The computed g
    differs from it by at most gamma_8n (2 + (1 + sqrt(n)) x) e^x: expm's
    backward error u ||A|| carried through the exponential (at most u x e^x),
    and the rounding of its Pade evaluation and of its s squarings, with
    2^s <= 1 + ||A||_1 <= 1 + sqrt(n) x, each below gamma_8n e^x (Al-Mohy and
    Higham 2009).  The SVD's own rounding moves both extreme singular values by
    at most sqrt(n) gamma_8n ||g||_F, and sigma_max <= ||g||_F.
    """
    if not x < 700.0:  # e^x overflows near 709.8; the bound fails long before
        return False
    growth = math.exp(x)
    svd = math.sqrt(n) * gamma(8 * n)
    lower = 1.0 / growth - gamma(8 * n) * (2.0 + (1.0 + math.sqrt(n)) * x) * growth \
        - svd * g_norm
    return config.clears(lower, config.SINGULAR_RTOL, 1.0 + g_norm * (1.0 + 2.0 * svd),
                         floor=True)


def _positive(mat: np.ndarray, scale: float, flow: _Flow, m_norm: float, den: float) -> bool:
    """Whether ``validate_positive``'s eigenvalue tests certainly pass on
    mat = m rho m† / den (scale = 1 + ||mat||_F, ||m||_F = m_norm), without eigvalsh.

    PSD: the Hermitian part of the exact m rho m† is m rho_H m†, whose smallest
    eigenvalue is at least rho_floor sigma_max(m)^2 >= rho_floor ||m||_F^2
    (Ostrowski; rho_floor <= 0).  The two complex products round by at most
    gamma_{4n+8} ||m||_F^2 ||rho||_F, and eigvalsh by ``_eig_allowance`` ||mat||_F,
    so -(smallest eigenvalue) <= (gamma_{4n+8} ||rho||_F - rho_floor) ||m||_F^2
    / den + allowance, which must clear PSD_CLAMP_RTOL * scale.  Nonzero: the
    largest eigenvalue is at least Tr(mat) / n less the same allowance and the
    trace's rounding, which must be above that bound.
    """
    n = mat.shape[0]
    allowance = _eig_allowance(n) * scale
    deficit = (gamma(4 * n + 8) * flow.rho_norm - flow.rho_floor) * m_norm * m_norm / den
    top = (float(np.trace(mat).real) - math.sqrt(n) * gamma(n) * scale) / n
    return (config.clears(deficit + allowance, config.PSD_CLAMP_RTOL, scale)
            and config.clears(top - allowance, config.PSD_CLAMP_RTOL, scale, floor=True))


def _certified_point(flow: _Flow, g: np.ndarray, x: float) -> StateDensity | None:
    """phi(group_element(g), rho) for g = matrix_exp(A), ||A||_F <= x, with
    O(n^2) certificates in place of the SVD and eigvalsh, or None where a
    certificate cannot decide.

    The prescale is the power of two above ||g||_F instead of sigma_max.  Both
    are exact, so the bits agree while no product in the congruence rounds
    below 2^-1022: no nonzero component of m = 2^-e g is below 2^-1022, those
    of m, m and rho multiply to at least 2^-900 (so every exact product is a
    multiple of 2^-1074), and the trace floor's bound stays a normal number.
    """
    n = g.shape[0]
    g_norm = float(np.linalg.norm(g))  # inf or NaN unless every entry is finite
    if not (math.isfinite(g_norm) and _invertible(g_norm, x, n)):
        return None
    e = _exponent_above(g_norm)
    tiny = math.ldexp(_smallest_component(g), -e)
    if not (tiny >= _NORMAL_MIN and tiny * tiny * flow.rho_tiny >= _EXACT_PRODUCTS
            and config.clears(_NORMAL_MIN, config.DENOMINATOR_FLOOR, 1.0, exp2=2 * e)):
        return None
    mat, den = prescaled_phi(g, e, flow.rho)
    mat, scale = require_hermitian(mat, "functional")
    if not _positive(mat, scale, flow, math.ldexp(g_norm, -e), den):
        return None
    mat.flags.writeable = False
    return unit_trace(mat)


def _flow_point(flow: _Flow, t) -> StateDensity:
    """phi(exp(t gen), rho): ``_certified_point``, or where it cannot decide,
    phi(group_element(exp(t gen)), rho) as it stands.

    exp(t gen) is invertible for every t, so a group element or state that
    fails validation here means the exponential overflowed or became too
    ill-conditioned to use: a NumericalError that names t.  Overflow
    warnings are silenced, since that error reports them.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            g = matrix_exp(t * flow.gen)
            point = _certified_point(flow, g, abs(float(t)) * flow.gen_norm)
            return point if point is not None else phi(group_element(g), flow.rho)
    except ValidationError as exc:
        raise NumericalError(
            f"exp(t a) is not numerically usable at t = {float(t)!r}: {type(exc).__name__}: {exc}"
        ) from exc


def flow(rho0: StateDensity, a, t_grid) -> list[StateDensity]:
    """Trajectory t -> phi(exp(ta), rho0) over the given parameter grid.

    Each point costs one expm, one congruence and O(n^2) checks; the states
    have the bits of phi(matrix_exp(t a), rho0).  Two certificates stand in
    for the SVD of ``group_element`` and the eigvalsh of ``validate_state``
    (see ``_invertible`` and ``_positive``):

    - invertible: e^(-|t| ||a||_F), less expm's forward error
      gamma_8n (2 + (1 + sqrt(n)) |t| ||a||_F) e^(|t| ||a||_F) and the SVD's
      rounding sqrt(n) gamma_8n ||g||_F, exceeds SINGULAR_RTOL (1 + ||g||_F);
    - a state: with rho_floor = min(0, lambda_min(rho0) - (sqrt(n) + 1)
      gamma_4n ||rho0||_F) from one eigvalsh of rho0 per call and m = g / 2^e,
      (gamma_{4n+8} ||rho0||_F - rho_floor) ||m||_F^2 / Tr(m rho0 m†) plus
      eigvalsh's allowance (sqrt(n) + 1) gamma_4n ||rho_t||_F clears
      PSD_CLAMP_RTOL (1 + ||rho_t||_F), and Tr(rho_t) / n less that allowance
      exceeds it.

    A point falls back to phi(group_element(exp(ta)), rho0), SVD and
    eigvalsh included, where exp(ta) is not finite, a certificate fails
    (typically |t| ||a||_F above about 10, a rank-deficient rho0 moved by a
    badly conditioned exp(ta), or every point at a tolerance scale below
    about 3e-3 at n = 64, where eigvalsh's allowance alone exceeds
    PSD_CLAMP_RTOL's bound), or a product of entries could round below
    2^-1022.  So every error is the one phi(group_element(exp(ta)), rho0)
    raises: NumericalError, naming the first failing t, where exp(ta)
    overflows or exceeds the singularity limit.
    """
    f = _flow_of(rho0, a)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
        raise ValidationError(f"t_grid must be a nonempty 1-d finite array, got shape {ts.shape}")
    return [_flow_point(f, t) for t in ts]


def fd_tangent_check(rho: StateDensity, a, h: float = config.FD_STEP) -> float:
    """Relative error between the central difference of the flow and tangent_phi.

    Returns ||fd - value||_F / (1 + ||value||_F) with the symmetric
    difference (phi(exp(ha)) - phi(exp(-ha))) / 2h; h must be finite and nonzero.
    The two points are ``flow``'s, with its certificates and fallback, so they
    cost two expm, two congruences and one eigvalsh of rho.  A step so small
    that the quotient overflows raises NumericalError, and so does one whose
    quotient rounding may swallow whole: the allowance
    gamma_{4n+8} (||fwd||_F + ||bwd||_F) / 2|h| of the two points' congruences
    (as in ``_positive``) is not below 1 + ||value||_F.
    """
    if not (math.isfinite(h) and h != 0.0):
        raise ValidationError(f"finite-difference step must be finite and nonzero, got {h}")
    f = _flow_of(rho, a)
    value = phi_velocity(rho.matrix, f.gen)
    fwd = _flow_point(f, h).matrix
    bwd = _flow_point(f, -h).matrix
    with np.errstate(over="ignore", invalid="ignore"):  # a complex 0 over subnormal 2h: 0 * inf
        fd = (fwd - bwd) / (2.0 * h)
    scale = fro_scale(value)
    error = frobenius(fd - value) / scale
    if not math.isfinite(error):
        raise NumericalError(f"finite-difference quotient overflows double precision at h = {h}")
    allowance = gamma(4 * rho.n + 8) * (frobenius(fwd) + frobenius(bwd)) / (2.0 * abs(h))
    config.check(f"finite-difference quotient at h = {h} lost to rounding: 1 + ||value||_F",
                 scale, 0.0, 1.0, NumericalError, floor=True, slack=allowance)
    return error


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a -> phi_velocity(m, a) except the zeros forced by its form.

    In the eigenbasis m = W diag(p) W†, each pair j < l of off-diagonal
    entries gives sqrt(2(p_j^2 + p_l^2)) twice, and Re a_jj gives
    |eigenvalues| of 2(diag(p) - p p^T); the other n^2 directions map to 0.
    """
    p = sorted_eigh(m).eigenvalues
    j, l = np.triu_indices(p.shape[0], 1)
    pairs = np.sqrt(2.0 * (p[j] ** 2 + p[l] ** 2))
    diagonal = np.abs(np.linalg.eigvalsh(2.0 * (np.diag(p) - np.outer(p, p))))
    return np.concatenate([pairs, pairs, diagonal])


def tangent_map_rank(rho: StateDensity) -> int:
    """Rank of the real-linear map a -> phi_velocity(rho, a).

    Equals the orbit dimension of the normalized action at rho,
    n^2 - (n-k)^2 - 1 at rank k: singular values at or below the scaled
    TANGENT_RANK_RTOL times the largest, or at or below the rank cut of rho
    (binding only for a zero map, n = 1), count as zero.  They come in
    closed form from the spectrum of rho (``_singular_values``) in O(n^3) time
    and O(n^2) memory; the tests check them against the SVD of the dense
    2n^2 x 2n^2 realified map.
    """
    s = _singular_values(rho.matrix)
    cut = max(config.scaled(config.TANGENT_RANK_RTOL) * s.max(), default_rank_tol(rho.matrix))
    return int(np.sum(s > cut))
