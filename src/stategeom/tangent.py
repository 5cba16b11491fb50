"""Tangent vectors of both actions, covariance pairing and one-parameter flows.

Differentiating t -> exp(ta) xi exp(ta)† at t = 0 gives the congruence
velocity a xi + xi a†, which splits as {xi, x} - i[xi, y] for a = x + iy with
x, y Hermitian.  The normalized action adds the trace correction
-Tr(a rho + rho a†) rho, making the velocity traceless.  Flows evaluate
exp(ta) exactly per grid point rather than stepping an ODE, from powers of a
that every point shares, with one congruence per point; two O(n^2)
certificates stand in for the SVD of ``group_element`` and the eigvalsh of
``psd_gate``, the positivity tests of ``validate_state``, and where one cannot
decide, the point runs that one test (see ``flow``).

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
from .actions import group_element, prescaled_phi
from .errors import NumericalError, ValidationError
from .linalg import (_Exponential, as_operator, dagger, eig_allowance, fro_scale, frobenius,
                     gamma, hermitian_part, in_range, require_hermitian)
from .states import (PositiveFunctional, StateDensity, _eigenpairs, _frozen, default_rank_tol,
                     min_eigenvalue, psd_gate, unit_trace, validate_positive, validate_state)


@dataclass(frozen=True)
class TangentVector:
    """Velocity ``value`` at t = 0 of the flow of ``generator`` through the
    functional it was computed at; both arrays are frozen copies, like a
    validated value's."""

    value: np.ndarray
    generator: np.ndarray


def alpha_velocity(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d/dt exp(ta) xi exp(ta)† at t=0, i.e. a xi + xi a† (Hermitian)."""
    return hermitian_part(a @ xi + xi @ dagger(a))


def phi_velocity(rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Velocity of the normalized flow: alpha velocity minus its trace times rho."""
    v = alpha_velocity(rho, a)
    return v - np.trace(v).real * rho


def _tangent(velocity, validate, value, a) -> TangentVector:
    """The TangentVector velocity(base, a) at base, the matrix of ``validate(value)``,
    along generator ``a``; NumericalError when it overflows."""
    value = validate(value)
    gen = _frozen(as_operator(a, "generator", value.n))
    vector = in_range("tangent vector", math.inf, lambda: velocity(value.matrix, gen))
    return TangentVector(value=_frozen(vector), generator=gen)


def tangent_alpha(xi: PositiveFunctional, a) -> TangentVector:
    """Tangent vector of the congruence action at ``xi`` along generator ``a``;
    NumericalError when it overflows."""
    return _tangent(alpha_velocity, validate_positive, xi, a)


def tangent_phi(rho: StateDensity, a) -> TangentVector:
    """Tangent vector of the normalized action at ``rho``; always traceless.
    NumericalError when it overflows."""
    return _tangent(phi_velocity, validate_state, rho, a)


def covariance(rho: StateDensity, a, b) -> float:
    """Symmetrized covariance Tr(rho(ab+ba)) - 2 Tr(rho a) Tr(rho b).

    Defined for Hermitian a, b; symmetric in its arguments, zero when either
    argument is a multiple of the identity, and nonnegative on the diagonal.
    NumericalError when its evaluation overflows.
    """
    rho = validate_state(rho)
    am, _ = require_hermitian(a, "a", rho.n)
    bm, _ = require_hermitian(b, "b", rho.n)
    m = rho.matrix

    def evaluate():
        quad = float(np.trace(m @ (am @ bm + bm @ am)).real)
        return quad - 2.0 * float(np.trace(m @ am).real) * float(np.trace(m @ bm).real)

    return in_range("covariance", math.inf, evaluate)


@dataclass(frozen=True)
class _Flow:
    """What every point of the flow of ``rho`` along a generator shares: ``exp``, the
    evaluator of t -> exp(t a), ||a||_F, ||rho||_F and ``rho_floor`` =
    min(0, lambda_min - ``eig_allowance`` ||rho||_F), a lower bound on the
    smallest eigenvalue of rho's Hermitian part, read from rho's eigen-record."""

    rho: StateDensity
    exp: _Exponential
    gen_norm: float
    rho_norm: float
    rho_floor: float


def _flow_of(rho: StateDensity, a) -> _Flow:
    rho = validate_state(rho)
    gen = as_operator(a, "generator", rho.n)
    rho_norm = frobenius(rho.matrix)
    floor = min(0.0, min_eigenvalue(rho) - eig_allowance(rho.n) * rho_norm)
    return _Flow(rho=rho, exp=_Exponential(gen), gen_norm=frobenius(gen),
                 rho_norm=rho_norm, rho_floor=floor)


def _invertible(x: float, n: int) -> bool:
    """Whether ``group_element``'s test sigma_min > SINGULAR_RTOL (1 + sigma_max)
    certainly passes on g = exp(A) from ``linalg._Exponential``, for every
    A = t a with ||A||_F <= x: decided from x and n alone, before g is read.

    The exact exp(A) has sigma_min >= e^-||A||_2 >= e^-x and sigma_max <= e^x.
    The computed g differs from it by at most err = gamma_8n (2 + (1 + sqrt(n)) x)
    e^x: the backward error u ||A|| carried through the exponential (at most
    u x e^x), and the rounding of its Pade evaluation and of its s squarings,
    with 2^s <= 1 + ||A||_1 <= 1 + sqrt(n) x, each below gamma_8n e^x (Al-Mohy
    and Higham 2009).  Shared powers keep that: at every order u_m and q_m sum
    terms b_j c^j b^j, each rounding c^j and its coefficient by a few u and b^j
    as A^j would, and I + 2 q_m^-1 u_m is q_m^-1 p_m.  So sigma_max(g) <= e^x +
    err.  The SVD's own rounding moves both extreme singular values by at most
    svd = sqrt(n) gamma_8n (e^x + err) (LAPACK's bound, p(n) u sigma_max), so
    the computed sigma_max is at most e^x + err + svd; the scale takes 2 svd,
    room for the rounding of the bound itself.
    """
    if not x < 700.0:  # e^x overflows near 709.8; the bound fails long before
        return False
    growth = math.exp(x)
    err = gamma(8 * n) * (2.0 + (1.0 + math.sqrt(n)) * x) * growth
    svd = math.sqrt(n) * gamma(8 * n) * (growth + err)
    return config.clears(1.0 / growth - err - svd, config.SINGULAR_RTOL,
                         1.0 + growth + err + 2.0 * svd, floor=True)


def _positive(mat: np.ndarray, scale: float, flow: _Flow, ratio: float) -> bool:
    """Whether ``psd_gate``'s eigenvalue tests certainly pass on
    mat = m rho m† / d (scale = 1 + ||mat||_F, ratio = ||m||_F^2 / d from
    ``prescaled_phi``), without eigvalsh.

    PSD: the Hermitian part of the exact m rho m† is m rho_H m†, whose smallest
    eigenvalue is at least rho_floor sigma_max(m)^2 >= rho_floor ||m||_F^2
    (Ostrowski; rho_floor <= 0).  The two complex products round by at most
    gamma_{4n+8} ||m||_F^2 ||rho||_F, and gradual underflow adds 2^-1075 per
    real product, under 3 n^2 2^-1074 / d on mat as ||m||_2 < 1: below
    n^2 2^-1070 ratio where ||m||_F >= 1/2.  Elsewhere m = g, so d passed the
    scaled DENOMINATOR_FLOOR itself, and this test passes only at tolerance
    scales of at least eig_allowance(n) / PSD_CLAMP_RTOL: the term is below
    n^2 2^-1000.  eigvalsh errs by ``eig_allowance`` ||mat||_F, and the
    allowance, ``eig_allowance`` * scale, exceeds that by 2^-51 or more: room
    for that term and the quotient's and eigvalsh's underflow, O(n^2 2^-1074).
    So -(smallest eigenvalue) <= (gamma_{4n+8} ||rho||_F - rho_floor +
    n^2 2^-1070) ratio + allowance, which must clear PSD_CLAMP_RTOL * scale.
    Nonzero: the largest eigenvalue is at least Tr(mat) / n less the same
    allowance and the trace's rounding, which must be above that bound.
    """
    n = mat.shape[0]
    allowance = eig_allowance(n) * scale
    deficit = (gamma(4 * n + 8) * flow.rho_norm - flow.rho_floor + n * n * 2.0 ** -1070) * ratio
    top = (float(mat.trace().real) - math.sqrt(n) * gamma(n) * scale) / n
    return (config.clears(deficit + allowance, config.PSD_CLAMP_RTOL, scale)
            and config.clears(top - allowance, config.PSD_CLAMP_RTOL, scale, floor=True))


def _flow_point(flow: _Flow, t) -> StateDensity:
    """phi(exp(t a), rho) from the flow's shared exponential ``flow.exp`` and
    one congruence, phi's own ``prescaled_phi``.  Each certificate that cannot decide runs the one test
    it stands in for: ``group_element``'s SVD where ``_invertible`` fails,
    before the congruence as in phi (so Singular comes before
    NumericallySingular), and ``psd_gate``'s eigvalsh of the same matrix, whose
    Hermitian test has run once already, where ``_positive`` fails.

    exp(t a) is invertible for every t, so a group element or state that
    fails validation here means the exponential overflowed or became too
    ill-conditioned to use: a NumericalError that names t.  Overflow
    warnings are silenced, since that error reports them.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            g = flow.exp(float(t))
            if not _invertible(abs(float(t)) * flow.gen_norm, flow.rho.n):
                group_element(g)
            mat, ratio = prescaled_phi(g, flow.rho)
            mat, scale = require_hermitian(mat, "functional")
            if not _positive(mat, scale, flow, ratio):
                psd_gate(mat, scale)
            mat.flags.writeable = False
            return unit_trace(mat)
    except ValidationError as exc:
        raise NumericalError(
            f"exp(t a) is not numerically usable at t = {float(t)!r}: {type(exc).__name__}: {exc}"
        ) from exc


def flow(rho0: StateDensity, a, t_grid) -> list[StateDensity]:
    """Trajectory t -> phi(exp(ta), rho0) over the given parameter grid.

    One evaluator E of t -> exp(t a) (``linalg._Exponential``) forms a's powers
    once, so a point costs its Pade evaluation, one solve, s squarings, one
    congruence (phi's, ``prescaled_phi``) and O(n^2) checks; the states have
    the bits of phi(E(t), rho0).  Two certificates stand in for the SVD of
    ``group_element`` and the eigvalsh of ``psd_gate``, ``validate_state``'s
    positivity tests (see ``_invertible`` and ``_positive``):

    - invertible, from x = |t| ||a||_F and n alone: e^-x, less the exponential's
      forward error err = gamma_8n (2 + (1 + sqrt(n)) x) e^x and the SVD's rounding
      sqrt(n) gamma_8n (e^x + err), exceeds SINGULAR_RTOL (1 + e^x + err);
    - a state: with B = PSD_CLAMP_RTOL (1 + ||rho_t||_F), ``_positive``'s lower
      bound on the spectrum of rho_t (from rho0's eigen-record) is above
      -B, and Tr(rho_t) / n less eigvalsh's allowance is above B.

    Where a certificate fails, the point runs the one test it stands in for
    and keeps its congruence: the SVD of exp(ta) where x is above the cut-off
    (13.80, 13.74, 13.46 and 12.77 at n = 1, 4, 16 and 64, tolerance scale 1),
    and ``psd_gate``'s eigvalsh of rho_t where a rank-deficient rho0 is moved by a badly
    conditioned exp(ta), or at every point at a tolerance scale below about
    3e-3 at n = 64, where eigvalsh's allowance alone exceeds PSD_CLAMP_RTOL's
    bound.  So every error is the one phi(group_element(exp(ta)), rho0)
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
    ``a`` is a generator, whose velocity is then ``tangent_phi``'s, or the
    TangentVector ``tangent_phi`` gave at rho.  The two points are ``flow``'s,
    with its certificates and fallback, so they share one exponential, cost two
    congruences, and read rho's eigen-record.  A step so small that the quotient
    overflows raises NumericalError, and so does one whose quotient rounding
    may swallow whole: the allowance gamma_{4n+8} (||fwd||_F + ||bwd||_F) / 2|h|
    of the two points' congruences (as in ``_positive``) is not below
    1 + ||value||_F.
    """
    if not (math.isfinite(h) and h != 0.0):
        raise ValidationError(f"finite-difference step must be finite and nonzero, got {h}")
    rho = validate_state(rho)  # once, for tangent_phi and the flow
    vec = a if isinstance(a, TangentVector) else tangent_phi(rho, a)
    f = _flow_of(rho, vec.generator)
    fwd = _flow_point(f, h).matrix
    bwd = _flow_point(f, -h).matrix
    with np.errstate(over="ignore", invalid="ignore"):  # a complex 0 over subnormal 2h: 0 * inf
        fd = (fwd - bwd) / (2.0 * h)
    scale = fro_scale(vec.value)
    error = frobenius(fd - vec.value) / scale
    if not math.isfinite(error):
        raise NumericalError(f"finite-difference quotient overflows double precision at h = {h}")
    allowance = gamma(4 * f.rho.n + 8) * (frobenius(fwd) + frobenius(bwd)) / (2.0 * abs(h))
    config.check(f"finite-difference quotient at h = {h} lost to rounding: 1 + ||value||_F",
                 scale, 0.0, 1.0, NumericalError, floor=True, slack=allowance)
    return error


def _singular_values(rho: PositiveFunctional) -> np.ndarray:
    """Singular values of a -> phi_velocity(m, a) except the zeros forced by its form,
    where m is the matrix of the validated value ``rho``, read off its eigen-record.

    In the eigenbasis m = W diag(p) W†, each pair j < l of off-diagonal
    entries gives sqrt(2(p_j^2 + p_l^2)) twice, and Re a_jj gives
    |eigenvalues| of 2(diag(p) - p p^T); the other n^2 directions map to 0.
    """
    p = _eigenpairs(rho).eigenvalues
    j, l = np.nonzero(~np.tri(p.shape[0], dtype=bool))
    pairs = np.sqrt(2.0 * (p[j] ** 2 + p[l] ** 2))
    diagonal = np.abs(np.linalg.eigvalsh(2.0 * (np.diag(p) - np.outer(p, p))))
    return np.concatenate([pairs, pairs, diagonal])


def tangent_map_rank(rho: StateDensity) -> int:
    """Numerical rank of the real-linear map a -> phi_velocity(rho, a): singular
    values at or below the scaled TANGENT_RANK_RTOL times the largest, or at or
    below the rank cut of rho (binding only for a zero map, n = 1), count as zero.

    It equals the orbit dimension of the normalized action at rho,
    n^2 - (n-k)^2 - 1 at rank k, when no singular value of the map falls below
    that cut.  Eigenvalues far below the largest can put some there: at
    rho = diag(1 - 2e, e, e) the rank is 4 for e = 1e-9, where the orbit
    dimension is 8 (as at e = 1e-8).  The singular values come in
    closed form from the spectrum of rho (``_singular_values``) in O(n^3) time
    and O(n^2) memory; the tests check them against the SVD of the dense
    2n^2 x 2n^2 realified map.
    """
    rho = validate_state(rho)
    s = _singular_values(rho)
    cut = max(config.scaled(config.TANGENT_RANK_RTOL) * s.max(), default_rank_tol(rho.matrix))
    return int(np.sum(s > cut))
