"""Tangent vectors of both actions, the covariance pairing and one-parameter flows.

A tangent vector is a velocity formula of ``actions`` (``alpha_velocity`` or
``phi_velocity``) at a validated value, made by one body, ``_tangent``.  A flow
is the point function t -> phi(exp(ta), rho) that ``_flow_of`` returns: a
closure over one evaluator of exp(ta), whose powers of a every point shares, and
the norm its invertibility certificate reads; the positivity certificate reads
rho's floor and norm (``actions._rates``).  Each point evaluates
exp(ta) exactly rather than stepping an ODE, with one congruence; two O(n^2)
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
from .actions import _rates, alpha_velocity, group_element, phi_state, phi_velocity
from .errors import NumericalError, ValidationError
from .linalg import (_Exponential, as_operator, fro_scale, frobenius, gamma, in_range,
                     require_hermitian)
from .states import (GATE, PositiveFunctional, StateDensity, _eigenpairs, _frozen,
                     default_rank_tol, scale_of, validate_positive, validate_state)


@dataclass(frozen=True)
class TangentVector:
    """Velocity ``value`` at t = 0 of the flow of ``generator`` through the
    functional it was computed at; both arrays are frozen copies, like a
    validated value's."""

    value: np.ndarray
    generator: np.ndarray


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
    am = require_hermitian(a, "a", rho.n)[0]
    bm = require_hermitian(b, "b", rho.n)[0]
    m = rho.matrix

    def evaluate():
        quad = float(np.trace(m @ (am @ bm + bm @ am)).real)
        return quad - 2.0 * float(np.trace(m @ am).real) * float(np.trace(m @ bm).real)

    return in_range("covariance", math.inf, evaluate)


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
    growth, rate, root = math.exp(x), gamma(8 * n), math.sqrt(n)
    err = rate * (2.0 + (1.0 + root) * x) * growth
    svd = root * rate * (growth + err)
    return config.clears(1.0 / growth - err - svd, config.SINGULAR_RTOL,
                         1.0 + growth + err + 2.0 * svd, floor=True)


def _flow_of(rho: StateDensity, a):
    """The point function t -> phi(exp(t a), rho) of the flow of ``rho`` along ``a``:
    a closure over the evaluator of t -> exp(t a) and ||a||_F.

    A point is phi(exp(t a), rho) from the shared exponential and one
    congruence, phi's own ``phi_state``.  Each certificate that cannot decide
    runs the one test it stands in for: ``group_element``'s SVD where
    ``_invertible`` fails, before the congruence as in phi (so Singular comes
    before NumericallySingular), and ``psd_gate``'s eigvalsh where the congruence
    certificate from rho's ``actions._rates`` fails (``actions._positive``).

    exp(t a) is invertible for every t, so a group element or state that
    fails validation here means the exponential overflowed or became too
    ill-conditioned to use: a NumericalError that names t and the error it
    stands for.  So does group_element's own NumericalError, a largest singular
    value that overflows.  phi's NumericallySingular, d at the denominator floor,
    passes as phi raises it.  The caller silences overflow warnings, since those
    errors report them.
    """
    rho = validate_state(rho)
    rates = _rates(rho)
    gen = as_operator(a, "generator", rho.n)
    exp, gen_norm = _Exponential(gen), frobenius(gen)

    def point(t) -> StateDensity:
        g = exp(float(t))  # a singular Pade denominator raises its own error, naming t
        wrapped = (ValidationError, NumericalError)  # group_element's refusals, both classes
        try:
            if not _invertible(abs(float(t)) * gen_norm, rho.n):
                group_element(g)
            wrapped = ValidationError  # phi's floor, a NumericalError, passes as phi raises it
            return phi_state(g, rho, rates)
        except wrapped as exc:  # read as the error propagates
            raise NumericalError(f"exp(t a) is not numerically usable at t = {float(t)!r}: "
                                 f"{type(exc).__name__}: {exc}") from exc

    return point


def flow(rho0: StateDensity, a, t_grid) -> list[StateDensity]:
    """Trajectory t -> phi(exp(ta), rho0) over the given parameter grid.

    One evaluator E of t -> exp(t a) (``linalg._Exponential``) forms a's powers
    once, so a point costs its Pade evaluation, one solve, s squarings, one
    congruence (phi's, ``actions.phi_state``) and O(n^2) checks; the states have
    the bits of phi(E(t), rho0).  Two certificates stand in for the SVD of
    ``group_element`` and the eigvalsh of ``psd_gate``, ``validate_state``'s
    positivity tests (see ``_invertible`` and ``actions._positive``):

    - invertible, from x = |t| ||a||_F and n alone: e^-x, less the exponential's
      forward error err = gamma_8n (2 + (1 + sqrt(n)) x) e^x and the SVD's rounding
      sqrt(n) gamma_8n (e^x + err), exceeds SINGULAR_RTOL (1 + e^x + err);
    - a state: with B = PSD_CLAMP_RTOL (1 + ||rho_t||_F), the congruence
      certificate's lower bound on the spectrum of rho_t (``actions._positive``, from
      rho0's floor and norm, ``actions._rates``) is above -B, and Tr(rho_t) / n less
      eigvalsh's allowance is above B.

    Where a certificate fails, the point runs the one test it stands in for
    and keeps its congruence: the SVD of exp(ta) where x is above the cut-off
    (13.80, 13.74, 13.46 and 12.77 at n = 1, 4, 16 and 64, tolerance scale 1),
    and ``psd_gate``'s eigvalsh of rho_t where a rank-deficient rho0 is moved by a badly
    conditioned exp(ta), or at every point at a tolerance scale below about
    3e-3 at n = 64, where eigvalsh's allowance alone exceeds PSD_CLAMP_RTOL's
    bound.  So every error is the one phi(group_element(exp(ta)), rho0)
    raises, at the first failing t: phi's NumericallySingular as it is, and any
    other as a NumericalError that names t, where exp(ta) overflows or exceeds
    the singularity limit, and "exp(t a) is not numerically usable at t = 1.0:
    NumericalError: singular value overflows double precision" where only its
    largest singular value does.
    """
    point = _flow_of(rho0, a)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.logical_and.reduce(np.isfinite(ts)):
        raise ValidationError(f"t_grid must be a nonempty 1-d finite array, got shape {ts.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return [point(t) for t in ts]


def fd_tangent_check(rho: StateDensity, a, h: float = config.FD_STEP) -> float:
    """Relative error between the central difference of the flow and tangent_phi.

    Returns ||fd - value||_F / (1 + ||value||_F) with the symmetric
    difference (phi(exp(ha)) - phi(exp(-ha))) / 2h; h must be finite and nonzero.
    ``a`` is a generator, whose velocity is then ``tangent_phi``'s, or the
    TangentVector ``tangent_phi`` gave at rho.  The two points are ``flow``'s,
    with its certificates and fallback, so they share one exponential, cost two
    congruences, and read rho's ``actions._rates``.  A step so small that the quotient
    overflows raises NumericalError, and so does one whose quotient rounding
    may swallow whole: the allowance gamma_{4n+8} (||fwd||_F + ||bwd||_F) / 2|h|
    of the two points' congruences (as in ``actions._positive``; the norms are the
    points' gate records') is not below 1 + ||value||_F.
    """
    if not (math.isfinite(h) and h != 0.0):
        raise ValidationError(f"finite-difference step must be finite and nonzero, got {h}")
    rho = validate_state(rho)  # once, for tangent_phi and the flow
    vec = a if isinstance(a, TangentVector) else tangent_phi(rho, a)
    point = _flow_of(rho, vec.generator)
    with np.errstate(over="ignore", invalid="ignore"):  # and a complex 0 over subnormal 2h: 0 * inf
        fwd, bwd = point(h), point(-h)
        fd = (fwd.matrix - bwd.matrix) / (2.0 * h)
    scale = fro_scale(vec.value)
    error = frobenius(fd - vec.value) / scale
    if not math.isfinite(error):
        raise NumericalError(f"finite-difference quotient overflows double precision at h = {h}")
    norms = fwd.__dict__[GATE][1] + bwd.__dict__[GATE][1]  # the points' ||.||_F
    allowance = gamma(4 * rho.n + 8) * norms / (2.0 * abs(h))
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
    cut = max(config.scaled(config.TANGENT_RANK_RTOL) * s.max(),
              default_rank_tol(rho.matrix, scale_of(rho)))
    return int(np.sum(s > cut))
