"""Tangent vectors of both actions, covariance pairing and one-parameter flows.

Differentiating t -> exp(ta) xi exp(ta)† at t = 0 gives the congruence
velocity a xi + xi a†, which splits as {xi, x} - i[xi, y] for a = x + iy with
x, y Hermitian.  The normalized action adds the trace correction
-Tr(a rho + rho a†) rho, making the velocity traceless.  Flows evaluate
exp(ta) exactly per grid point rather than stepping an ODE.

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
from .actions import group_element, phi
from .errors import NumericalError, ValidationError
from .linalg import as_operator, dagger, frobenius, matrix_exp, require_hermitian, sorted_eigh
from .states import PositiveFunctional, StateDensity, default_rank_tol

__all__ = [
    "TangentVector",
    "alpha_velocity",
    "phi_velocity",
    "tangent_alpha",
    "tangent_phi",
    "covariance",
    "flow",
    "fd_tangent_check",
    "tangent_map_rank",
]


@dataclass(frozen=True)
class TangentVector:
    """Velocity of a one-parameter flow through ``base`` generated by ``generator``."""

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
    gen = as_operator(a, "generator", xi.n)
    return TangentVector(base=xi, value=alpha_velocity(xi.matrix, gen), generator=gen)


def tangent_phi(rho: StateDensity, a) -> TangentVector:
    """Tangent vector of the normalized action at ``rho``; always traceless."""
    gen = as_operator(a, "generator", rho.n)
    return TangentVector(base=rho, value=phi_velocity(rho.matrix, gen), generator=gen)


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


def _flow_point(rho0: StateDensity, gen: np.ndarray, t) -> StateDensity:
    """phi(exp(t gen), rho0).

    exp(t gen) is invertible for every t, so a group element or state that
    fails validation here means the exponential overflowed or became too
    ill-conditioned to use: a NumericalError that names t.  Overflow
    warnings are silenced, since that error reports them.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return phi(group_element(matrix_exp(t * gen)), rho0)
    except ValidationError as exc:
        raise NumericalError(
            f"exp(t a) is not numerically usable at t = {float(t)!r}: {type(exc).__name__}: {exc}"
        ) from exc


def flow(rho0: StateDensity, a, t_grid) -> list[StateDensity]:
    """Trajectory t -> phi(exp(ta), rho0) over the given parameter grid.

    Raises NumericalError, naming the first failing t, where exp(ta)
    overflows or exceeds the singularity limit.
    """
    gen = as_operator(a, "generator", rho0.n)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
        raise ValidationError(f"t_grid must be a nonempty 1-d finite array, got shape {ts.shape}")
    return [_flow_point(rho0, gen, t) for t in ts]


def fd_tangent_check(rho: StateDensity, a, h: float = config.FD_STEP) -> float:
    """Relative error between the central difference of the flow and tangent_phi.

    Returns ||fd - value||_F / (1 + ||value||_F) with the symmetric
    difference (phi(exp(ha)) - phi(exp(-ha))) / 2h; h must be finite and nonzero.
    """
    if not (math.isfinite(h) and h != 0.0):
        raise ValidationError(f"finite-difference step must be finite and nonzero, got {h}")
    gen = as_operator(a, "generator", rho.n)
    value = phi_velocity(rho.matrix, gen)
    fwd = _flow_point(rho, gen, h).matrix
    bwd = _flow_point(rho, gen, -h).matrix
    fd = (fwd - bwd) / (2.0 * h)
    return frobenius(fd - value) / (1.0 + frobenius(value))


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
