"""Finite-dimensional GNS construction for states on the full matrix algebra.

At finite dimension the GNS triple of rho = sum_j p_j |e_j><e_j| (rank k) is
its purification: the Hilbert space is C^n kron C^k, the representation is
pi(a) = a kron I_k, and the cyclic vector is psi = sum_j sqrt(p_j) e_j kron f_j,
so rho(a) = <psi| pi(a) |psi> and the dimension is n * rank(rho).  Vectors are
stored row-major over C^n kron C^k, i.e. as the flattened n x k coefficient
matrix X = [sqrt(p_1) e_1, ..., sqrt(p_k) e_k], on which pi(a) acts as
X -> a X.  The support is that of ``spectral_split``.  The commutant of pi is
I_n kron M_k, of dimension k^2, so pi is irreducible exactly for pure states,
and an invertible element g transports the cyclic vector to
pi(g)|psi> / sqrt(<psi|pi(g†g)|psi>), implementing the normalized action
inside a fixed representation.  The transport refuses the elements that
``phi`` refuses, by phi's own normalization and floor test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .actions import _normalization, group_element
from .errors import NumericalError, ValidationError
from .linalg import as_operator, frobenius
from .states import (ProbabilityVector, StateDensity, _frozen, default_rank_tol, scale_of,
                     spectral_split, validate_probability, validate_state)


@dataclass(frozen=True)
class GnsTriple:
    """GNS data: Hilbert-space dimension and cyclic vector of C^n kron C^k.

    The representation pi(a) = a kron I_k is implicit, so any algebra element
    can be represented, not only basis elements.
    """

    n: int
    dim: int
    cyclic: np.ndarray     # length dim = n * k, unit norm, row-major over C^n kron C^k

    def _coefficients(self) -> np.ndarray:
        """The cyclic vector as its n x k coefficient matrix."""
        return self.cyclic.reshape(self.n, self.dim // self.n)

    def rep(self, a) -> np.ndarray:
        """Represent left multiplication by ``a`` on the GNS space: a kron I_k,
        with ``a`` written into the diagonal of each k x k block of one zeroed
        array, so every entry off those diagonals is +0.0."""
        m = as_operator(a, "algebra element", self.n)
        k = self.dim // self.n
        out = np.zeros((self.n, k, self.n, k), dtype=complex)
        np.einsum("ijkj->jik", out)[...] = m  # out[i, j, l, j] = m[i, l] for every j
        return out.reshape(self.dim, self.dim)

    def vector_of(self, a) -> np.ndarray:
        """GNS coordinates of the class of ``a``, i.e. pi(a)|psi>."""
        return (as_operator(a, "algebra element", self.n) @ self._coefficients()).ravel()

    def expectation(self, a) -> complex:
        """Vector expectation <psi| rep(a) |psi>; equals rho(a) for the source state."""
        x = self._coefficients()
        return complex(np.vdot(x, as_operator(a, "algebra element", self.n) @ x))


def gns_construct(rho: StateDensity) -> GnsTriple:
    """Build the GNS triple of a state; its support is that of ``spectral_split``.
    ``rho`` passes ``validate_state`` first, so a functional that is not a state
    raises TraceError."""
    split = spectral_split(validate_state(rho))
    n = split.ambient_dim
    cyclic = (split.support_basis * np.sqrt(split.eigenvalues)).ravel()
    return GnsTriple(n=n, dim=n * split.support_dim, cyclic=_frozen(cyclic))


def gns_transform(triple: GnsTriple, g, rho: StateDensity) -> GnsTriple:
    """Transport the cyclic vector by an invertible element.

    The new vector pi(g)|psi> / ||pi(g)|psi>|| represents the normalized action
    of g on the source state inside the same representation.  ``rho`` must be
    the state the triple was built from.  Like ``phi`` it runs on m = g / 2^e,
    2^e the power of two above ||g||_F, so large g stay finite, and it refuses
    exactly where ``phi`` does: m and the floor test on Tr(m rho m†) are phi's
    (``actions._normalization``), and the floor test runs before the
    consistency test.  That test checks the vector it moves: its squared norm
    ||pi(m)|psi>||^2 = <psi|pi(m†m)|psi> must reproduce rho(m†m) = Tr(m rho m†).
    A triple that is not rho's fails it, for small g too: its bound is relative
    to ||g||_F^2 where ||g||_F < 1.  A triple of another dimension is refused
    by ``vector_of``'s operand gate.
    """
    rho = validate_state(rho)
    m, e, m_norm, _, from_state = _normalization(group_element(g, rho.n).matrix, rho)
    moved = triple.vector_of(m)
    norm = frobenius(moved)
    # ||pi(m)|psi>||^2 must reproduce rho(m†m) = Tr(m rho m†), up to rounding of order
    # u ||m||_F^2; the bound 2^-2e rtol (min(1, ||g||_F^2) + rho(g†g)) is
    # rtol (min(2^-2e, ||m||_F^2) + rho(m†m)), where ||m||_F = ||g||_F when e = 0
    config.check(f"|<psi|pi(m†m)|psi> - rho(m†m)|, m = g / 2^{e},",
                 abs(norm * norm - from_state), config.GNS_CONSISTENCY_RTOL,
                 min(math.ldexp(1.0, -2 * e), m_norm * m_norm) + abs(from_state), ValidationError)
    return GnsTriple(n=triple.n, dim=triple.dim, cyclic=_frozen(moved / norm))


def commutant_dimension(triple: GnsTriple) -> int:
    """Complex dimension k^2 of the commutant I_n kron M_k of pi(a) = a kron I_k."""
    return (triple.dim // triple.n) ** 2


def purity_check(rho: StateDensity) -> bool:
    """Whether the state is pure: rank one, so the commutant is trivial.

    The purification is certified in O(n k^2): the Schmidt coefficients of psi
    (squared singular values of its coefficient matrix) must number k under
    the rank rule and match the eigenvalues within the scaled
    GNS_CONSISTENCY_RTOL * (1 + p_max), else NumericalError.  ``rho`` passes
    ``validate_state`` first, so a functional that is not a state raises TraceError.
    """
    rho = validate_state(rho)
    split = spectral_split(rho)
    k = split.support_dim
    p = split.eigenvalues
    schmidt = np.linalg.svd(split.support_basis * np.sqrt(p), compute_uv=False) ** 2
    rank = int(np.sum(schmidt > default_rank_tol(rho.matrix, scale_of(rho))))
    if rank != k:
        raise NumericalError(f"purification: Schmidt rank {rank} vs rank {k} of the spectrum")
    config.check("largest Schmidt coefficient gap", float(np.max(np.abs(schmidt - p))),
                 config.GNS_CONSISTENCY_RTOL, 1.0 + float(p[0]), NumericalError)
    return k == 1


@dataclass(frozen=True)
class AbelianGnsTriple:
    """GNS data for the diagonal subalgebra acting on a classical state.

    The Gram matrix over the diagonal matrix units is diag(p), so the GNS
    dimension is the support size; a Dirac vector yields a one-dimensional
    space on which the representation is scalar.
    """

    m: int
    dim: int
    support: np.ndarray    # indices of the support, ascending
    cyclic: np.ndarray     # sqrt of the supported probabilities

    def rep(self, f) -> np.ndarray:
        values = np.asarray(f, dtype=complex)
        if values.shape != (self.m,):
            raise ValidationError(f"expected a length-{self.m} diagonal element")
        if not np.isfinite(values).all():
            raise ValidationError("diagonal element contains non-finite entries")
        return np.diag(values[self.support])

    def expectation(self, f) -> complex:
        return complex(np.conjugate(self.cyclic) @ self.rep(f) @ self.cyclic)


def gns_construct_abelian(p: ProbabilityVector) -> AbelianGnsTriple:
    """GNS construction restricted to the diagonal (classical) subalgebra; ``p``
    passes ``validate_probability`` first."""
    weights = validate_probability(p).p
    # the rank rule of spectral_split(embed_classical(p)): ||diag(p)||_F = ||p||_2
    support = np.flatnonzero(weights > default_rank_tol(weights))
    return AbelianGnsTriple(
        m=weights.shape[0],
        dim=int(support.size),
        support=_frozen(support),
        cyclic=_frozen(np.sqrt(weights[support])),
    )
