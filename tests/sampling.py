"""Seeded random generators for experiments and tests.

Everything takes an explicit ``numpy.random.Generator`` so runs are
reproducible; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from stategeom.errors import ValidationError
from stategeom.linalg import dagger, frobenius
from stategeom.states import ProbabilityVector, StateDensity, validate_probability, validate_state

__all__ = [
    "random_hermitian",
    "random_unitary",
    "random_invertible",
    "random_state",
    "random_probability",
    "random_direction",
]


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with entries of the given scale."""
    m = _ginibre(rng, n) * scale
    return (m + dagger(m)) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary (QR of a Ginibre matrix with phase fix)."""
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r).copy()
    d /= np.abs(d)
    return q * d


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible matrix with singular values in [0.5, 2].

    The range keeps the condition number small so congruences stay well
    away from the numerical rank thresholds.
    """
    s = rng.uniform(0.5, 2.0, size=n)
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n)


def _random_spectrum(rng: np.random.Generator, rank: int, floor: float) -> np.ndarray:
    w = floor + rng.uniform(0.0, 1.0, size=rank)
    return np.sort(w / w.sum())[::-1]


def random_state(rng: np.random.Generator, n: int, rank: int | None = None,
                 floor: float = 0.2) -> StateDensity:
    """Random density matrix with prescribed rank.

    Eigenvalues are floored away from zero (before normalization) so the
    computed rank is unambiguous.
    """
    rank = n if rank is None else rank
    if not 1 <= rank <= n:
        raise ValidationError(f"rank must lie in [1, {n}], got {rank}")
    w = np.zeros(n)
    w[:rank] = _random_spectrum(rng, rank, floor)
    u = random_unitary(rng, n)
    m = (u * w) @ dagger(u)
    return validate_state((m + dagger(m)) / 2.0)


def random_probability(rng: np.random.Generator, m: int) -> ProbabilityVector:
    """Uniform (flat Dirichlet) random point of the simplex."""
    return validate_probability(rng.dirichlet(np.ones(m)))


def random_direction(rng: np.random.Generator, n: int, norm: float = 1.0) -> np.ndarray:
    """Random Lie-algebra direction (general complex matrix) of given norm."""
    m = _ginibre(rng, n)
    return m * (norm / frobenius(m))
