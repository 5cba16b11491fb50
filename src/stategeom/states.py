"""Positive functionals, states and probability vectors.

A normal positive functional on the n x n matrix algebra is represented by a
Hermitian PSD matrix through the trace pairing xi(a) = Tr(xi a); a state is
the unit-trace case, and a classical state is a probability vector (embedded
as a diagonal density matrix).  This module owns validation, the spectral
split into support and kernel, orbit-class labels and spectrum generators
for truncation experiments.

Values are immutable after validation (array buffers are frozen), so they
are safe to share across threads.  A validated value is its own certificate:
each validator returns a value of its own kind unchanged, and ``validate_state``
gives a positive functional that is not yet a state only the trace test, so a
caller passes whatever it holds and never asks whether it is validated already.
A value built directly from its class is trusted as built.

The spectrum of a value is decomposed once.  The first spectral question asked
of it (``spectral_split`` and so the orbit class, ``connect_*``, the GNS
support, purity and the isotropy blocks, or ``tangent_map_rank``) keeps
``sorted_eigh(matrix)`` in the value's ``__dict__``, outside the dataclass
fields, so equality and ``repr`` ignore it; every later question reads the same
bits.  The record is kept only on a matrix that is read-only and owns its data,
as ``_frozen`` leaves it, and it assumes that such a matrix is never written
again.  The flags cannot prove that: numpy lets the owner of an array turn
``writeable`` back on, and a caller may pass its own read-only, data-owning array
to ``PositiveFunctional(matrix=a)``; writing to either after the first spectral
question leaves a stale record.  A value built from its class on a writable
array, or on a view of one, is decomposed on every call.
The record carries no tolerance: each call applies the rank cut under the
calling context's tolerance scale, so ``--tol`` and ``config.set_tolerance_scale``
act on a value that already has one, and threads at different scales share one
record, each cutting at its own scale.  Two threads that ask first at once may both
decompose; both store the same read-only bits, and the first stored is kept.
It is built on first use, not at validation, because every output of ``phi``,
``alpha`` and ``connect_*`` is validated and most are never asked about their
spectrum.

Validation itself leaves a smaller record, the gate record (``scale_of``): the
norm ||matrix||_F its Hermitian test took and the smallest eigenvalue its PSD gate
found.  It is made with the value, by the tests it records, and never on a
later call.  The rank cut, the connection residual and the isotropy residual
read the norm from it, and the congruence certificate reads both
(``actions._positive``): an image of the value under ``phi``, ``alpha`` or a
``flow`` point is then shown positive without an eigensolver, and carries the
certificate's bound as its own record.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotPSD, TraceError, ValidationError, ZeroFunctional
from .linalg import (SpectralDecomposition, dagger, fro_scale, gamma, hermitian_part, in_range,
                     require_dimension, require_hermitian, sorted_eigh)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=a.dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PositiveFunctional:
    """A nonzero Hermitian PSD matrix acting by xi(a) = Tr(xi a)."""

    matrix: np.ndarray

    def __array__(self, dtype=None, copy=None):
        """The frozen matrix, so the value is an operand wherever an array is."""
        return np.array(self.matrix, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        """Tr xi; NumericalError when it overflows, though every entry is finite."""
        return float(in_range("trace", np.inf, lambda: self.matrix.trace().real))


@dataclass(frozen=True)
class StateDensity(PositiveFunctional):
    """A positive functional with unit trace (a density matrix)."""


@dataclass(frozen=True)
class ProbabilityVector:
    """A point of the probability simplex (a classical state)."""

    p: np.ndarray

    @property
    def m(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class SpectralSplit:
    """Support/kernel decomposition of a positive functional.

    ``support_basis`` holds the eigenvectors of the strictly positive
    eigenvalues (sorted non-increasing) and ``kernel_basis`` the rest; the
    horizontal concatenation is unitary.
    """

    eigenvalues: np.ndarray
    support_basis: np.ndarray
    kernel_basis: np.ndarray

    @property
    def support_dim(self) -> int:
        return self.support_basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.support_basis.shape[0]

    @property
    def corank(self) -> int:
        return self.kernel_basis.shape[1]

    def full_basis(self) -> np.ndarray:
        return np.concatenate((self.support_basis, self.kernel_basis), axis=1)

    def reconstruct(self) -> np.ndarray:
        e = self.support_basis
        return (e * self.eigenvalues) @ dagger(e)


@dataclass(frozen=True)
class OrbitClass:
    """Rank/corank class of a positive functional, as computed from its spectrum.

    At finite ambient dimension only the finite-rank class occurs, so ``tag``
    is "FiniteRank(rank)".
    """

    rank: int
    corank: int
    tag: str


def default_rank_tol(m: np.ndarray, scale: float | None = None) -> float:
    """The rank cut RANK_RTOL (1 + ||m||_F), from m's ``scale`` where the caller has it."""
    return config.scaled(config.RANK_RTOL) * (fro_scale(m) if scale is None else scale)


# The key of a validated value's gate record in its __dict__ (see ``scale_of``).
GATE = "_gate"


def validate_positive(m) -> PositiveFunctional:
    """Validate a matrix as a nonzero positive functional.

    Raises NotHermitian, NotPSD or ZeroFunctional.  A PositiveFunctional, so a
    StateDensity too, is its own certificate and is returned as it is (see
    ``validate_state``).
    """
    if isinstance(m, PositiveFunctional):
        return m
    mat, norm, scale = require_hermitian(m, "functional")
    value = PositiveFunctional(matrix=_frozen(mat))
    value.__dict__[GATE] = psd_gate(mat, scale), norm
    return value


def psd_gate(mat: np.ndarray, scale: float) -> float:
    """``validate_positive``'s eigenvalue tests, one eigvalsh, on a matrix that
    passed ``require_hermitian`` with its scale 1 + ||mat||_F; returns the smallest
    eigenvalue, the first entry of the gate record (``scale_of``)."""
    w = np.linalg.eigvalsh(hermitian_part(mat))
    config.check("-(smallest eigenvalue)", -w[0], config.PSD_CLAMP_RTOL, scale, NotPSD)
    config.check("largest eigenvalue", w[-1], config.PSD_CLAMP_RTOL, scale, ZeroFunctional,
                 floor=True)
    return float(w[0])


def scale_of(value: PositiveFunctional) -> float:
    """1 + ||value.matrix||_F, from the norm in the value's gate record where it has one.

    Validation leaves a gate record (low, ||matrix||_F) in the value's ``__dict__``
    under ``GATE``, outside the dataclass fields, as the eigen-record is kept: the
    norm its Hermitian test took, and a number whose excess over eig_allowance(n)
    ||matrix||_F is at most the smallest eigenvalue of the matrix's exact Hermitian
    part.  ``psd_gate``'s smallest eigenvalue is one (eigvalsh errs by less than
    that allowance); the congruence certificate's lower bound is another
    (``actions._positive``), which its outputs keep.  So a value certifies the
    positivity of its congruences without a second eigensolver.  A value built from
    its class has no record; ``actions._rates`` reads its eigen-record in its place."""
    record = value.__dict__.get(GATE)
    return fro_scale(value.matrix, None if record is None else record[1])


def validate_state(m) -> StateDensity:
    """Validate a matrix as a density matrix (positive, unit trace).

    A StateDensity is its own certificate and is returned as it is; any other
    PositiveFunctional takes only the trace test (``unit_trace``).  A value is
    trusted as its class constructor built it: ``StateDensity(matrix=a)`` on an
    array that is not a state is not caught here, as a ``GroupElement`` built on
    a singular matrix is not caught by ``group_element``.
    """
    if isinstance(m, StateDensity):
        return m
    return unit_trace((value := validate_positive(m)).matrix, value.__dict__.get(GATE))


def unit_trace(frozen: np.ndarray, record: tuple[float, float] | None) -> StateDensity:
    """``validate_state``'s trace test on a frozen matrix that passed (or is
    certified to pass) ``validate_positive``; the state keeps its gate ``record``."""
    # summed in Python floats, where a sum that overflows is inf without a warning; the
    # slack is the rounding of a sum of n terms in any order, gamma_(n+1)
    trace = sum(frozen.diagonal().real.tolist())
    config.check("|trace - 1|", abs(trace - 1.0), config.TRACE_ATOL, 1.0, TraceError,
                 slack=gamma(frozen.shape[0] + 1))
    state = StateDensity(matrix=frozen)
    state.__dict__[GATE] = record
    return state


def validate_probability(p) -> ProbabilityVector:
    """Validate a real vector as a point of the probability simplex.  A
    ProbabilityVector is its own certificate and is returned as it is."""
    if isinstance(p, ProbabilityVector):
        return p
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValidationError(f"probability vector must be 1-d and nonempty, got shape {v.shape}")
    if not np.logical_and.reduce(np.isfinite(v)):
        raise ValidationError("probability vector contains non-finite entries")
    if np.minimum.reduce(v) < 0.0:
        raise NotPSD(f"probability vector has negative entry {v.min():.3e}")
    # a sum that may overflow, with an entry above DBL_MAX / m, is summed in Python
    # floats, where overflow is inf without a warning
    total = v.sum() if np.maximum.reduce(v) <= sys.float_info.max / v.shape[0] else sum(v.tolist())
    config.check("|sum - 1|", abs(total - 1.0), config.PROBABILITY_ATOL, 1.0, TraceError,
                 slack=gamma(v.shape[0] + 1))
    return ProbabilityVector(p=_frozen(v))


def _eigenpairs(value: PositiveFunctional) -> SpectralDecomposition:
    """``sorted_eigh(value.matrix)``, kept on ``value`` after its first use when
    the matrix is read-only and owns its data, as ``_frozen`` leaves it; such a
    matrix is assumed never to be written again (see the module docstring).  A
    writable matrix, or a view, is decomposed on every call."""
    mat = value.matrix
    if mat.flags.writeable or mat.base is not None:
        return sorted_eigh(mat)
    record = value.__dict__.get("_eigenpairs")
    if record is None:
        # two threads may both decompose; the first record stored is kept
        record = value.__dict__.setdefault("_eigenpairs", sorted_eigh(mat))
    return record


def spectral_split(rho) -> SpectralSplit:
    """Split the ambient space into the support and kernel of ``rho``:
    eigenvalues at or below 1e-12*(1+||rho||_F) count as kernel."""
    value = validate_positive(rho)
    dec = _eigenpairs(value)
    k = int(np.count_nonzero(dec.eigenvalues > default_rank_tol(value.matrix, scale_of(value))))
    if k == 0:
        raise ZeroFunctional("functional has empty support at the given tolerance")
    # read-only views of the eigenpairs, which are frozen already
    return SpectralSplit(
        eigenvalues=dec.eigenvalues[:k],
        support_basis=dec.eigenvectors[:, :k],
        kernel_basis=dec.eigenvectors[:, k:],
    )


def min_eigenvalue(value: PositiveFunctional) -> float:
    """The smallest eigenvalue of the Hermitian part of ``value.matrix``, from
    its eigen-record."""
    return float(_eigenpairs(value).eigenvalues[-1])


def classify_orbit(rho) -> OrbitClass:
    """Rank/corank orbit label of a positive functional."""
    split = spectral_split(rho)
    k = split.support_dim
    return OrbitClass(rank=k, corank=split.corank, tag=f"FiniteRank({k})")


def embed_classical(p) -> StateDensity:
    """Diagonal embedding of a probability vector as a density matrix."""
    return validate_state(np.diag(validate_probability(p).p.astype(complex)))


def gibbs_spectrum(n: int, ratio: float) -> np.ndarray:
    """Normalized geometric spectrum c*(1, r, ..., r^(n-1)), descending.

    Built by cumulative products so successive entry ratios reproduce ``r``
    exactly when r is exactly representable (for example r = 0.5).
    """
    n = require_dimension(n)
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must lie in (0, 1), got {ratio}")
    raw = np.concatenate([[1.0], np.full(n - 1, ratio)]).cumprod()
    return raw / raw.sum()


def gibbs_family(n: int, ratio: float) -> StateDensity:
    """Full-rank diagonal state with geometric eigenvalue decay."""
    return validate_state(np.diag(gibbs_spectrum(n, ratio).astype(complex)))


def maximally_mixed(n: int) -> StateDensity:
    """The tracial state I/n on the full matrix algebra."""
    n = require_dimension(n)
    return validate_state(np.eye(n, dtype=complex) / n)
