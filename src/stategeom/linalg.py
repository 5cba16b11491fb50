"""Dense complex matrix kernel with deterministic conventions.

Hermitian eigendecomposition, PSD square root, matrix exponential, polar
decomposition and inertia counts, shared by every higher layer.  Eigenvalues
are always sorted non-increasing (stable sort), and each eigenvector column
is rephased so that its largest-magnitude component is real and positive,
which makes the output a pure function of the input bits.

All operations are pure functions of their arguments and safe to call from
multiple threads.

Everything here is numpy except ``matrix_exp``, which imports scipy on its
first call, so only the callers of the exponential map (``flow`` and the
tangent finite-difference check) pay scipy's import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotHermitian, NotPSD, Singular, ValidationError

__all__ = [
    "SpectralDecomposition",
    "as_operator",
    "dagger",
    "frobenius",
    "fro_scale",
    "hermitian_defect",
    "require_hermitian",
    "hermitian_eig",
    "matrix_sqrt_psd",
    "matrix_exp",
    "polar",
    "inertia",
    "opnorm",
    "sigma_min",
    "matrix_unit",
]


def as_operator(a, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValidationError(f"{name} must have positive dimension")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(a.T)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, finite whenever the norm itself is.

    np.linalg.norm squares the entries, which overflows above about 1e154;
    only then is the norm taken again on a copy divided by a power of two
    above max|a| (exact in binary) and scaled back.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.linalg.norm(a))
        if math.isinf(value):
            e = math.frexp(float(np.max(np.abs(a))))[1]
            value = float(np.ldexp(np.linalg.norm(a * math.ldexp(1.0, -e)), e))
    return value


def fro_scale(a: np.ndarray) -> float:
    """Scale factor ``1 + ||a||_F`` used by relative tolerances."""
    return 1.0 + frobenius(a)


def hermitian_defect(a: np.ndarray) -> float:
    """Frobenius distance to the Hermitian part."""
    return frobenius(a - dagger(a))


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """Return ``a`` as an operator, or raise NotHermitian."""
    m = as_operator(a, name)
    tol = config.scaled(config.HERMITIAN_RTOL) * fro_scale(m)
    defect = hermitian_defect(m)
    if defect > tol:
        raise NotHermitian(f"{name} is not Hermitian: defect {defect:.3e} > {tol:.3e}")
    return m


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix unit E_ij: 1 at (i, j), 0 elsewhere."""
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(a, 2))


def sigma_min(a: np.ndarray) -> float:
    """Smallest singular value."""
    return float(np.linalg.svd(a, compute_uv=False)[-1])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted non-increasing with matched eigenvector columns.

    ``eigenvectors`` is unitary; column j satisfies h v_j = eigenvalues[j] v_j
    and carries the deterministic phase described in the module docstring.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rephase each column so its largest-|.| entry is real positive.

    np.argmax breaks exact magnitude ties by lowest index.  The pivot
    magnitude comes from hypot, which agrees with the scalar abs to the
    last bit, and each column is scaled as a strided vector times one
    complex scalar, so the result matches a per-column loop bit for bit.
    """
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    mag = np.hypot(pivot.real, pivot.imag)
    nonzero = mag > 0.0
    factor = np.ones_like(pivot)
    factor[nonzero] = np.conjugate(pivot[nonzero]) / mag[nonzero]
    return np.ascontiguousarray((v.T * factor[:, None]).T)


def hermitian_eig(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    The input is symmetrized (h + h†)/2 before LAPACK to keep round-off in
    the off-Hermitian part from leaking into the spectrum.
    """
    m = require_hermitian(h)
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    order = np.argsort(-w, kind="stable")
    w = np.ascontiguousarray(w[order])
    v = _fix_phases(np.ascontiguousarray(v[:, order]))
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def matrix_sqrt_psd(p) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in [-clamp, 0) with clamp = 1e-10*(1+||p||_F) are clamped to
    zero; anything below raises NotPSD.
    """
    dec = hermitian_eig(p)
    # for Hermitian input the Frobenius norm is the eigenvalue 2-norm
    clamp = config.scaled(config.PSD_CLAMP_RTOL) * fro_scale(dec.eigenvalues)
    w = dec.eigenvalues
    if np.any(w < -clamp):
        raise NotPSD(f"matrix has eigenvalue {w.min():.3e} below -{clamp:.3e}")
    w = np.where(w < 0.0, 0.0, w)
    v = dec.eigenvectors
    s = (v * np.sqrt(w)) @ dagger(v)
    return (s + dagger(s)) / 2.0


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring via scipy).

    The only function in the package that needs scipy; it is imported here,
    on first use, to keep it out of every command that never exponentiates.
    """
    import scipy.linalg

    return scipy.linalg.expm(as_operator(a))


def polar(g) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition g = U P with U unitary and P = sqrt(g†g) PSD.

    Requires sigma_min(g) > 1e-12*(1+||g||); raises Singular otherwise.
    """
    m = as_operator(g)
    u, s, vh = np.linalg.svd(m)
    if s[-1] <= config.scaled(config.SINGULAR_RTOL) * (1.0 + s[0]):
        raise Singular(f"matrix is numerically singular: sigma_min = {s[-1]:.3e}")
    unitary = u @ vh
    v = dagger(vh)
    psd = (v * s) @ vh
    psd = (psd + dagger(psd)) / 2.0
    return unitary, psd


def inertia(h, zero_tol: float) -> tuple[int, int, int]:
    """Signature counts (n_plus, n_zero, n_minus) wrt the given threshold."""
    m = require_hermitian(h)
    if zero_tol < 0.0:
        raise ValidationError("zero_tol must be non-negative")
    w = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
    n_plus = int(np.sum(w > zero_tol))
    n_minus = int(np.sum(w < -zero_tol))
    return n_plus, m.shape[0] - n_plus - n_minus, n_minus
