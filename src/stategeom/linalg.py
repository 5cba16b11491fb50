"""Dense complex matrix kernel with deterministic conventions.

Hermitian eigendecomposition, PSD square root, matrix exponential, polar
decomposition and inertia counts, shared by every higher layer.  Eigenvalues
are always sorted non-increasing (stable sort), and each eigenvector column
is rephased so that its largest-magnitude component is real and positive,
which makes the output a pure function of the input bits.

``as_operator`` is the one gate for square operands (shape, finiteness and
the dimension of the value they act on); ``require_hermitian`` adds the one
Hermitian test and returns the scale 1 + ||a||_F.  A validated functional has
passed both, so its holders call the solvers ``sorted_eigh`` and ``signature``.
Every cheap call pays for the gate, so it runs at its per-call floor: one
finiteness pass over the complex entries, and ``frobenius`` as two BLAS dots
summed in Python floats, the arithmetic of np.linalg.norm without its Python
wrapper or an ``np.errstate``.  The gate raises the same errors, and the
norm has the same bits, as the numpy forms they replace.

All operations are pure functions of their arguments and of the process-wide
tolerance scale in ``config``, which every thread shares.

Everything here is numpy except ``matrix_exp``, which calls scipy's compiled
scaling-and-squaring kernel, loaded by file path on first need without
importing ``scipy`` or ``scipy.linalg``; only a triangular input, or a scipy
whose kernel cannot be used, imports ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotHermitian, NotPSD, NumericalError, Singular, ValidationError


def as_operator(a, name: str = "operator", n: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries, of dimension ``n``
    when given (the dimension of the value the operand acts on).

    Finiteness is one ``np.isfinite`` pass over the complex array: a complex
    entry is finite exactly when its real and imaginary parts both are, so a
    single non-finite part, either one, raises the same ValidationError.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValidationError(f"{name} must have positive dimension")
    if n is not None and m.shape[0] != n:
        raise ValidationError(f"{name} has dimension {m.shape[0]}, expected {n}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(a.T)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, finite whenever the norm itself is.

    The sum of squares is np.linalg.norm's: the dot of the real view of
    ``a.ravel(order="K")`` with itself, plus that of the imaginary view for a
    complex array, added and square-rooted in double precision.  The dots
    are ``np.vdot``, which raises no floating-point warning, so no
    ``np.errstate`` is entered; the tests check the value against
    np.linalg.norm bit for bit at n = 1 to 64 and scales 10^-160 to 10^160.
    A NaN entry gives NaN.  Squaring overflows above about 1e154; only then is
    the norm taken again on a copy divided by a power of two above max|a|
    (exact in binary) and scaled back, or is inf where max|a| is: an infinite
    entry, or a complex one whose modulus overflows.
    """
    x = a.ravel(order="K")
    if x.dtype.kind != "c":
        value = math.sqrt(float(np.vdot(x, x)))
    else:
        value = math.sqrt(float(np.vdot(x.real, x.real)) + float(np.vdot(x.imag, x.imag)))
    if math.isinf(value):
        with np.errstate(over="ignore", invalid="ignore"):
            big = float(np.max(np.abs(a)))
            if math.isinf(big):  # the norm is at least max|a|; inf * 2^-e would be complex NaN
                return big
            e = math.frexp(big)[1]
            value = float(np.ldexp(np.linalg.norm(a * math.ldexp(1.0, -e)), e))
    return value


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a†)/2, formed as h + h† with h = a / 2: finite for every finite a.

    Halving is exact, so this has the bits of (a + a†) / 2 wherever that is
    finite and no entry's half is subnormal.
    """
    h = a / 2.0
    return h + dagger(h)


def in_range(what: str, bound: float, compute):
    """``compute()``, no entry of which, intermediates included, exceeds 8 ``bound``
    in magnitude but for rounding; NumericalError naming ``what`` when an entry of the
    result is not finite, so the value left double range.  A bound below 2^1000 rules
    overflow out and the result is returned as computed; above it (``math.inf`` where
    no bound is at hand), overflow warnings are silenced while it is computed, since
    that error reports them."""
    if bound < 2.0 ** 1000:
        return compute()
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if not np.isfinite(out).all():
        raise NumericalError(f"{what} overflows double precision")
    return out


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the rounding bound of k operations."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


def eig_allowance(n: int) -> float:
    """How far the eigenvalues of ``hermitian_part(m)`` from ``eigh`` or ``eigvalsh`` may
    lie from those of m's exact Hermitian part, per unit of ||m||_F: sqrt(n) gamma_4n for
    either solver's backward error and gamma_4n for the symmetrization and a division
    before it."""
    return (math.sqrt(n) + 1.0) * gamma(4 * n)


def fro_scale(a: np.ndarray) -> float:
    """Scale factor ``1 + ||a||_F`` used by relative tolerances."""
    return 1.0 + frobenius(a)


def require_hermitian(a, name: str = "operator",
                      n: int | None = None) -> tuple[np.ndarray, float]:
    """``a`` through ``as_operator`` with its scale 1 + ||a||_F; raises
    NotHermitian when ||a - a†||_F exceeds HERMITIAN_RTOL times that scale.

    From a scale of 2^1023 up, where a - a† can overflow and the scale itself may
    be inf, the same test is made on h = a / 2^k with 2^k > 2n, so ||h||_F < 2^1023:
    ||h - h†||_F against HERMITIAN_RTOL (2^-k + ||h||_F), both finite."""
    m = as_operator(a, name, n)
    scale = fro_scale(m)
    if scale < 2.0 ** 1023:
        config.check("Hermitian defect", frobenius(m - dagger(m)), config.HERMITIAN_RTOL,
                     scale, NotHermitian)
        return m, scale
    k = m.shape[0].bit_length() + 1
    h = m * 2.0 ** -k
    config.check(f"Hermitian defect of {name} / 2^{k},", frobenius(h - dagger(h)),
                 config.HERMITIAN_RTOL, 2.0 ** -k + frobenius(h), NotHermitian)
    return m, scale


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix unit E_ij: 1 at (i, j), 0 elsewhere."""
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted non-increasing with matched eigenvector columns.

    ``eigenvectors`` is unitary; column j satisfies h v_j = eigenvalues[j] v_j
    and carries the deterministic phase described in the module docstring.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
    """Eigendecomposition of a Hermitian matrix with deterministic output:
    ``sorted_eigh`` behind the Hermitian gate."""
    return sorted_eigh(require_hermitian(h)[0])


def sorted_eigh(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of an operator that passed ``require_hermitian``.

    The input is symmetrized, ``hermitian_part(m)``, before LAPACK to keep
    round-off in the off-Hermitian part from leaking into the spectrum.
    """
    w, v = np.linalg.eigh(hermitian_part(m))
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
    m, scale = require_hermitian(p)
    dec = sorted_eigh(m)
    w = dec.eigenvalues
    config.check("-(smallest eigenvalue)", -w[-1], config.PSD_CLAMP_RTOL, scale, NotPSD)
    w = np.where(w < 0.0, 0.0, w)
    v = dec.eigenvectors
    return hermitian_part((v * np.sqrt(w)) @ dagger(v))


# The scipy release whose scipy.linalg.expm tests/test_matrix_exp.py matches bit
# for bit; older wrappers around the same kernel differ, so they are used instead.
_KERNEL_SCIPY = (1, 17, 1)


@functools.cache
def _expm_kernel():
    """``pick_pade_structure`` and ``pade_UV_calc`` from scipy's compiled
    ``_matfuncs_expm``, loaded once by file path so that neither ``scipy``'s
    nor ``scipy.linalg``'s ``__init__`` runs; None when scipy predates
    ``_KERNEL_SCIPY`` or the kernel cannot be found or loaded."""
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        with open(os.path.join(root, "version.py"), encoding="utf-8") as file:
            release = re.search(r'^version\s*=\s*["\'](\d+)\.(\d+)\.(\d+)', file.read(), re.M)
        if release is None or tuple(map(int, release.groups())) < _KERNEL_SCIPY:
            return None
        spec = importlib.machinery.PathFinder.find_spec(
            "scipy.linalg._matfuncs_expm", [os.path.join(root, "linalg")])
        kernel = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernel)
        return kernel.pick_pade_structure, kernel.pade_UV_calc
    except (AttributeError, ImportError, OSError, TypeError, ValueError):
        return None


def _off_diagonal(m: np.ndarray) -> tuple[bool, bool]:
    """Whether m has a nonzero entry below its diagonal, and whether above:
    the structure test by which scipy.linalg.expm picks its branch.

    Two nonzero corners settle a general matrix, and a diagonal one is read
    through one strided view of the flat buffer that holds exactly the
    off-diagonal entries (row r: (r, r+1..n-1), then (r+1, 0..r)); only the
    remaining cases locate their nonzero entries.
    """
    n = m.shape[0]
    if n > 1 and m.item(n - 1, 0) != 0 and m.item(0, n - 1) != 0:
        return True, True
    if not m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any():
        return False, False
    i, j = np.nonzero(m)
    return bool(np.any(i > j)), bool(np.any(i < j))


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential, with the bits of ``scipy.linalg.expm``.

    The Al-Mohy and Higham (2009) scaling and squaring of scipy's compiled
    kernel, run as scipy's generic branch runs it: ``pick_pade_structure``
    picks the Pade order m and the scaling s, ``pade_UV_calc`` evaluates the
    approximant, and s squarings follow.  A diagonal input (1 x 1 and the zero
    matrix included) is ``np.exp`` of its diagonal, as in scipy.  A triangular
    one goes to ``scipy.linalg.expm`` itself, for its Code Fragment 2.1, as
    does every input when the kernel is unavailable (``_expm_kernel``).  The
    kernel's allocation failures raise MemoryError; any other error code it
    returns raises NumericalError.
    """
    m = as_operator(a)
    below, above = _off_diagonal(m)
    if not (below or above):
        return np.diag(np.exp(np.diag(m)))
    kernel = _expm_kernel() if below and above else None
    if kernel is None:
        import scipy.linalg

        return scipy.linalg.expm(m)
    pick_pade_structure, pade_uv_calc = kernel
    n = m.shape[0]
    work = np.empty((5, n, n), dtype=complex)
    work[0] = m
    order, s = pick_pade_structure(work)
    if order < 0:
        raise MemoryError(f"expm could not allocate its Pade structure (error code {order})")
    info = pade_uv_calc(work, order)
    if info <= -11:
        raise MemoryError(f"expm could not allocate its Pade evaluation (error code {info})")
    if info != 0:
        raise NumericalError(f"expm's Pade evaluation failed in LAPACK (error code {info})")
    e = work[0]
    for _ in range(s):
        e = e @ e
    return e if s else e.copy()


def polar(g) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition g = U P with U unitary and P = sqrt(g†g) PSD.

    Requires sigma_min(g) > 1e-12*(1+||g||); raises Singular otherwise.
    """
    m = as_operator(g)
    u, s, vh = np.linalg.svd(m)
    config.check("sigma_min", s[-1], config.SINGULAR_RTOL, 1.0 + s[0], Singular, floor=True)
    unitary = u @ vh
    v = dagger(vh)
    return unitary, hermitian_part((v * s) @ vh)


def inertia(h, zero_tol: float) -> tuple[int, int, int]:
    """Signature counts (n_plus, n_zero, n_minus) wrt the given threshold."""
    m, _ = require_hermitian(h)
    if zero_tol < 0.0:
        raise ValidationError("zero_tol must be non-negative")
    return signature(m, zero_tol)


def signature(m: np.ndarray, zero_tol: float) -> tuple[int, int, int]:
    """``inertia`` of an operator that passed ``require_hermitian``."""
    w = np.linalg.eigvalsh(hermitian_part(m))
    n_plus = int(np.count_nonzero(w > zero_tol))
    n_minus = int(np.count_nonzero(w < -zero_tol))
    return n_plus, m.shape[0] - n_plus - n_minus, n_minus
