"""Dense complex matrix kernel with deterministic conventions.

Hermitian eigendecomposition, PSD square root, matrix exponential, polar
decomposition and inertia counts, shared by every higher layer.  Eigenvalues
are always sorted non-increasing (stable sort), and each eigenvector column
is rephased so that its largest-magnitude component is real and positive,
which makes the output a pure function of the input bits.

``as_operator`` is the one gate for square operands (shape, finiteness and
the dimension of the value they act on); ``require_hermitian`` adds the one
Hermitian test and returns the norm ||a||_F and the scale 1 + ||a||_F.  A
validated functional has passed both, so its holders call the solvers
``sorted_eigh`` and ``signature``.
Every cheap call pays for the gate, so it runs at its per-call floor: one
finiteness pass over the complex entries and one reduction of it, and
``frobenius`` as two BLAS dots summed in Python floats, the arithmetic of
np.linalg.norm without its Python wrapper or an ``np.errstate``.  The gate
raises the same errors, and the norm has the same bits, as the numpy forms
they replace.

All operations are pure functions of their arguments and of the calling
context's tolerance scale in ``config``.

Everything here is numpy.  ``matrix_exp`` is the package's own scaling and
squaring (``_Exponential``), whose powers a flow shares across its points.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotHermitian, NotPSD, NumericalError, Singular, ValidationError

_LARGEST = float(np.finfo(float).max)


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
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def require_dimension(n) -> int:
    """``n`` as an int: an integer of at least 1, a numpy one too but not a bool;
    ValidationError otherwise."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"dimension must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    return int(n)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(a.T)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, finite whenever the norm itself is.

    The sum of squares is np.linalg.norm's: the dot of the real view of
    ``a.ravel(order="K")`` with itself, plus that of the imaginary view for a
    complex array, added as Python floats (a sum past the largest double is inf,
    with no warning) and square-rooted.  The dots are ``np.vdot``, which raises
    no floating-point warning, so no ``np.errstate`` is entered; the tests
    check the value against np.linalg.norm bit for bit at n = 1 to 64 and
    scales 10^-160 to 10^160.
    A NaN entry gives NaN.  Squaring overflows above about 1e154; only then is
    the norm taken again on a copy divided by a power of two above max|a|
    (exact in binary) and scaled back, or is inf where max|a| is: an infinite
    entry, or a complex one whose modulus overflows.
    """
    x = a.ravel(order="K")
    if x.dtype.kind != "c":
        value = math.sqrt(np.vdot(x, x))
    else:
        value = math.sqrt(float(np.vdot(x.real, x.real)) + float(np.vdot(x.imag, x.imag)))
    if value > _LARGEST:
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
    result is not finite, so the value left double range.  This is the package's one
    overflow refusal; only ``fd_tangent_check`` words its own, to name its step.
    A bound below 2^1000 rules overflow out and the result is returned as computed;
    above it (``math.inf`` where no bound is at hand), overflow warnings are silenced
    while it is computed, since that error reports them."""
    if bound < 2.0 ** 1000:
        return compute()
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
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


def fro_scale(a: np.ndarray, norm: float | None = None) -> float:
    """Scale factor ``1 + ||a||_F`` used by relative tolerances, from ``norm`` where
    the caller has ||a||_F already, saturated at the largest double: a finite n x n
    matrix has ||a||_F at most sqrt(2) n times that, so a bound on a matrix whose
    norm overflows stays finite and is at most that much stricter."""
    return min(1.0 + (frobenius(a) if norm is None else norm), _LARGEST)


def require_hermitian(a, name: str = "operator",
                      n: int | None = None) -> tuple[np.ndarray, float, float]:
    """``a`` through ``as_operator`` with its norm ||a||_F and scale 1 + ||a||_F;
    raises NotHermitian when ||a - a†||_F exceeds HERMITIAN_RTOL times that scale.

    From a scale of 2^1023 up, where a - a† can overflow and the norm itself may be
    inf, the same test is made on h = a / 2^k with 2^k > 2n, so ||h||_F < 2^1023:
    ||h - h†||_F against HERMITIAN_RTOL (2^-k + ||h||_F), both finite."""
    m = as_operator(a, name, n)
    norm = frobenius(m)
    scale = fro_scale(m, norm)
    if scale < 2.0 ** 1023:
        config.check("Hermitian defect", frobenius(m - dagger(m)), config.HERMITIAN_RTOL,
                     scale, NotHermitian)
        return m, norm, scale
    k = m.shape[0].bit_length() + 1
    h = m * 2.0 ** -k
    config.check(f"Hermitian defect of {name} / 2^{k},", frobenius(h - dagger(h)),
                 config.HERMITIAN_RTOL, 2.0 ** -k + frobenius(h), NotHermitian)
    return m, norm, scale


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

    argmax breaks exact magnitude ties by lowest index.  The pivot
    magnitude comes from hypot, which agrees with the scalar abs to the
    last bit, and each column is scaled as a strided vector times one
    complex scalar, so the result matches a per-column loop bit for bit.
    """
    pivot = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    mag = np.hypot(pivot.real, pivot.imag)  # nonzero: a unitary column has an entry >= 1/sqrt(n)
    factor = np.conjugate(pivot) / mag
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
    order = (-w).argsort(kind="stable")
    w = w[order]
    v = _fix_phases(np.ascontiguousarray(v[:, order]))
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def matrix_sqrt_psd(p) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in [-clamp, 0) with clamp = 1e-10*(1+||p||_F) are clamped to
    zero; anything below raises NotPSD.  Where eigh's smallest eigenvalue lies
    near -clamp, the verdict is eigvalsh's, as ``validate_positive`` reads it.
    After that verdict, a largest eigenvalue that overflows raises NumericalError.
    """
    m, _, scale = require_hermitian(p)
    dec = sorted_eigh(m)
    w = dec.eigenvalues
    margin = 2.0 * eig_allowance(len(w)) * scale  # eigh's and eigvalsh's differ by less
    near = abs(w[-1] + config.scaled(config.PSD_CLAMP_RTOL) * scale) <= margin
    low = np.linalg.eigvalsh(hermitian_part(m))[0] if near else w[-1]
    config.check("-(smallest eigenvalue)", -low, config.PSD_CLAMP_RTOL, scale, NotPSD)
    w = in_range("eigenvalue", w[0], lambda: w)
    w = np.where(w < 0.0, 0.0, w)
    v = dec.eigenvectors
    return hermitian_part((v * np.sqrt(w)) @ dagger(v))


# Al-Mohy and Higham (2009), Algorithm 5.1 with exact 1-norms.  Per Pade order m:
# theta_m (their Table 3.1), b_0 .. b_m of r_m = p_m / q_m, and c_m = 1 / |c_(2m+1)| of
# Higham (2005), (2.2), by which their ell(A, m) is 0 once ||A||_1^(2m) <= c_m u.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
_F = math.factorial
_B = {m: [float(_F(2 * m - j) // (_F(j) * _F(m - j))) for j in range(m + 1)] for m in _THETA}
_C = {m: _F(2 * m) * _F(2 * m + 1) / _F(m) ** 2 for m in _THETA}
# log2 ||A||_1 below which ell(A, m) is 0, and m is taken alone (less 2^-30 for rounding)
_ELL_FREE = {m: (math.log2(_C[m]) - 53.0) / (2 * m) - 2.0 ** -30 for m in _C}
_ALONE = {m: min(math.log2(_THETA[m]), _ELL_FREE[m]) - 2.0 ** -30 for m in _C}
# Rows 2 u_m(B) and q_m(B) = p_m(-B) over the stack I, b, ..., b^m, B = c b, and the powers of c
# they take; r_m(B) = I + 2 q_m(B)^-1 u_m(B), u_m the odd part of p_m, keeps a small B's digits.
_TABLE = {m: (np.array([[2.0 * x * (j % 2) for j, x in enumerate(b)],
                        [(-1) ** j * x for j, x in enumerate(b)]]), np.arange(m + 1))
          for m, b in _B.items()}


def _onenorm(m: np.ndarray) -> float:
    return max(np.add.reduce(np.abs(m), axis=0).tolist())  # no NaN: m is finite


class _Exponential:
    """exp(t a) for any real t, from the powers of one scaled copy of a.

    The Al-Mohy and Higham (2009) scaling and squaring: a Pade order m and a
    scaling s from exact 1-norms, r_m(2^-s t a) from one solve, s squarings.
    With b = a / 2^e, 2^(e-1) <= ||a||_1 < 2^e, and c = t 2^(e-s), a point folds
    c^j into ``_TABLE``'s coefficients: at every order, one product of that
    table with the stack I, b, ..., b^m, one solve, s squarings; the stack and
    the norms that pick m and s serve every t.  Where |Tr b^2| >= n 2^-50, b's
    spectral radius is at least 2^-25, so no power to b^13 is below 2^-325 and
    c is below 2^28 at any accepted order, c^13 below 2^364.  Else each
    power is scaled to largest part in [1/2, 1) and each c^j to match, so
    neither leaves double range where (c b)^j does not.

    The order is theirs, from d_p = ||(t a)^p||_1^(1/p), except where
    ||t a||_1 alone settles it: d_p <= ||t a||_1 and ||abs(t a)^(2m+1)||_1 <=
    ||t a||_1^(2m+1), so the least m with ||t a||_1 below theta_m and below the
    bound that zeroes ell(t a, m) passes their test, at or above their m.

    A diagonal a is exponentiated entrywise, as ``scipy.linalg.expm`` does.  A
    triangular a that needs squarings takes their Code Fragment 2.1: after the
    solve and after each squaring, the diagonal is set to exp(2^(j-s) t a_ii) and
    the first off-diagonal to the exponential of each 2 x 2 diagonal block
    (``_pairs``), so neither loses the digits that 2^-s t a_ii below u would.  Its
    scaling is Higham's (2005), from ||t a||_1 alone: the d_p of a far-from-normal
    triangular a come from powers whose products underflow, and may be 0.
    """

    def __init__(self, a: np.ndarray):
        n = a.shape[0]
        with np.errstate(over="ignore"):
            norm = _onenorm(a)
        shift = 2 + n.bit_length() if norm > _LARGEST else 0  # a column sum overflowed
        if shift:
            norm = _onenorm(a * 2.0 ** -shift)
        m, e = math.frexp(norm)
        self.e = max(e + shift, -1000)
        self.norm = math.ldexp(m, e + shift - self.e)  # ||b||_1, in [1/2, 1) but for tiny a
        self._stack = stack = np.zeros((16, n, n), dtype=complex)  # I, b, ..., b^13, 2 polynomials
        stack.reshape(16 * n * n)[:n * n:n + 1] = 1.0
        b = np.multiply(a, 2.0 ** -self.e, out=stack[1])
        self._flat = stack.view(float).reshape(16, 2 * n * n)
        np.matmul(b, b, out=stack[2])
        self._count = 3  # powers formed: I, b, ..., b^(count - 1)
        self._exps = None  # the E_j, where the powers are scaled
        if abs(sum(stack[2].diagonal().tolist())) < n * 2.0 ** -50:  # rho(b) below 2^-25?
            self._exps, self._count = [0, 0], 2
            self._powers(2)
        self._d = None  # d_4, d_6, d_8 and d_10 of b
        self._alpha = {}
        # the structure: a corner in each triangle settles a general a; else the count of
        # the entries off the diagonal, and of those in the lower triangle where there are any
        self._diagonal = self._tri = None
        if not (n > 1 and a[-1, 0] and a[0, -1]):
            diagonal = a.diagonal()
            off = np.count_nonzero(a) - np.count_nonzero(diagonal)
            below = np.count_nonzero(a[np.tri(n, n, -1, dtype=bool)]) if off else 0
            if not off:
                self._diagonal = diagonal.copy()
            elif below in (0, off):  # the flat offset of the first off-diagonal: 1 or n
                step = n if below else 1
                self._tri = diagonal.copy(), a.reshape(n * n)[step::n + 1].copy(), step

    def _powers(self, k: int) -> np.ndarray:
        """I, b, ..., b^k (k <= 13); b^j times b, ..., b^i gives b^(j+1), ..., b^(j+i)."""
        stack = self._stack
        while self._count <= k:
            j = self._count - 1
            m = min(j, max(k, 10) - j)
            new = stack[j + 1:j + m + 1]
            np.matmul(stack[j], stack[1:m + 1], out=new)
            self._count += m
            if self._exps is not None:
                tops = np.abs(new.view(float)).max(axis=(1, 2)).tolist()
                shifts = np.array([math.frexp(x)[1] for x in tops])
                np.ldexp(new.view(float), -shifts[:, None, None], out=new.view(float))
                self._exps += [self._exps[j] + self._exps[i] + f if x else -2 ** 20
                               for i, (x, f) in enumerate(zip(tops, shifts.tolist()), 1)]
        return stack[:k + 1]

    def _ell(self, m: int, lc: float) -> int:
        """Their ell(c b, m), log2 |c| = lc, from ||c b||_1 or ||abs(b)^(2m+1)||_1."""
        if lc + math.log2(self.norm) <= _ELL_FREE[m]:
            return 0
        if m not in self._alpha:
            v = np.ones(self._stack.shape[1])
            at = np.abs(self._stack[1]).T
            for _ in range(2 * m + 1):
                v = at @ v
            top = float(v.max())
            self._alpha[m] = math.log2(top / (self.norm * _C[m])) if top else -math.inf
        alpha = self._alpha[m]
        return 0 if alpha == -math.inf else max(math.ceil(lc + (alpha + 53.0) / (2 * m)), 0)

    def _order(self, lc: float) -> tuple[int, int]:
        """The Pade order m and the scaling s for c b, log2 |c| = lc."""
        la = lc + math.log2(self.norm)  # log2 ||t a||_1
        for m in _ALONE:
            if la < _ALONE[m]:
                return m, 0
        if self._tri is not None:  # ||2^-s t a||_1 <= theta_13
            return 13, max(math.ceil(la - math.log2(_THETA[13])), 0)
        if self._d is None:
            powers, exps = self._powers(10), self._exps or [0] * 11
            self._d = [_onenorm(powers[p]) ** (1 / p) * 2.0 ** (exps[p] / p) for p in (4, 6, 8, 10)]
        d4, d6, d8, d10 = self._d
        for m, eta in ((3, max(d4, d6)), (5, max(d4, d6)), (7, max(d6, d8)), (9, max(d6, d8))):
            if eta < _THETA[m] * 2.0 ** -lc and self._ell(m, lc) == 0:  # untrimmed: lc > 2
                return m, 0
        eta = min(max(d6, d8), max(d8, d10))
        s = max(math.ceil(lc + math.log2(eta / _THETA[13])), 0) if eta > 0.0 else 0
        return 13, s + self._ell(13, lc - s)

    def _pairs(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp(h_j a)'s diagonal and first off-diagonal, row j for each h_j, a triangular:
        exp(x_i), x = h_j a_ii, and h_j a_(i,i+1) e^mu sinh(z) / z for mu, z = (x_(i+1) +-
        x_i) / 2, Higham's (2008) (10.42), which keeps the digits of nearby x; from |z| = 1,
        (e^x_(i+1) - e^x_i) / 2z, which cannot overflow where that difference does not."""
        diagonal, off, _ = self._tri
        x = (h[:, None] * diagonal.view(float)).view(complex)
        ex = np.exp(x)
        half = x / 2.0
        z, mu = half[:, 1:] - half[:, :-1], half[:, 1:] + half[:, :-1]
        near = np.abs(z) <= 1.0
        w = np.where(near, z, 1.0)  # the divisor of each form where the other holds
        quotient = np.where(near, np.exp(mu) * np.sinh(w) / np.where(w == 0.0, 1.0, w),
                            (ex[:, 1:] - ex[:, :-1]) / (2.0 * np.where(near, 1.0, z)))
        return ex, np.where(w == 0.0, np.exp(mu), quotient) * (h[:, None] * off)

    def __call__(self, t: float) -> np.ndarray:
        if t == 0.0 or self.norm == 0.0:
            return self._stack[0].copy()
        if self._diagonal is not None:  # exact up to exp's rounding, as scipy's expm does
            return np.diag(np.exp((t * self._diagonal.view(float)).view(complex)))
        m, s = self._order(math.log2(abs(t)) + self.e)
        c = math.ldexp(t, self.e - s)  # 2^-s t a = c b
        table, power = _TABLE[m]
        if self._count <= m:
            self._powers(m)
        if self._exps is None:
            weights = table * c ** power
        else:
            mantissa, exponent = math.frexp(c)
            weights = np.ldexp(table * mantissa ** power, exponent * power + self._exps[:m + 1])
        np.matmul(weights, self._flat[:m + 1], out=self._flat[14:])
        try:
            x = np.linalg.solve(self._stack[15], self._stack[14])  # q_m and 2 u_m
        except np.linalg.LinAlgError as exc:  # a singular or non-finite Pade denominator
            raise NumericalError(f"exp(t a) is not numerically usable at t = {t!r}") from exc
        x += self._stack[0]
        if self._tri is None or s == 0:
            for _ in range(s):
                x = x @ x
            return x
        # r_m of a triangular b is triangular, but the solve's pivoting may fill in rounding
        n, step = x.shape[0], self._tri[2]
        x = np.triu(x) if step == 1 else np.tril(x)
        diagonals, offs = self._pairs(np.ldexp(t, np.arange(-s, 1)))
        for j in range(s + 1):
            if j:
                x = x @ x
            flat = x.reshape(n * n)
            flat[::n + 1], flat[step::n + 1] = diagonals[j], offs[j]
        return x


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential, ``_Exponential`` at t = 1: within a small multiple of
    gamma_8n (2 + (1 + sqrt(n)) ||a||_F) e^||a||_F of ``scipy.linalg.expm``, and
    with its bits where a is diagonal.  NumericalError when an entry leaves
    double range (``in_range``)."""
    exp = _Exponential(as_operator(a))
    # ||exp(a)||_1 <= e^x for x = ||a||_1, and no entry formed on the way exceeds 2^57 e^x
    # but for rounding: a Pade sum is at most twice its leading coefficient, below 2^56,
    # times e^x, and the quotient and its squares approximate exp(2^-k a).  Below x = 650
    # that is under 2^1000, so an ordinary call runs on ``in_range``'s unguarded path.
    x = min(math.ldexp(exp.norm, min(exp.e, 11)), 700.0)  # ||a||_1, capped where e^x overflows
    return in_range("matrix exponential", 2.0 ** 57 * math.exp(x), lambda: exp(1.0))


def polar(g) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition g = U P with U unitary and P = sqrt(g†g) PSD.

    Requires sigma_min(g) > 1e-12*(1+||g||); raises Singular otherwise, and
    NumericalError when the largest singular value overflows.
    """
    m = as_operator(g)
    u, s, vh = np.linalg.svd(m)
    in_range("singular value", s[0], lambda: s)
    config.check("sigma_min", s[-1], config.SINGULAR_RTOL, 1.0 + s[0], Singular, floor=True)
    unitary = u @ vh
    v = dagger(vh)
    return unitary, hermitian_part((v * s) @ vh)


def inertia(h, zero_tol: float) -> tuple[int, int, int]:
    """Signature counts (n_plus, n_zero, n_minus) about the cuts +-zero_tol (``signature``)."""
    m, _, scale = require_hermitian(h)
    if not zero_tol >= 0.0:
        raise ValidationError("zero_tol must be non-negative")
    return signature(m, zero_tol, zero_tol, scale)


def signature(m: np.ndarray, below: float, above: float, scale: float) -> tuple[int, int, int]:
    """Counts of m's eigenvalues above ``above``, in [-below, above] and below -below
    (m passed ``require_hermitian`` with scale 1 + ||m||_F): eigvalsh's, as ``psd_gate``
    reads them, so n_minus > 0 exactly where it raises NotPSD at ``below``; but where one
    is near ``above`` n_plus is recounted on the eigen-record's, so it is its rank, and
    an eigenvalue already counted in n_minus is not counted again."""
    w = np.linalg.eigvalsh(hermitian_part(m)).tolist()  # ascending
    n_minus = bisect_left(w, -below)
    margin = 2.0 * eig_allowance(len(w)) * scale  # eigh's and eigvalsh's differ by less
    if bisect_left(w, above - margin) != bisect_left(w, above + margin):
        w = sorted_eigh(m).eigenvalues[::-1].tolist()
    n_plus = len(w) - max(bisect_right(w, above), n_minus)
    return n_plus, len(w) - n_plus - n_minus, n_minus
