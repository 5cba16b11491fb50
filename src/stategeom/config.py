"""Baseline tolerances, the rescale behind the CLI --tol flag, ``check``, the
one threshold decision that raises, its non-raising form ``clears``, and the
size limits of the explicit isotropy bases, the gns payload and one float64 array.

Bounds are BASE * scale * a per-decision factor, usually ``1 + Frobenius norm``
of the relevant matrix; the counting decisions read ``scaled``.  The scale is a
context variable (PEP 567): ``set_tolerance_scale`` sets it for the calling
context only, so a thread starts at 1.0 and never sees another thread's scale,
and a call run in a copied context (``contextvars.copy_context().run``, as the
CLI runs each invocation) leaves its caller's scale as it found it.
"""

import contextvars
import math
import sys

HERMITIAN_RTOL = 1e-10        # |h - h†| allowance, relative
PSD_CLAMP_RTOL = 1e-10        # eigenvalues in [-clamp, 0) are treated as 0
TRACE_ATOL = 1e-10            # |Tr - 1| allowance for states
PROBABILITY_ATOL = 1e-12      # |sum - 1| allowance for probability vectors
UNITARY_ATOL = 1e-10          # |u†u - I| allowance
RANK_RTOL = 1e-12             # spectral support threshold, relative
SINGULAR_RTOL = 1e-12         # invertibility: sigma_min > SINGULAR_RTOL*(1+opnorm)
MEMBERSHIP_RTOL = 1e-9        # isotropy membership residual, relative
GRAM_MIN_EIG_RTOL = 1e-10     # linear independence of real bases
DENOMINATOR_FLOOR = 1e-14     # absolute floor for Tr(rho g†g)
CONNECT_RESIDUAL_RTOL = 1e-9  # intertwiner reconstruction residual
NORM_BOUND_SLACK = 1e-10      # multiplicative slack on the sqrt(C+1) bound
TRACIAL_ATOL = 1e-10          # commutator residual for tracial inputs
GNS_CONSISTENCY_RTOL = 1e-8   # |<psi|pi(g†g)|psi> - rho(g†g)| / (min(1, ||g||^2) + rho(g†g))
TANGENT_RANK_RTOL = 1e-8      # tangent-map rank cut, relative to sigma_max
FD_STEP = 1e-5                # central-difference step
BASIS_MAX_ENTRIES = 1 << 26   # explicit isotropy bases: dim * n^2 complex entries (1 GiB)
GNS_MAX_ENTRIES = 1 << 22     # gns payload: n^2 (nk)^2 complex entries (~40 MB of text)
# numpy counts an array's entries in float64 and refuses one of more than intp-max
# bytes: the most entries of one float64 array is the largest float64 below that / 8
MAX_FLOAT64S = int(math.nextafter((sys.maxsize + 1) / 8, 0))

_scale = contextvars.ContextVar("tolerance_scale", default=1.0)


def set_tolerance_scale(value: float) -> float:
    """Rescale all module tolerances uniformly in the calling context (the value
    must be finite and positive) and return the scale replaced, so a caller can
    put it back."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance scale must be finite and positive, got {value}")
    previous = _scale.get()
    _scale.set(float(value))
    return previous


def scaled(base: float) -> float:
    """A base tolerance after the calling context's rescale."""
    return base * _scale.get()


def clears(value: float, base: float, scale: float, *, floor: bool = False,
           exp2: int = 0, slack: float = 0.0) -> bool:
    """Whether ``value`` passes ``check``'s decision: it is at or below the bound
    ``scaled(base) * scale + slack`` (above it for a ``floor``), and NaN passes.
    The flow certificates decide with it where a failure means a fallback, not
    an error."""
    bound = math.ldexp(base * _scale.get() * scale + slack, -exp2)
    return not (value <= bound if floor else value > bound)


def check(what: str, value: float, base: float, scale: float, exc: type,
          *, floor: bool = False, exp2: int = 0, slack: float = 0.0) -> float:
    """Return ``value``, or raise ``exc`` naming ``what``, the value and the bound
    ``scaled(base) * scale + slack`` (``slack``: the value's own rounding) when the
    value exceeds it (is at or below it for a ``floor``).  ``exp2`` marks a value
    prescaled by 2**-exp2: the bound is rescaled alike and both are reported unscaled."""
    if clears(value, base, scale, floor=floor, exp2=exp2, slack=slack):
        return value
    bound = math.ldexp(base * _scale.get() * scale + slack, -exp2)
    relation = "at or below" if floor else "exceeds"
    raise exc(f"{what} {math.ldexp(value, exp2):.3e} {relation} "
              f"{math.ldexp(bound, exp2):.3e}")
