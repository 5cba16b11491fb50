"""Baseline tolerances and the global rescale hook behind the CLI --tol flag.

Every threshold in the package is ``BASE * tolerance_scale()``, and unless a
docstring says otherwise the base is further multiplied by
``1 + Frobenius norm`` of the relevant matrix so that tests are scale-free.
"""

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
GNS_CONSISTENCY_RTOL = 1e-8   # |<psi|pi(g†g)|psi> - rho(g†g)|, relative to 1 + |rho(g†g)|
TANGENT_RANK_RTOL = 1e-8      # tangent-map rank cut, relative to sigma_max
FD_STEP = 1e-5                # central-difference step

_scale = 1.0


def tolerance_scale() -> float:
    """Current global multiplier applied to every tolerance."""
    return _scale


def set_tolerance_scale(value: float) -> None:
    """Rescale all module tolerances uniformly (must be positive)."""
    global _scale
    if not value > 0.0:
        raise ValueError(f"tolerance scale must be positive, got {value}")
    _scale = float(value)


def scaled(base: float) -> float:
    """A base tolerance after the global rescale."""
    return base * _scale
