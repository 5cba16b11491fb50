"""Group actions of invertible elements on density operators, at finite dimension.

The congruence action xi -> g xi g† on positive functionals and its
state-preserving normalization rho -> g rho g† / Tr(g rho g†), with orbit
classification and explicit connecting elements, isotropy algebras and their
complements, tangent/flow machinery, the classical (simplex) specialization,
and a numerical GNS construction, everything verified by executable
invariants in the test suite.

``_EXPORTS`` is the one declaration of the public API: each submodule the
package exposes, with the public names it owns.  The namespace is lazy
(PEP 562): a bare ``import stategeom`` loads no layer, and the first access
to a name, or to one of those submodules, imports the module that owns it.
So a caller such as the CLI compiles and runs only the layers it uses.
"""

import importlib

_EXPORTS = {
    "actions": (
        "GroupElement", "alpha", "classical_phi", "denominator", "group_element",
        "mix_states", "nonconvexity_witness", "phi", "unitary_phi",
    ),
    "config": (),
    "errors": (
        "NotHermitian", "NotPSD", "NotTracial", "NotUnitary", "NumericalError",
        "NumericallySingular", "RankMismatch", "Singular", "StateGeomError", "TraceError",
        "ValidationError", "ZeroFunctional", "ZeroWeight",
    ),
    "gns": (
        "AbelianGnsTriple", "GnsTriple", "commutant_dimension", "gns_construct",
        "gns_construct_abelian", "gns_transform", "purity_check",
    ),
    "isotropy": (
        "IsotropyReport", "RealBasis", "complement_basis_alpha", "hermitian_basis",
        "isotropy_basis_alpha", "isotropy_basis_phi", "isotropy_dimension_alpha",
        "isotropy_membership_alpha", "isotropy_membership_phi", "isotropy_report",
        "orbit_dimension",
    ),
    "linalg": (
        "SpectralDecomposition", "hermitian_eig", "inertia", "matrix_exp", "matrix_sqrt_psd",
        "polar",
    ),
    "orbits": (
        "ConnectCertificate", "SpectrumGenerator", "TruncationReport", "bound_constant",
        "connect_alpha", "connect_phi", "convex_recombine", "convex_recombine_classical",
        "make_spectrum_generator", "same_orbit_alpha", "tracial_orbit_point",
        "truncation_sweep",
    ),
    "states": (
        "OrbitClass", "PositiveFunctional", "ProbabilityVector", "SpectralSplit",
        "StateDensity", "classify_orbit", "embed_classical", "gibbs_family", "gibbs_spectrum",
        "maximally_mixed", "spectral_split", "validate_positive", "validate_probability",
        "validate_state",
    ),
    "tangent": (
        "TangentVector", "covariance", "fd_tangent_check", "flow", "tangent_alpha",
        "tangent_map_rank", "tangent_phi",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    module = _OWNER.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
