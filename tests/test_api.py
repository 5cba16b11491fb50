"""The public names of ``import stategeom`` stay stable across refactors."""

import inspect

import stategeom

PUBLIC_NAMES = [
    "AbelianGnsTriple", "ConnectCertificate", "GnsTriple", "GroupElement", "IsotropyReport",
    "NotHermitian", "NotPSD", "NotTracial", "NotUnitary", "NumericalError",
    "NumericallySingular", "OrbitClass", "PositiveFunctional", "ProbabilityVector",
    "RankMismatch", "RealBasis", "Singular", "SpectralDecomposition", "SpectralSplit",
    "SpectrumGenerator", "StateDensity", "StateGeomError", "TangentVector", "TraceError",
    "TruncationReport", "ValidationError", "ZeroFunctional", "ZeroWeight",
    "alpha", "bound_constant", "classical_phi", "classify_orbit", "commutant_dimension",
    "complement_basis_alpha", "connect_alpha", "connect_phi", "convex_recombine",
    "convex_recombine_classical", "covariance", "denominator", "embed_classical",
    "fd_tangent_check", "flow", "gibbs_family", "gibbs_spectrum", "gns_construct",
    "gns_construct_abelian", "gns_transform", "group_element", "hermitian_basis",
    "hermitian_eig", "inertia", "isotropy_basis_alpha", "isotropy_basis_phi",
    "isotropy_dimension_alpha", "isotropy_membership_alpha", "isotropy_membership_phi",
    "isotropy_report", "make_spectrum_generator", "matrix_exp", "matrix_sqrt_psd",
    "maximally_mixed", "mix_states", "nonconvexity_witness", "orbit_dimension", "phi",
    "polar", "purity_check", "same_orbit_alpha", "spectral_split", "tangent_alpha",
    "tangent_map_rank", "tangent_phi", "tracial_orbit_point", "truncation_sweep",
    "unitary_phi", "validate_positive", "validate_probability", "validate_state",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(stategeom).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == sorted(PUBLIC_NAMES)
