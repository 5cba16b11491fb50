"""The public names of ``import stategeom`` stay stable across refactors."""

import importlib
import inspect

import pytest

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
    names = sorted(name for name in dir(stategeom)
                   if not name.startswith("_") and not inspect.ismodule(getattr(stategeom, name)))
    assert names == sorted(PUBLIC_NAMES)


def test_dir_and_star_import_list_exactly_the_public_names():
    assert dir(stategeom) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from stategeom import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)


def test_each_name_is_its_owning_module_object():
    assert stategeom.phi is stategeom.actions.phi
    for module, names in stategeom._EXPORTS.items():
        owner = importlib.import_module(f"stategeom.{module}")
        for name in names:
            assert getattr(stategeom, name) is getattr(owner, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        stategeom.nope
