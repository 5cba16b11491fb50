"""Refusals that no other test reaches: each raises its own type with its own text."""

import numpy as np
import pytest

import sampling
from stategeom.errors import ValidationError, ZeroFunctional
from stategeom.isotropy import hermitian_basis, isotropy_dimension_alpha, orbit_dimension
from stategeom.linalg import as_operator, inertia
from stategeom.orbits import (SpectrumGenerator, make_spectrum_generator, same_orbit_alpha,
                              tracial_orbit_point, truncation_sweep)
from stategeom.serialize import flow_csv, matrix_to_jsonable
from stategeom.states import (PositiveFunctional, gibbs_spectrum, maximally_mixed,
                              spectral_split, validate_probability)

UNIFORM = SpectrumGenerator("uniform")

REFUSALS = {
    "as_operator-not-square": (
        lambda: as_operator(np.zeros((2, 3))),
        ValidationError, "operator must be a square matrix, got shape (2, 3)"),
    "as_operator-empty": (
        lambda: as_operator(np.zeros((0, 0))),
        ValidationError, "operator must have positive dimension"),
    "inertia-negative-zero-tol": (
        lambda: inertia(np.eye(2), -1.0),
        ValidationError, "zero_tol must be non-negative"),
    "inertia-nan-zero-tol": (
        lambda: inertia(np.diag([1.0, 0.0, -1.0]), float("nan")),
        ValidationError, "zero_tol must be non-negative"),
    "isotropy_dimension_alpha-empty-support": (
        lambda: isotropy_dimension_alpha(0, 3),
        ValidationError, "support dimension must lie in [1, 3], got 0"),
    "orbit_dimension-unknown-action": (
        lambda: orbit_dimension(spectral_split(maximally_mixed(2)), "beta"),
        ValidationError, "unknown action 'beta', expected 'alpha' or 'phi'"),
    "dirichlet-without-generator": (
        lambda: SpectrumGenerator("dirichlet").spectrum(3),
        ValidationError, "dirichlet spectra need a seeded generator"),
    "unknown-spectrum-kind": (
        lambda: SpectrumGenerator("nope").spectrum(3),
        ValidationError, "unknown spectrum kind 'nope'"),
    "spectrum-config-without-kind": (
        lambda: make_spectrum_generator({}),
        ValidationError, "spectrum config must be a mapping with a 'kind' key"),
    "truncation_sweep-unknown-action": (
        lambda: truncation_sweep(UNIFORM, UNIFORM, [2], action="beta"),
        ValidationError, "unknown action 'beta', expected 'alpha' or 'phi'"),
    "matrix_to_jsonable-unknown-kind": (
        lambda: matrix_to_jsonable(np.eye(2), "bogus"),
        ValidationError, "unknown kind 'bogus', expected one of ('operator', 'state', 'positive')"),
    "flow_csv-empty": (
        lambda: flow_csv([], []),
        ValidationError, "empty trajectory"),
    "probability-two-dimensional": (
        lambda: validate_probability([[0.5, 0.5]]),
        ValidationError, "probability vector must be 1-d and nonempty, got shape (1, 2)"),
    "probability-nan": (
        lambda: validate_probability([0.5, float("nan")]),
        ValidationError, "probability vector contains non-finite entries"),
    "spectral_split-zero": (
        lambda: spectral_split(PositiveFunctional(np.zeros((2, 2), dtype=complex))),
        ZeroFunctional, "functional has empty support at the given tolerance"),
    "maximally_mixed-zero": (
        lambda: maximally_mixed(0),
        ValidationError, "dimension must be >= 1, got 0"),
    "random_state-rank-above-n": (
        lambda: sampling.random_state(np.random.default_rng(0), 3, 4),
        ValidationError, "rank must lie in [1, 3], got 4"),
}


DIMENSION_TAKERS = {
    "maximally_mixed": maximally_mixed,
    "tracial_orbit_point": lambda n: tracial_orbit_point(np.eye(3), n),
    "gibbs_spectrum": lambda n: gibbs_spectrum(n, 0.5),
    "hermitian_basis": hermitian_basis,
    "uniform-spectrum": UNIFORM.spectrum,
    "power-spectrum": SpectrumGenerator("power", {"exponent": 1}).spectrum,
    "isotropy_dimension_alpha-n": lambda n: isotropy_dimension_alpha(1, n),
    "isotropy_dimension_alpha-k": lambda k: isotropy_dimension_alpha(k, 3),
}


@pytest.mark.parametrize("name", DIMENSION_TAKERS)
def test_a_dimension_is_a_positive_integer(name):
    take = DIMENSION_TAKERS[name]
    for n in (0, -1, 2.5, True):
        with pytest.raises(ValidationError) as caught:
            take(n)
        assert type(caught.value) is ValidationError, n
    # a numpy integer is taken as the int it equals
    assert np.array_equal(np.asarray(take(np.int64(3))), np.asarray(take(3)))


@pytest.mark.parametrize("k, message", [
    ("1", "dimension must be an integer, got '1'"),
    (None, "dimension must be an integer, got None"),
    (2 + 0j, "dimension must be an integer, got (2+0j)"),
    ([1], "dimension must be an integer, got [1]"),
    (0, "support dimension must lie in [1, 3], got 0"),
    (4, "support dimension must lie in [1, 3], got 4"),
    (float("nan"), "support dimension must lie in [1, 3], got nan"),
    (1.0, "dimension must be an integer, got 1.0"),
    (1.5, "dimension must be an integer, got 1.5"),
    (True, "dimension must be an integer, got True"),
], ids=["str", "none", "complex", "list", "zero", "above-n", "nan", "integral-float", "float",
        "bool"])
def test_a_support_dimension_is_range_checked_only_when_real(k, message):
    # the range test compares k with 1 and n only for a real k; any other k is
    # refused as not an integer
    with pytest.raises(ValidationError) as caught:
        isotropy_dimension_alpha(k, 3)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == message


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_type_and_text(call, exc, message):
    with pytest.raises(exc) as caught:
        call()
    assert type(caught.value) is exc
    assert str(caught.value) == message


def test_functionals_of_different_dimensions_are_not_congruent():
    assert same_orbit_alpha(np.eye(2), np.eye(3)) is False
