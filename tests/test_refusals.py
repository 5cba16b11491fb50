"""Refusals that no other test reaches: each raises its own type with its own text."""

import numpy as np
import pytest

import sampling
from stategeom.errors import ValidationError, ZeroFunctional
from stategeom.isotropy import isotropy_dimension_alpha, orbit_dimension
from stategeom.linalg import as_operator, inertia
from stategeom.orbits import (SpectrumGenerator, make_spectrum_generator, same_orbit_alpha,
                              truncation_sweep)
from stategeom.serialize import flow_csv, matrix_to_jsonable
from stategeom.states import (PositiveFunctional, maximally_mixed, spectral_split,
                              validate_probability)

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


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_type_and_text(call, exc, message):
    with pytest.raises(exc) as caught:
        call()
    assert type(caught.value) is exc
    assert str(caught.value) == message


def test_functionals_of_different_dimensions_are_not_congruent():
    assert same_orbit_alpha(np.eye(2), np.eye(3)) is False
