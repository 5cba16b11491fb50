"""The validated-value protocol, read off the signatures of the exported functions.

- A parameter annotated ``StateDensity`` or ``PositiveFunctional`` takes a bare
  array or its validated value alike, with the same bits out, and a functional
  of trace 3 given where a state is expected raises TraceError.
- An unannotated operand (a matrix parameter) takes a validated value, a
  ``PositiveFunctional`` or a ``GroupElement``, as the matrix it holds.

A new exported function is covered as soon as its parameters have samples
below; one whose parameter has none fails here until it gets one.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import stategeom
from stategeom import (StateGeomError, TraceError, gns_construct, group_element,
                       make_spectrum_generator, spectral_split, validate_positive,
                       validate_state)

RHO = np.array([[0.5, 0.1 - 0.1j, 0.0], [0.1 + 0.1j, 0.3, 0.05], [0.0, 0.05, 0.2]])
RHO1 = np.diag([0.6, 0.3, 0.1]).astype(complex)
G = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.2j], [0.0, -0.2j, 1.0]])
A = np.array([[0.3, 0.1j, 0.0], [-0.1j, 0.2, 0.05], [0.0, 0.05, 0.1]])
B = np.array([[0.2, 0.0, 0.05], [0.0, 0.4, 0.0], [0.05, 0.0, 0.3]])
U = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
PROB = np.array([0.25, 0.75])

# a sample per parameter name; matrices are Hermitian and positive definite, so
# each one is also a valid PositiveFunctional and GroupElement, the unitary aside
SAMPLES = {
    "g": G, "g1": G, "g2": np.eye(3) + A, "u": U, "a": A, "b": B, "h": A, "p": G,
    "m": RHO, "xi": RHO, "xi0": RHO, "xi1": RHO1, "rho": RHO, "rho0": RHO, "rho1": RHO1,
    "rho2": RHO1, "tau": np.eye(3) / 3.0, "w": [1.0, 2.0], "w1": [1.0, 2.0],
    "w2": [2.0, 1.0], "lam": 0.3, "n": 3, "k": 2, "zero_tol": 1e-9, "ratio": 0.5,
    "t_grid": [0.0, 0.5], "action": "phi", "dims": [2, 3], "mapping": {"kind": "uniform"},
}
# where a name means something else in one function
OVERRIDES = {
    ("classical_phi", "p"): PROB,
    ("embed_classical", "p"): PROB,
    ("validate_probability", "p"): PROB,
}
BY_ANNOTATION = {
    "ProbabilityVector": lambda: PROB,
    "SpectralSplit": lambda: spectral_split(RHO),
    "GnsTriple": lambda: gns_construct(RHO),
    "SpectrumGenerator": lambda: make_spectrum_generator({"kind": "uniform"}),
}
VALIDATORS = {"StateDensity": validate_state, "PositiveFunctional": validate_positive}
# alpha returns a validated value for a validated xi and a matrix for a matrix
TYPED_BY_OPERAND = {("alpha", "xi")}


def _exported_functions():
    for name in stategeom.__all__:
        obj = getattr(stategeom, name)
        if inspect.isfunction(obj):
            yield name, obj


def _required(func):
    """The parameters a call must pass (the defaulted ones keep their defaults)."""
    return [p for p in inspect.signature(func).parameters.values()
            if p.default is inspect.Parameter.empty]


def _bare(name, param):
    """The bare sample of a parameter: a functional that is not a state where the
    annotation asks for a positive functional only."""
    if param.annotation in BY_ANNOTATION:
        return BY_ANNOTATION[param.annotation]()
    if (name, param.name) in OVERRIDES:
        return OVERRIDES[name, param.name]
    if param.name not in SAMPLES:
        raise AssertionError(f"{name}({param.name}) has no sample: add one to SAMPLES")
    sample = SAMPLES[param.name]
    return 2.0 * sample if param.annotation == "PositiveFunctional" else sample


def _bits(x):
    """Everything an output holds, down to the bytes of its arrays."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_bits(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return x.hex()
    return x


def _cases(select):
    """(function name, parameter name) for each required parameter that ``select``
    takes, given the parameter and its bare sample."""
    out = []
    for name, func in _exported_functions():
        for param in _required(func):
            if select(param, _bare(name, param)) and (name, param.name) not in TYPED_BY_OPERAND:
                out.append((name, param.name))
    return out


def _call(name, replace=None):
    func = getattr(stategeom, name)
    args = {p.name: _bare(name, p) for p in _required(func)}
    args.update(replace or {})
    return func(**args)


VALIDATED = _cases(lambda param, bare: param.annotation in VALIDATORS)
STATES = [(name, param) for name, param in VALIDATED
          if inspect.signature(getattr(stategeom, name)).parameters[param].annotation
          == "StateDensity"]
OPERANDS = _cases(lambda param, bare: param.annotation is inspect.Parameter.empty
                  and isinstance(bare, np.ndarray) and bare.ndim == 2)


def test_the_cases_cover_the_protocol():
    # 20 functions take a functional or a state, 16 of them a state
    assert len({name for name, _ in VALIDATED}) >= 20
    assert len({name for name, _ in STATES}) >= 16
    assert {"matrix_exp", "polar", "inertia", "same_orbit_alpha", "group_element",
            "hermitian_eig", "matrix_sqrt_psd", "covariance"} <= {name for name, _ in OPERANDS}


@pytest.mark.parametrize("name, param", VALIDATED)
def test_a_bare_array_and_its_validated_value_give_the_same_bits(name, param):
    func = getattr(stategeom, name)
    annotation = inspect.signature(func).parameters[param].annotation
    bare = _bare(name, inspect.signature(func).parameters[param])
    value = VALIDATORS[annotation](bare)
    assert _bits(_call(name)) == _bits(_call(name, {param: value}))


@pytest.mark.parametrize("name, param", STATES)
def test_a_functional_that_is_not_a_state_is_refused_as_one(name, param):
    bare = 3.0 * _bare(name, inspect.signature(getattr(stategeom, name)).parameters[param])
    for functional in (bare, validate_positive(bare)):
        with pytest.raises(TraceError):
            _call(name, {param: functional})


@pytest.mark.parametrize("name, param", OPERANDS)
def test_an_operand_takes_a_validated_value_as_its_matrix(name, param):
    bare = _bare(name, inspect.signature(getattr(stategeom, name)).parameters[param])
    expected = _bits(_call(name))
    wrapped = 0
    for wrap in (validate_positive, group_element):
        try:
            value = wrap(bare)
        except StateGeomError:  # the unitary is not a positive functional
            continue
        assert np.asarray(value) is value.matrix
        assert _bits(_call(name, {param: value})) == expected, wrap.__name__
        wrapped += 1
    assert wrapped
