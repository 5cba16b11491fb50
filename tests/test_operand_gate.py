"""The operand gate: every square operand is checked against the dimension of
the value it acts on, and a validated state is not checked again."""

import math

import numpy as np
import pytest

from oracles import frobenius_reference
import stategeom as sg
from stategeom import linalg
from stategeom.errors import ValidationError

RHO = sg.validate_state(np.diag([0.75, 0.25]).astype(complex))
OTHER = sg.validate_state(np.eye(3, dtype=complex) / 3.0)
G2 = np.diag([2.0, 1.0]).astype(complex)
G3 = np.diag([2.0, 1.0, 0.5]).astype(complex)
A3 = np.array([[0.2, 0.1, 0.0], [0.3, -0.1, 0.2j], [0.0, 0.1, 0.4]], dtype=complex)
H3 = np.diag([1.0, -1.0, 0.5]).astype(complex)
H2 = np.diag([1.0, -1.0]).astype(complex)

# each call hands a 3 x 3 operand to a 2 x 2 state
MISMATCHED = {
    "phi": lambda: sg.phi(G3, RHO),
    "phi-group-element": lambda: sg.phi(sg.group_element(G3), RHO),
    "alpha-functional": lambda: sg.alpha(G3, RHO),
    "alpha-matrix": lambda: sg.alpha(G3, RHO.matrix),
    "denominator": lambda: sg.denominator(G3, RHO),
    "unitary_phi": lambda: sg.unitary_phi(np.eye(3), RHO),
    "tangent_phi": lambda: sg.tangent_phi(RHO, A3),
    "tangent_alpha": lambda: sg.tangent_alpha(RHO, A3),
    "flow": lambda: sg.flow(RHO, A3, [0.0, 1.0]),
    "fd_tangent_check": lambda: sg.fd_tangent_check(RHO, A3),
    "covariance": lambda: sg.covariance(RHO, H3, H2),
    "isotropy_membership_alpha": lambda: sg.isotropy_membership_alpha(A3, RHO),
    "isotropy_membership_phi": lambda: sg.isotropy_membership_phi(A3, RHO),
    "mix_states": lambda: sg.mix_states(RHO, OTHER, 0.5),
    "nonconvexity_witness": lambda: sg.nonconvexity_witness(G3, RHO, RHO, 0.5),
    "convex_recombine": lambda: sg.convex_recombine(sg.maximally_mixed(2), G3, G2, 0.5),
    "gns_transform": lambda: sg.gns_transform(sg.gns_construct(RHO), G2, OTHER),
    "tracial_orbit_point": lambda: sg.tracial_orbit_point(G3, 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_dimension_mismatch_is_validation_error(call):
    with pytest.raises(ValidationError, match=r"has dimension \d, expected \d$"):
        call()


def test_group_element_keeps_a_matching_certificate():
    ge = sg.group_element(G2)
    assert sg.group_element(ge, 2) is ge


def test_classical_recombine_checks_weight_lengths():
    prob = sg.validate_probability([0.5, 0.5])
    with pytest.raises(ValidationError, match="expected 2 weights"):
        sg.convex_recombine_classical(prob, [1.0, 2.0, 3.0], [1.0, 1.0], 0.5)
    with pytest.raises(ValidationError, match="expected 2 weights"):
        sg.convex_recombine_classical(prob, [1.0, 1.0], [1.0], 0.5)


@pytest.fixture
def count_norms(monkeypatch):
    calls = []
    inner = linalg.frobenius

    def counted(a):
        calls.append(1)
        return inner(a)

    monkeypatch.setattr(linalg, "frobenius", counted)
    return calls


# a validated state is its own Hermitian certificate, and its rank cut reads the
# norm that validation took; validation takes the defect and the scale, and the
# rank cut of a bare operand reads its Hermitian test's scale
NORMS = {
    "spectral_split": (lambda: sg.spectral_split(RHO), 0),
    "classify_orbit": (lambda: sg.classify_orbit(RHO), 0),
    "gns_construct": (lambda: sg.gns_construct(RHO), 0),
    "tangent_map_rank": (lambda: sg.tangent_map_rank(RHO), 0),
    "validate_state": (lambda: sg.validate_state(RHO.matrix), 2),
    "matrix_sqrt_psd": (lambda: sg.matrix_sqrt_psd(RHO.matrix), 2),
    "same_orbit_alpha": (lambda: sg.same_orbit_alpha(RHO.matrix, G2), 4),
}


@pytest.mark.parametrize("call, expected", NORMS.values(), ids=NORMS.keys())
def test_frobenius_calls_per_call(count_norms, call, expected):
    call()
    assert len(count_norms) == expected


# one entry of a valid qubit state with a single non-finite part
NON_FINITE = {
    "real-inf": complex(np.inf, 0.0),
    "real-nan": complex(np.nan, 0.0),
    "imag-inf": complex(0.0, -np.inf),
    "imag-nan": complex(0.0, np.nan),
}
GATES = {
    "as_operator": lambda m: linalg.as_operator(m),
    "require_hermitian": lambda m: linalg.require_hermitian(m),
    "group_element": sg.group_element,
    "validate_state": sg.validate_state,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gate", GATES.values(), ids=GATES.keys())
@pytest.mark.parametrize("entry", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_one_non_finite_part_is_validation_error(gate, entry):
    m = np.diag([0.75, 0.25]).astype(complex)
    m[0, 1] = entry
    with pytest.raises(ValidationError, match=r"^\w[\w ]* contains non-finite entries$"):
        gate(m)


def _frobenius_inputs(rng):
    """Complex and real matrices, their dagger views and column slices, at
    n = 1..64 and scales 10^-160..10^160 (log-uniform)."""
    for _ in range(300):
        n = int(rng.integers(1, 65))
        scale = 10.0 ** rng.uniform(-160.0, 160.0)
        a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        cols = int(rng.integers(1, n + 1))
        for x in (a, a.real, linalg.dagger(a), linalg.dagger(a.real), a[:, :cols],
                  a.real[:, :cols]):
            yield x


@pytest.mark.filterwarnings("error")
def test_frobenius_is_the_norm_bit_for_bit():
    for x in _frobenius_inputs(np.random.default_rng(19)):
        assert linalg.frobenius(x).hex() == frobenius_reference(x).hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [complex, float])
def test_frobenius_rescues_entries_near_1e200(dtype):
    rng = np.random.default_rng(200)
    for n in (1, 3, 16):
        a = (1e200 * rng.uniform(0.5, 2.0, (n, n))).astype(dtype)
        if dtype is complex:
            a.imag = -1e200
        value = linalg.frobenius(a)
        assert math.isfinite(value) and value.hex() == frobenius_reference(a).hex()


@pytest.mark.filterwarnings("error")
def test_frobenius_adds_finite_dots_past_the_largest_double_without_a_warning():
    # the real and imaginary dots are each 2 (9e153)^2 = 1.62e308, finite, and
    # their sum is not: it is inf without a warning, and the norm is rescued
    a = 1e153 * np.array([[9, 9j], [-9j, 9]])
    value = linalg.frobenius(a)
    assert math.isfinite(value) and value.hex() == frobenius_reference(a).hex()
    assert sg.validate_positive(a).n == 2


@pytest.mark.parametrize("scale, entries", [(1.0, 0), (1e200, 1)], ids=["finite", "rescued"])
def test_frobenius_enters_errstate_and_norm_only_to_rescue(monkeypatch, scale, entries):
    calls = {"errstate": 0, "norm": 0}

    def counting(name, inner):
        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    monkeypatch.setattr(np, "errstate", counting("errstate", np.errstate))
    monkeypatch.setattr(np.linalg, "norm", counting("norm", np.linalg.norm))
    a = scale * (np.arange(16.0).reshape(4, 4) + 1j)
    assert math.isfinite(linalg.frobenius(a))
    assert calls == {"errstate": entries, "norm": entries}
