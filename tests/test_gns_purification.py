import numpy as np
import pytest

from sampling import random_state
from stategeom import config
from stategeom.errors import ValidationError
from stategeom.gns import gns_construct, gns_construct_abelian, gns_transform
from stategeom.states import maximally_mixed, validate_probability, validate_state


def test_rank_three_state_at_n48():
    rng = np.random.default_rng(48)
    rho = random_state(rng, 48, rank=3)
    triple = gns_construct(rho)
    assert triple.dim == 144
    assert np.linalg.norm(triple.cyclic) == pytest.approx(1.0, abs=1e-10)
    for _ in range(3):
        a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        assert abs(triple.expectation(a) - np.trace(rho.matrix @ a)) <= 1e-9


def test_tolerance_scale_moves_transform_consistency_bound():
    rho = validate_state(np.diag([0.75, 0.25]).astype(complex))
    delta = 1e-7
    other = validate_state(np.diag([0.75 + delta, 0.25 - delta]).astype(complex))
    triple = gns_construct(rho)
    g = np.diag([2.0, 1.0]).astype(complex)
    # rho(g†g) and other(g†g) differ by 3 * delta, far above the default
    # bound 1e-8 * (1 + 3.25) but inside it after a hundredfold rescale
    with pytest.raises(ValidationError):
        gns_transform(triple, g, other)
    config.set_tolerance_scale(100.0)
    moved = gns_transform(triple, g, other)
    assert np.linalg.norm(moved.cyclic) == pytest.approx(1.0, abs=1e-12)


def test_wrong_dimension_element_is_validation_error():
    triple = gns_construct(maximally_mixed(2))
    for call in (triple.rep, triple.vector_of, triple.expectation):
        with pytest.raises(ValidationError, match="dimension 3, expected 2"):
            call(np.eye(3))


def test_abelian_wrong_length_element_is_validation_error():
    triple = gns_construct_abelian(validate_probability([0.5, 0.5]))
    for call in (triple.rep, triple.expectation):
        with pytest.raises(ValidationError, match="length-2"):
            call(np.array([1.0, 2.0, 3.0]))
