"""A value built from its class certifies its images as a validated value does.

``StateDensity(matrix=a)`` and ``PositiveFunctional(matrix=a)`` carry no gate
record, so ``actions._rates`` reads the floor and norm of the congruence
certificate off the value's eigen-record instead.  The images of ``phi``,
``alpha``, ``unitary_phi``, ``flow`` and ``fd_tangent_check`` keep the bits of
the validated twin's, a value that is not PSD is refused where ``psd_gate``
refuses its image, and a frozen value runs one ``eigh`` however often it acts.
"""

import numpy as np
import pytest

from sampling import random_direction, random_invertible, random_state, random_unitary
from stategeom import (PositiveFunctional, StateDensity, alpha, fd_tangent_check, flow,
                      group_element, phi, unitary_phi, validate_positive, validate_state)
from stategeom.actions import prescaled_phi
from stategeom.errors import NotPSD
from test_eigen_record import eigh_calls  # noqa: F401  (a fixture)


def frozen_copy(m):
    out = np.array(m)
    out.flags.writeable = False
    return out


COPIES = {"frozen": frozen_copy, "writable": np.array}
CLASSES = {"StateDensity": StateDensity, "PositiveFunctional": PositiveFunctional}


def _images(rho, g, u, a):
    """The bytes of every image the actions and the flow make of ``rho``."""
    grid = np.linspace(-1.0, 2.0, 5)
    return [phi(g, rho).matrix.tobytes(), alpha(g, rho).matrix.tobytes(),
            unitary_phi(u, rho).matrix.tobytes(),
            *(p.matrix.tobytes() for p in flow(rho, a, grid)),
            np.float64(fd_tangent_check(rho, a)).tobytes()]


@pytest.mark.parametrize("copy", COPIES)
@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("n, rank", [(1, 1), (2, 1), (4, 2), (4, 4), (16, 16)])
def test_a_built_value_gives_its_validated_twins_bits(n, rank, cls, copy):
    rng = np.random.default_rng(4801 + n + rank)
    twin = random_state(rng, n, rank)
    g, u, a = random_invertible(rng, n), random_unitary(rng, n), random_direction(rng, n)
    built = CLASSES[cls](matrix=COPIES[copy](twin.matrix))
    assert _images(built, g, u, a) == _images(twin, g, u, a)


@pytest.mark.parametrize("copy", COPIES)
def test_a_built_functional_of_another_trace_gives_alphas_bits(copy):
    rng = np.random.default_rng(4802)
    m = 3.0 * random_state(rng, 4, 3).matrix
    g = random_invertible(rng, 4)
    built = PositiveFunctional(matrix=COPIES[copy](m))
    assert alpha(g, built).matrix.tobytes() == alpha(g, validate_positive(m)).matrix.tobytes()


@pytest.mark.parametrize("copy", COPIES)
def test_a_built_value_that_is_not_psd_has_its_image_refused(copy):
    # the certificate cannot clear a negative floor, so psd_gate decides, on the
    # matrix a bare array's image is validated from, with that refusal's text
    rng = np.random.default_rng(4803)
    m = np.diag([1.2, -0.2]).astype(complex)
    g = np.eye(2) + 0.1 * random_invertible(rng, 2)
    built = StateDensity(matrix=COPIES[copy](m))
    with pytest.raises(NotPSD) as expected:
        validate_state(prescaled_phi(group_element(g).matrix, built))
    with pytest.raises(NotPSD) as refused:
        phi(g, built)
    assert str(refused.value) == str(expected.value)
    assert str(refused.value).startswith("-(smallest eigenvalue)")
    with pytest.raises(NotPSD) as expected:
        validate_positive(alpha(g, m))
    with pytest.raises(NotPSD) as refused:
        alpha(g, PositiveFunctional(matrix=COPIES[copy](m)))
    assert str(refused.value) == str(expected.value)


def test_a_frozen_built_value_runs_one_eigh_however_often_it_acts(eigh_calls):
    rng = np.random.default_rng(4804)
    twin = random_state(rng, 4)
    g = random_invertible(rng, 4)
    built = StateDensity(matrix=frozen_copy(twin.matrix))
    for _ in range(3):
        phi(g, built)
        phi(g, twin)
    assert len(eigh_calls) == 1
    assert "_eigenpairs" in built.__dict__ and "_eigenpairs" not in twin.__dict__


def test_a_writable_built_value_runs_one_eigh_per_call(eigh_calls):
    # a writable matrix keeps no eigen-record, so changes to it are seen
    rng = np.random.default_rng(4805)
    g = random_invertible(rng, 4)
    built = StateDensity(matrix=np.array(random_state(rng, 4).matrix))
    for _ in range(3):
        phi(g, built)
    assert len(eigh_calls) == 3
