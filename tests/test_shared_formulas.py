"""The formulas everything is built from each have one implementation.

``linalg.hermitian_part`` forms the Hermitian part (a + a†)/2 whose spectrum
decides positivity and rank, so a finite functional cannot overflow its own
validation.  ``actions._normalization`` forms Tr(g rho g†) and applies the
one DENOMINATOR_FLOOR test, so ``phi``, ``denominator`` and ``gns_transform``
refuse the same elements.  ``tangent._tangent`` makes every tangent vector
from a velocity formula handed to it, so ``fd_tangent_check`` compares with
the value ``tangent_phi`` gives.  Tangent values, isotropy pairings and the
covariance that leave double range raise NumericalError without a numpy
warning.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from sampling import random_invertible, random_state
from stategeom import config
from stategeom.actions import _normalization, denominator, phi
from stategeom.errors import NumericalError, NumericallySingular, ValidationError
from stategeom.gns import GnsTriple, gns_construct, gns_transform
from stategeom.isotropy import isotropy_membership_alpha, isotropy_membership_phi
from stategeom.linalg import dagger, hermitian_part
from stategeom.orbits import same_orbit_alpha
from stategeom.states import classify_orbit, validate_positive, validate_state
from stategeom.tangent import covariance, fd_tangent_check, tangent_alpha, tangent_phi

PACKAGE = Path(config.__file__).resolve().parent
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
# a finite PSD functional whose entries lie above half the largest double
HUGE = 1.2e308 * np.diag([0.75, 0.25]).astype(complex)


def _functions():
    """(module file name, def) of every function in the package, nested ones included."""
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                yield path.name, func


def _is_dagger_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dagger")


def test_the_hermitian_part_is_written_once():
    # (x + dagger(x)) / 2 overflows above half the largest double; every
    # Hermitian part is hermitian_part's
    halved_sums = {(module, func.name) for module, func in _functions()
                   for node in ast.walk(func)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                   and isinstance(node.right, ast.Constant) and node.right.value == 2
                   and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
                   and (_is_dagger_call(node.left.left) or _is_dagger_call(node.left.right))}
    assert halved_sums <= {("linalg.py", "hermitian_part")}


def test_the_denominator_floor_is_read_by_one_function():
    # phi, every flow point, denominator and gns_transform share one floor test
    readers = {(module, func.name) for module, func in _functions() for node in ast.walk(func)
               if isinstance(node, ast.Attribute) and node.attr == "DENOMINATOR_FLOOR"}
    raisers = {(module, func.name) for module, func in _functions() for node in ast.walk(func)
               if isinstance(node, ast.Name) and node.id == "NumericallySingular"}
    assert readers == {("actions.py", "_normalization")}
    assert raisers == {("actions.py", "_normalization")}


def test_one_body_makes_every_tangent_vector():
    # phi_velocity is alpha_velocity less its trace; otherwise tangent.py only
    # names the two formulas to hand them to its one tangent body, _tangent
    velocities = ("alpha_velocity", "phi_velocity")
    tangent = [func for module, func in _functions() if module == "tangent.py"]
    named = {func.name for func in tangent for node in ast.walk(func)
             if isinstance(node, ast.Name) and node.id in velocities}
    calls = {func.name for func in tangent for node in ast.walk(func)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in velocities}
    assert named == {"phi_velocity", "tangent_alpha", "tangent_phi"}
    assert calls == {"phi_velocity"}


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_hermitian_part_has_the_bits_of_the_halved_sum(n):
    rng = np.random.default_rng(4100 + n)
    for exponent in (-150, -20, 0, 20, 150):
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 10.0 ** exponent
        assert hermitian_part(a).tobytes() == ((a + dagger(a)) / 2.0).tobytes()


@pytest.mark.filterwarnings("error")
def test_hermitian_part_is_finite_above_half_the_largest_double():
    a = np.array([[1.7e308, 1.5e308 - 1.6e308j], [1.5e308 + 1.6e308j, -1.7e308]])
    assert hermitian_part(a).tobytes() == a.tobytes()


@pytest.mark.filterwarnings("error")
def test_a_functional_above_half_the_largest_double_validates():
    xi = validate_positive(HUGE)
    assert math.isfinite(xi.trace) and xi.trace == 1.2e308
    for value in (xi, HUGE):
        orbit = classify_orbit(value)
        assert (orbit.rank, orbit.corank) == (2, 0)
    assert same_orbit_alpha(HUGE, HUGE)
    assert not same_orbit_alpha(HUGE, np.diag([1.2e308, 0.0]))


def _refusal(call):
    try:
        call()
    except NumericallySingular:
        return True
    return False


def test_phi_denominator_and_gns_transform_refuse_alike_at_the_floor():
    # Tr(g rho g†) scaled to the floor, then moved by a few units in the last place
    rng = np.random.default_rng(0)
    decisions = refusals = 0
    for case in range(720):
        n = 2 + case % 4
        rho = random_state(rng, n)
        g = random_invertible(rng, n)
        g = g * math.sqrt(config.DENOMINATOR_FLOOR / np.trace(rho.matrix @ dagger(g) @ g).real)
        triple = gns_construct(rho)
        for k in range(-3, 4):
            gk = g * (1.0 + k * 2.0 ** -53)
            refused = _refusal(lambda: phi(gk, rho))
            assert _refusal(lambda: denominator(gk, rho)) is refused
            assert _refusal(lambda: gns_transform(triple, gk, rho)) is refused
            decisions += 1
            refusals += refused
    assert decisions >= 5000 and 0 < refusals < decisions


def test_denominator_is_the_number_phi_divides_by():
    rng = np.random.default_rng(4200)
    for n in (1, 3, 6):
        rho = random_state(rng, n)
        g = random_invertible(rng, n)
        for scale in (2.0 ** -8, 1.0, 2.0 ** 40):
            m, e = _normalization(scale * g, rho)[:2]
            num = m @ rho.matrix @ dagger(m)
            d = denominator(scale * g, rho)
            assert d == math.ldexp(float(np.trace(num).real), 2 * e)
            image = phi(scale * g, rho).matrix
            assert image.tobytes() == (num / math.ldexp(d, -2 * e)).tobytes()


def test_gns_transform_reports_the_floor_before_the_consistency_error():
    # the triple is not rho's, and Tr(g rho g†) = 1e-16 is at the floor: phi's
    # refusal comes first
    triple = gns_construct(validate_state(np.diag([0.5, 0.5]).astype(complex)))
    rho = validate_state(np.diag([0.0, 1.0]).astype(complex))
    g = np.diag([1.0, 1e-8]).astype(complex)
    with pytest.raises(NumericallySingular, match="1.000e-16"):
        gns_transform(triple, g, rho)
    with pytest.raises(ValidationError, match="psi"):
        gns_transform(triple, np.diag([1.0, 2.0]).astype(complex), rho)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("triple, g", [
    # <psi|pi(g†g)|psi> = 1e-20 against rho(g†g) = 5e-11, which clears the floor
    (gns_construct(validate_state(np.diag([1.0, 0.0]).astype(complex))), np.diag([1e-10, 1e-5])),
    # a zero cyclic vector: its transport would divide 0 by 0
    (GnsTriple(n=2, dim=4, cyclic=np.zeros(4, dtype=complex)), 1e-5 * np.eye(2)),
], ids=["other-state", "zero-vector"])
def test_gns_transform_refuses_a_triple_that_is_not_rhos_for_a_small_g(triple, g):
    # the consistency bound is relative to ||g||_F^2 below ||g||_F = 1, not the
    # absolute 1e-8 that both of these pass
    rho = validate_state(np.eye(2, dtype=complex) / 2.0)
    with pytest.raises(ValidationError, match="psi.*exceeds"):
        gns_transform(triple, g.astype(complex), rho)


STATE = validate_state(np.diag([0.75, 0.25]).astype(complex))


@pytest.mark.filterwarnings("error")
def test_a_representable_tangent_vector_above_half_the_largest_double_is_returned():
    value = tangent_alpha(STATE, 1e308 * SIGMA_X).value
    assert np.isfinite(value).all()
    np.testing.assert_allclose(value.real, 1e308 * SIGMA_X.real, rtol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, what", [
    (lambda: tangent_alpha(validate_positive(1e300 * np.diag([0.75, 0.25])), 1e300 * SIGMA_X),
     "tangent vector"),
    (lambda: tangent_phi(STATE, 1.5e308 * SIGMA_Z), "tangent vector"),
    (lambda: fd_tangent_check(STATE, 1.5e308 * SIGMA_Z), "tangent vector"),
    (lambda: covariance(STATE, 1e200 * SIGMA_Z, 1e200 * SIGMA_Z), "covariance"),
    (lambda: isotropy_membership_alpha(1e308 * SIGMA_X, validate_positive(1e300 * np.eye(2))),
     "isotropy pairing"),
    (lambda: isotropy_membership_phi(1e308 * SIGMA_X, STATE), "isotropy pairing"),
], ids=["tangent_alpha", "tangent_phi", "fd_tangent_check", "covariance",
        "isotropy_membership_alpha", "isotropy_membership_phi"])
def test_an_overflowing_tangent_value_is_a_numerical_error(call, what):
    with pytest.raises(NumericalError, match=f"^{what} overflows double precision$"):
        call()
