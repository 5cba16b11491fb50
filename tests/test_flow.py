"""``flow`` and ``fd_tangent_check`` at the exponential floor.

Every point keeps the bits (or the error) of phi(matrix_exp(t a), rho); the
two O(n^2) certificates that replace the SVD of ``group_element`` and the
eigvalsh of ``validate_state`` each accept where their bounds hold and fall
back to that SVD elsewhere; and only they decide through ``config.clears``.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from stategeom import config, tangent
from stategeom.actions import phi
from stategeom.errors import NumericalError, ValidationError
from stategeom.linalg import frobenius, matrix_exp
from stategeom.sampling import random_direction, random_state
from stategeom.states import validate_state
from stategeom.tangent import fd_tangent_check, flow, phi_velocity


def _reference(rho, a, t):
    """phi(matrix_exp(t a), rho) as bytes, or the message flow gives its error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return phi(matrix_exp(t * a), rho).matrix.tobytes()
    except ValidationError as exc:
        return (f"exp(t a) is not numerically usable at t = {float(t)!r}: "
                f"{type(exc).__name__}: {exc}")
    except NumericalError as exc:
        return str(exc)


def _flow_point(rho, a, t):
    try:
        return flow(rho, a, [t])[0].matrix.tobytes()
    except NumericalError as exc:
        return str(exc)


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVDs taken, i.e. the points that fell back to group_element."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_every_point_keeps_the_bits_of_phi(n):
    rng = np.random.default_rng(700 + n)
    for rank in sorted({n, max(1, n // 2), 1}):
        rho = random_state(rng, n, rank)
        for norm in (0.1, 1.0, 5.0, 50.0):
            a = random_direction(rng, n, norm)
            for t in rng.uniform(-1.0, 2.0, 3 if n == 64 else 6):
                assert _flow_point(rho, a, t) == _reference(rho, a, t), (rank, norm, t)


def test_a_grid_is_its_points():
    rng = np.random.default_rng(720)
    rho = random_state(rng, 16, 4)
    a = random_direction(rng, 16, 1.0)
    grid = np.linspace(-1.0, 2.0, 13)
    assert [p.matrix.tobytes() for p in flow(rho, a, grid)] == \
        [_reference(rho, a, t) for t in grid]


class TestInvertibilityCertificate:
    def test_accepts_a_moderate_flow_without_an_svd(self, svd_calls):
        rng = np.random.default_rng(721)
        rho = random_state(rng, 8)
        a = random_direction(rng, 8, 1.0)
        grid = np.linspace(0.0, 1.0, 6)
        points = flow(rho, a, grid)
        assert svd_calls == []
        assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]

    def test_falls_back_past_its_bound_and_keeps_the_bits(self, svd_calls):
        # exp(t a) is unitary, but e^-(|t| ||a||_F) = e^-60 cannot certify it
        rng = np.random.default_rng(722)
        rho = random_state(rng, 4)
        h = random_direction(rng, 4, 1.0)
        a = 60.0 * (h - h.conj().T) / frobenius(h - h.conj().T)
        assert not tangent._invertible(frobenius(matrix_exp(a)), 60.0, 4)
        point = flow(rho, a, [1.0])[0]
        assert len(svd_calls) == 1
        assert point.matrix.tobytes() == _reference(rho, a, 1.0)

    def test_gives_up_past_its_cut_off_and_keeps_the_bits(self, svd_calls):
        # at t = 700, |t| ||a||_F = 1050 passes the cut-off of 700, past which
        # e^x would overflow (math.exp raises there); exp(t a) stays unitary
        rng = np.random.default_rng(726)
        rho = random_state(rng, 4)
        h = random_direction(rng, 4, 1.0)
        a = 1.5j * (h + h.conj().T) / frobenius(h + h.conj().T)
        grid = [0.5, 700.0]
        points = flow(rho, a, grid)
        assert len(svd_calls) == 1  # only t = 700 fell back
        assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]

    def test_fallback_raises_todays_error(self, svd_calls):
        # cond exp(t Z) = e^{2t} passes the 1e12 limit at t = 14
        rho = validate_state(np.eye(2, dtype=complex) / 2.0)
        z = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(NumericalError) as caught:
            flow(rho, z, [0.0, 14.0])
        assert len(svd_calls) == 1
        assert str(caught.value) == _reference(rho, z, 14.0)
        assert "Singular: sigma_min" in str(caught.value)


class TestPositivityCertificate:
    def test_accepts_a_rank_one_state_without_an_svd(self, svd_calls):
        rng = np.random.default_rng(723)
        rho = random_state(rng, 8, 1)
        a = random_direction(rng, 8, 0.5)
        grid = np.linspace(0.0, 1.0, 6)
        points = flow(rho, a, grid)
        assert svd_calls == []
        assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]

    def test_falls_back_where_the_congruence_bound_fails(self, svd_calls):
        # exp(diag(3, -3)) is well conditioned, but it shrinks the support of
        # diag(0, 1) by e^-6 against ||m||_F, so the rounding allowance times
        # ||m||_F^2 / Tr passes PSD_CLAMP_RTOL's bound
        rho = validate_state(np.diag([0.0, 1.0]).astype(complex))
        a = np.diag([3.0, -3.0]).astype(complex)
        g = matrix_exp(a)
        assert tangent._invertible(frobenius(g), math.sqrt(18.0), 2)
        point = flow(rho, a, [1.0])[0]
        assert len(svd_calls) == 1
        assert point.matrix.tobytes() == _reference(rho, a, 1.0)


def test_a_tolerance_scale_no_state_can_clear_falls_back_with_the_same_bits(svd_calls):
    # at n = 16 eigvalsh's allowance alone, 5 gamma_64 = 3.6e-14, exceeds the
    # scaled PSD_CLAMP_RTOL of 1e-14, so every point's certificate fails
    rng = np.random.default_rng(725)
    rho = random_state(rng, 16)
    a = random_direction(rng, 16, 1.0)
    config.set_tolerance_scale(1e-4)
    grid = [0.0, 0.5]
    points = flow(rho, a, grid)
    assert len(svd_calls) == 2
    assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]


def test_underflowing_products_keep_the_bits_of_phi_without_an_svd(svd_calls):
    # off-diagonal entries of 1e-200 make products in the congruence round
    # below 2^-1022; flow and phi take the same prescale, so they still agree
    rng = np.random.default_rng(724)
    rho = random_state(rng, 3)
    a = np.diag([0.5, -0.2, 0.1]).astype(complex) + 1e-200 * random_direction(rng, 3)
    grid = [0.3, 1.0]
    points = flow(rho, a, grid)
    assert svd_calls == []
    assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]


@pytest.mark.parametrize("n", [2, 4, 16])
def test_fd_tangent_check_keeps_its_bits_without_an_svd(n, svd_calls):
    rng = np.random.default_rng(730 + n)
    h = config.FD_STEP
    for rank in sorted({n, max(1, n // 2), 1}):
        rho = random_state(rng, n, rank)
        a = random_direction(rng, n, 1.0)
        value = phi_velocity(rho.matrix, a)
        fd = (phi(matrix_exp(h * a), rho).matrix - phi(matrix_exp(-h * a), rho).matrix) / (2 * h)
        expected = frobenius(fd - value) / (1.0 + frobenius(value))
        calls = len(svd_calls)
        assert fd_tangent_check(rho, a) == expected
        assert len(svd_calls) == calls  # only the reference took SVDs


def _call_sites(name, owner="config"):
    package = Path(config.__file__).resolve().parent
    sites = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == name and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == owner):
                    sites.add((path.name, func.name))
    return sites


def test_clears_is_read_only_by_the_flow_certificates():
    # a failed certificate falls back to the raising checks; nothing else may
    # take a threshold decision without raising
    assert _call_sites("clears") == {
        ("tangent.py", "_invertible"),
        ("tangent.py", "_positive"),
    }


def test_one_rule_picks_a_power_of_two_exponent():
    # the normalized action's prescale is chosen in actions._prescale alone;
    # the others are the norm's overflow rescue and the classical weights'
    assert _call_sites("frexp", "math") == {
        ("linalg.py", "frobenius"),
        ("actions.py", "_weight_squares"),
        ("actions.py", "_prescale"),
    }
    assert _call_sites("frexp", "np") == set()


@pytest.mark.parametrize("floor", [False, True])
@pytest.mark.parametrize("exp2", [0, 3])
@pytest.mark.parametrize("value", [1.9, 2.0, 2.1, math.nan, math.inf, -math.inf])
def test_clears_is_the_decision_of_check(value, floor, exp2):
    value = math.ldexp(value, -exp2)
    try:
        config.check("x", value, 1.0, 2.0, ValueError, floor=floor, exp2=exp2)
        passed = True
    except ValueError:
        passed = False
    assert config.clears(value, 1.0, 2.0, floor=floor, exp2=exp2) is passed
