"""``flow`` and ``fd_tangent_check`` at the exponential floor.

Every point keeps the bits (or the error) of phi(E(t), rho) from one
exponential and one congruence, where E is the evaluator of t -> exp(t a) that
the flow holds (``linalg._Exponential``).  Two O(n^2) certificates stand in for the SVD of
``group_element`` and the eigvalsh of ``validate_state``: each accepts where
its bound holds and elsewhere runs the one test it replaces, so a point takes
an SVD only where ``_invertible`` fails and an eigvalsh only where
``_positive`` fails; and only they decide through ``config.clears``.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import matrix_text
from sampling import random_direction, random_state
from stategeom import actions, config, states, tangent
from stategeom.actions import group_element, phi
from stategeom.cli import main
from stategeom.errors import NumericalError, NumericallySingular, ValidationError
from stategeom.linalg import _Exponential, as_operator, frobenius, matrix_exp
from stategeom.states import validate_state
from stategeom.tangent import fd_tangent_check, flow, phi_velocity


def _reference(rho, a, t):
    """phi(E(t), rho) as bytes, or the message flow gives its error: the evaluator's
    own and phi's NumericallySingular as they are, any other error of phi, whose
    group_element's included, named with t."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            g = _Exponential(as_operator(a))(float(t))
        except NumericalError as exc:
            return str(exc)
        try:
            return phi(g, rho).matrix.tobytes()
        except NumericallySingular as exc:
            return str(exc)
        except (ValidationError, NumericalError) as exc:
            return (f"exp(t a) is not numerically usable at t = {float(t)!r}: "
                    f"{type(exc).__name__}: {exc}")


def _flow_point(rho, a, t):
    try:
        return flow(rho, a, [t])[0].matrix.tobytes()
    except NumericalError as exc:
        return str(exc)


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records the shape of its first argument."""
    calls = []
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVDs taken, i.e. the points that fell back to group_element."""
    return _counted(monkeypatch, np.linalg, "svd")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the eigvalsh taken: one per point that fell back to validate_state;
    rho's floor comes from its gate record."""
    return _counted(monkeypatch, np.linalg, "eigvalsh")


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


def test_an_exponential_whose_largest_singular_value_overflows_raises_phis_error():
    # exp(a) has finite entries (e^709.9 + 1) / 2 = 1.01e308 and a largest singular
    # value e^709.9 = 2.03e308 that overflows: group_element's own error, which
    # the flow names t in, as it does the other refusals of a point
    rho = validate_state(np.eye(2, dtype=complex) / 2.0)
    a = 709.9 * np.ones((2, 2)) / 2
    message = ("exp(t a) is not numerically usable at t = 1.0: "
               "NumericalError: singular value overflows double precision")
    assert _flow_point(rho, a, 1.0) == _reference(rho, a, 1.0) == message
    with pytest.raises(NumericalError) as caught:
        flow(rho, a, [0.0, 1.0])
    assert str(caught.value) == message


def test_phis_denominator_floor_passes_as_phi_raises_it():
    # exp(-20 I) = e^-20 I is well conditioned, so group_element accepts it, and
    # Tr(g rho g†) = e^-40 lies below DENOMINATOR_FLOOR: phi's NumericallySingular
    rho = validate_state(np.eye(2, dtype=complex) / 2.0)
    a = -20.0 * np.eye(2)
    with pytest.raises(NumericallySingular) as caught:
        flow(rho, a, [0.0, 1.0])
    assert type(caught.value) is NumericallySingular
    assert _flow_point(rho, a, 1.0) == _reference(rho, a, 1.0) == str(caught.value)
    assert "not numerically usable" not in str(caught.value)


class TestInvertibilityCertificate:
    def test_accepts_a_moderate_flow_without_an_svd(self, svd_calls):
        rng = np.random.default_rng(721)
        rho = random_state(rng, 8)
        a = random_direction(rng, 8, 1.0)
        grid = np.linspace(0.0, 1.0, 6)
        points = flow(rho, a, grid)
        assert svd_calls == []
        assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]

    def test_falls_back_past_its_bound_and_keeps_the_bits(self, svd_calls, eigvalsh_calls):
        # exp(t a) is unitary, but e^-(|t| ||a||_F) = e^-60 cannot certify it;
        # the SVD stands in, and positivity is still certified
        rng = np.random.default_rng(722)
        rho = random_state(rng, 4)
        h = random_direction(rng, 4, 1.0)
        a = 60.0 * (h - h.conj().T) / frobenius(h - h.conj().T)
        assert not tangent._invertible(60.0, 4)
        eigvalsh_calls.clear()  # validating rho took one
        point = flow(rho, a, [1.0])[0]
        assert (len(svd_calls), len(eigvalsh_calls)) == (1, 0)  # the SVD alone
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

    def test_falls_back_where_the_congruence_bound_fails(self, svd_calls, eigvalsh_calls):
        # exp(diag(3, -3)) is well conditioned, but it shrinks the support of
        # diag(0, 1) by e^-6 against ||m||_F, so the rounding allowance times
        # ||m||_F^2 / Tr passes PSD_CLAMP_RTOL's bound; the point's eigvalsh
        # stands in, and invertibility is still certified
        rho = validate_state(np.diag([0.0, 1.0]).astype(complex))
        a = np.diag([3.0, -3.0]).astype(complex)
        assert tangent._invertible(math.sqrt(18.0), 2)
        eigvalsh_calls.clear()  # validating rho took one
        point = flow(rho, a, [1.0])[0]
        assert (len(svd_calls), len(eigvalsh_calls)) == (0, 1)  # the point's
        assert point.matrix.tobytes() == _reference(rho, a, 1.0)


    def test_a_miss_tests_hermitian_symmetry_once(self, monkeypatch, eigvalsh_calls):
        # the point passed require_hermitian before _positive, so its fallback
        # runs psd_gate's eigvalsh alone; at tolerance scale 1e-5 every point misses.
        # The point's Hermitian test is phi_state's, in actions
        rng = np.random.default_rng(727)
        rho = random_state(rng, 4)
        a = random_direction(rng, 4, 1.0)
        config.set_tolerance_scale(1e-5)
        grid = np.linspace(-1.0, 2.0, 10)
        eigvalsh_calls.clear()  # validating rho took one
        tests = [_counted(monkeypatch, module, "require_hermitian")
                 for module in (states, actions, tangent)]
        points = flow(rho, a, grid)
        assert len(eigvalsh_calls) == grid.size  # each point's
        assert sum(map(len, tests)) == grid.size
        assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]

    def test_a_miss_copies_no_matrix(self, monkeypatch):
        # a point that psd_gate passes is frozen in place, as a certified one is
        rng = np.random.default_rng(727)
        rho = random_state(rng, 4)
        a = random_direction(rng, 4, 1.0)
        config.set_tolerance_scale(1e-5)
        grid = np.linspace(-1.0, 2.0, 10)
        gates = _counted(monkeypatch, actions, "psd_gate")  # run where the certificate fails
        copies = [_counted(monkeypatch, module, "_frozen") for module in (states, actions, tangent)]
        points = flow(rho, a, grid)
        assert len(gates) == grid.size
        assert sum(map(len, copies)) == 0
        assert [p.matrix.tobytes() for p in points] == [_reference(rho, a, t) for t in grid]


def test_a_value_without_a_record_flows_with_the_same_bits():
    # a value built from its class has no gate record, so the flow reads its floor off
    # its spectrum, and a writable matrix keeps no eigen-record: it is decomposed
    # afresh; a validated rho's floor is its gate record's, so it takes no eigh
    rng = np.random.default_rng(728)
    for n, rank in ((4, 2), (16, 16)):
        rho = random_state(rng, n, rank)
        a = random_direction(rng, n, 1.0)
        bare = states.StateDensity(matrix=np.array(rho.matrix))
        grid = np.linspace(-1.0, 2.0, 5)
        assert [p.matrix.tobytes() for p in flow(bare, a, grid)] == \
            [p.matrix.tobytes() for p in flow(rho, a, grid)]
        assert fd_tangent_check(bare, a) == fd_tangent_check(rho, a)
        assert "_eigenpairs" not in bare.__dict__
        assert "_eigenpairs" not in rho.__dict__


def test_a_tolerance_scale_no_state_can_clear_falls_back_with_the_same_bits(svd_calls):
    # at n = 16 eigvalsh's allowance alone, 5 gamma_64 = 3.6e-14, exceeds the
    # scaled PSD_CLAMP_RTOL of 1e-14, so every point's positivity certificate
    # fails; its invertibility certificate still holds, so no point takes an SVD
    rng = np.random.default_rng(725)
    rho = random_state(rng, 16)
    a = random_direction(rng, 16, 1.0)
    config.set_tolerance_scale(1e-4)
    grid = [0.0, 0.5]
    points = flow(rho, a, grid)
    assert svd_calls == []
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


@pytest.mark.parametrize("scale", [1e-5, 1e-3, 1.0, 10.0])
def test_each_miss_runs_the_one_test_it_stands_in_for(scale, monkeypatch):
    # one congruence per point; an SVD per point where _invertible fails, and an
    # eigvalsh per point where the congruence certificate fails, psd_gate's, which
    # actions._positive runs only then; rho's floor is its gate record's
    decisions = []

    def recording(*args, _decide=tangent._invertible):
        decisions.append(_decide(*args))
        return decisions[-1]

    monkeypatch.setattr(tangent, "_invertible", recording)
    rng = np.random.default_rng(740)
    # exp(t diag(3, -3)) shrinks the support of diag(0, 1): positivity misses at t >= 1
    cases = [(validate_state(np.diag([0.0, 1.0]).astype(complex)),
              np.diag([3.0, -3.0]).astype(complex))]
    for n in (1, 2, 4, 16):
        for rank in sorted({n, 1}):
            rho = random_state(rng, n, rank)
            h = random_direction(rng, n, 1.0)
            for b, norm in ((h, 1.0), (h - h.conj().T, 12.0), (h + h.conj().T, 3.0)):
                cases.append((rho, norm * b / frobenius(b)))
    config.set_tolerance_scale(scale)
    congruences = _counted(monkeypatch, actions, "_normalization")
    gates = _counted(monkeypatch, actions, "psd_gate")
    svds = _counted(monkeypatch, np.linalg, "svd")
    eigvalshs = _counted(monkeypatch, np.linalg, "eigvalsh")
    grid = np.linspace(-1.0, 2.0, 5)
    misses = {"_invertible": 0, "_positive": 0}
    for rho, a in cases:
        for calls in (decisions, gates, congruences, svds, eigvalshs):
            calls.clear()
        assert len(flow(rho, a, grid)) == grid.size
        assert len(congruences) == grid.size
        assert len(svds) == decisions.count(False)
        assert len(eigvalshs) == len(gates)
        misses["_invertible"] += decisions.count(False)
        misses["_positive"] += len(gates)
    assert all(misses.values()), misses  # both fallbacks ran


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_the_invertibility_certificate_is_sound(n):
    # wherever _invertible(x, n) holds, exp(A) passes group_element's SVD test
    # for unitary, Hermitian and general A with ||A||_F = x, and for
    # diag(x, -x) / sqrt(2), whose condition number e^(sqrt(2) x) is the
    # largest a Hermitian A of that norm reaches
    rng = np.random.default_rng(750 + n)
    h = random_direction(rng, n, 1.0)
    kinds = [h - h.conj().T, h + h.conj().T, h]
    if n > 1:
        kinds.append(np.diag([1.0, -1.0] + [0.0] * (n - 2)).astype(complex))
    grid = np.arange(0.0, 16.0, 0.25)
    certified = [x for x in grid if tangent._invertible(x, n)]
    assert 0 < len(certified) < grid.size
    for x in certified:
        for b in kinds:
            group_element(matrix_exp(x * b / frobenius(b)))


@pytest.mark.parametrize("n", [2, 4, 16])
def test_fd_tangent_check_keeps_its_bits_without_an_svd(n, svd_calls):
    rng = np.random.default_rng(730 + n)
    h = config.FD_STEP
    for rank in sorted({n, max(1, n // 2), 1}):
        rho = random_state(rng, n, rank)
        a = random_direction(rng, n, 1.0)
        value = phi_velocity(rho.matrix, a)
        exp = _Exponential(a)
        fd = (phi(exp(h), rho).matrix - phi(exp(-h), rho).matrix) / (2 * h)
        expected = frobenius(fd - value) / (1.0 + frobenius(value))
        calls = len(svd_calls)
        assert fd_tangent_check(rho, a) == expected
        assert len(svd_calls) == calls  # only the reference took SVDs


def test_a_flow_holds_one_evaluator_per_call(monkeypatch, tmp_path):
    # every point of a flow, both points of fd_tangent_check and the CLI's
    # tangent and flow commands share the powers of a held by one evaluator
    rng = np.random.default_rng(760)
    rho = random_state(rng, 4, 2)
    a = random_direction(rng, 4, 1.0)
    files = {"state": (rho.matrix, "state"), "gen": (a, "operator")}
    for name, (m, kind) in files.items():
        (tmp_path / f"{name}.json").write_text(matrix_text(m, kind))
    state, gen = (str(tmp_path / f"{name}.json") for name in files)

    def cli(*args):
        result = CliRunner().invoke(main, [*args, state, gen])
        assert result.exit_code == 0, result.output

    calls = {
        "flow of one point": lambda: flow(rho, a, [0.5]),
        "flow of seven points": lambda: flow(rho, a, np.linspace(-1.0, 2.0, 7)),
        "fd_tangent_check": lambda: fd_tangent_check(rho, a),
        "stategeom tangent": lambda: cli("tangent"),
        "stategeom flow": lambda: cli("flow", "--t0", "0", "--t1", "1", "--steps", "7"),
    }
    built = _counted(monkeypatch, tangent, "_Exponential")
    for name, call in calls.items():
        built.clear()
        call()
        assert built == [(4, 4)], name


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
        ("actions.py", "_positive"),
    }


def test_one_rule_picks_a_power_of_two_exponent():
    # the normalized action's prescale is chosen in actions._normalization alone;
    # the others are the norm's overflow rescue, the exponential's (a / 2^e,
    # the scaled powers of a far-from-normal a and their coefficients) and the
    # classical weights'
    assert _call_sites("frexp", "math") == {
        ("linalg.py", "frobenius"),
        ("linalg.py", "__init__"),
        ("linalg.py", "_powers"),
        ("linalg.py", "__call__"),
        ("actions.py", "_weight_squares"),
        ("actions.py", "_normalization"),
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
