"""``matrix_exp`` and a flow's exponential against ``scipy.linalg.expm``: bit for
bit on diagonal input, which both exponentiate entrywise, and elsewhere within a
small multiple of the forward bound that ``tangent._invertible`` assumes; and
the package's independence of scipy.

The bound is gamma_8n (2 + (1 + sqrt(n)) x) e^x with x = |t| ||a||_F: expm's
backward error carried through the exponential, and the rounding of its Pade
evaluation and of its squarings.  scipy (a test dependency only) is the oracle;
both sides err, so the test allows ``MULTIPLE`` times the bound for their
difference.
"""

import ast
import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stategeom
from oracles import matrix_text
from sampling import random_state
from stategeom.errors import NumericalError
from stategeom.linalg import _Exponential, as_operator, gamma, matrix_exp

MULTIPLE = 4.0


def _scipy_expm(a):
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(a, dtype=complex))


def _bound(n, x):
    return gamma(8 * n) * (2.0 + (1.0 + math.sqrt(n)) * x) * math.exp(x)


def _ratio(ours, a, t=1.0):
    """||ours - expm(t a)||_F over the bound at x = |t| ||a||_F."""
    a = np.asarray(a, dtype=complex)
    theirs = _scipy_expm(t * a)
    assert ours.dtype == complex and ours.shape == theirs.shape
    return np.linalg.norm(ours - theirs) / _bound(a.shape[0], abs(t) * np.linalg.norm(a))


def _complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _cases():
    rng = np.random.default_rng(2009)
    tri = np.triu(_complex(rng, 5))
    yield "general", _complex(rng, 6)
    yield "hermitian", (lambda h: h + h.conj().T)(_complex(rng, 4))
    yield "zero", np.zeros((3, 3))
    yield "diagonal", np.diag([0.5 - 2j, -30.0, 4j, 0.0])
    yield "diagonal-negative-zeros", np.array([[1.0, -0.0], [complex(0.0, -0.0), 2.0]])
    yield "1x1", [[0.3 + 2j]]
    yield "1x1-zero", [[0.0]]
    yield "1x1-large", [[-700.0 + 1j]]
    yield "upper-s0", 1e-3 * tri
    yield "upper-s", 10.0 * tri
    yield "lower-s0", 1e-3 * tri.T
    yield "lower-s", 10.0 * tri.T
    yield "bidiagonal", np.diag([1.0, 2.0, 3.0]) + np.diag([5.0, 6.0], 1)
    yield "real", rng.standard_normal((5, 5))
    yield "real-large", 40.0 * rng.standard_normal((7, 7))
    yield "tridiagonal", np.diag(_complex(rng, 5)[0]) + np.diag([1.0, 2j, 3.0, 4j], 1) \
        + np.diag([1j, 2.0, 3j, 4.0], -1)
    yield "one-zero-corner", (lambda m: m - np.diag([m[4, 0]], -4))(_complex(rng, 5))


_CASES = dict(_cases())
_DIAGONAL = ["zero", "diagonal", "diagonal-negative-zeros", "1x1", "1x1-zero", "1x1-large"]


@pytest.mark.parametrize("name", _DIAGONAL)
def test_same_bits_as_scipy(name):
    ours, theirs = matrix_exp(_CASES[name]), _scipy_expm(_CASES[name])
    assert ours.dtype == theirs.dtype == complex and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", [name for name in _CASES if name not in _DIAGONAL])
def test_within_bound_of_scipy(name):
    assert _ratio(matrix_exp(_CASES[name]), _CASES[name]) <= MULTIPLE


def test_triangular_cases_cover_both_scalings():
    for name in ("upper", "lower"):
        for suffix, scaled in (("s0", False), ("s", True)):
            e = _Exponential(np.asarray(_CASES[f"{name}-{suffix}"], dtype=complex))
            assert (e._order(e.e)[1] > 0) == scaled


def test_highly_non_normal_input_is_accurate():
    a = np.array([[1.0, 1e4], [0.0, 1.0]])
    theirs = _scipy_expm(a)
    assert np.linalg.norm(matrix_exp(a) - theirs) <= 4 * 2.0 ** -53 * np.linalg.norm(theirs)


@pytest.mark.parametrize("k", [30, 40, 60])
def test_far_from_normal_input_keeps_its_spectrum(k):
    # b = a / 2^e has powers that shrink by 10^-k each, so they are held scaled;
    # the error grows as 2^s u with the scaling s that the off-diagonal forces
    a = np.array([[1.0, 10.0 ** k], [0.0, 1.0]])
    assert np.linalg.norm(matrix_exp(a) - np.e * a) <= 1e-8 * np.linalg.norm(np.e * a)
    assert np.linalg.norm(matrix_exp(a.T) - np.e * a.T) <= 1e-8 * np.linalg.norm(np.e * a)


def test_nilpotent_input_is_exact_at_any_scale():
    n = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]])
    e = _Exponential(n.astype(complex))
    for t in (1e-300, 1.0, 1e50):
        np.testing.assert_allclose(e(t), np.eye(3) + t * n + (t * t / 2) * (n @ n), rtol=1e-15)


@pytest.mark.parametrize("shift", [700.0, 709.0, 709.5, 710.0, 720.0, 1e5, 1e150])
def test_near_overflow_is_non_finite_in_the_same_places(shift):
    # exp overflows above about 709.78: at 710 some entries of e^710 e^b are finite;
    # the finite ones agree to the bound without its e^x, relative to the largest.
    # A flow's evaluator returns them, and matrix_exp refuses where any is not finite
    b = _complex(np.random.default_rng(0), 4) / 4.0
    a = shift * np.eye(4) + b
    with np.errstate(all="ignore"):
        ours, theirs = _Exponential(a)(1.0), _scipy_expm(a)
    if shift < 710.0:
        assert matrix_exp(a).tobytes() == ours.tobytes()
    else:
        with pytest.raises(NumericalError, match="matrix exponential overflows"):
            matrix_exp(a)
    tol = MULTIPLE * gamma(32) * (2.0 + 3.0 * np.linalg.norm(a))
    for part in (np.real, np.imag):
        finite = np.isfinite(part(ours))
        np.testing.assert_array_equal(finite, np.isfinite(part(theirs)))
        if finite.any():
            diff = np.abs(part(ours)[finite] - part(theirs)[finite]).max()
            assert diff <= tol * np.abs(part(theirs)[finite]).max()
    assert np.all(np.isfinite(ours)) == (shift < 710.0)


# Al-Mohy and Higham (2009), Code Fragment 2.1: triangular input, whose diagonal and
# first off-diagonal are recomputed after each squaring.  Without that recomputation
# the first two lose their diagonal to (1, 1) and the third overflows.
TRIANGULAR = {
    "equal-diagonal": [[1.0, 1e150], [0.0, 1.0]],
    "distinct-diagonal": [[1.0, 1e150], [0.0, 2.0]],
    "corner-5e299": [[0.5, 1e150, 3.0], [0.0, 0.25, 1e150], [0.0, 0.0, -0.5]],
}


def _scaled_norm(x):
    """||x||_F, taken on x / max|x| so that it does not overflow."""
    top = float(np.max(np.abs(x)))
    return top * float(np.linalg.norm(x / top)) if top else 0.0


def _triangular_bound(a, reference):
    """The forward bound's multiple for triangular a, relative to the reference: each
    of the s squarings rounds by gamma_8n, as ``_bound`` counts them by x."""
    e = _Exponential(np.asarray(a, dtype=complex))
    n, s = e._stack.shape[1], e._order(e.e)[1]
    return MULTIPLE * gamma(8 * n) * (2.0 + (1.0 + math.sqrt(n)) * s) * _scaled_norm(reference)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", TRIANGULAR)
def test_triangular_input_keeps_its_diagonal_and_scipys_values(name):
    a = np.array(TRIANGULAR[name], dtype=complex)
    ours = matrix_exp(a)
    with np.errstate(all="ignore"):  # scipy's own squarings overflow on the third
        theirs = _scipy_expm(a)
    diagonal = np.exp(np.diagonal(a))
    assert np.all(np.abs(np.diagonal(ours) - diagonal) <= 4 * 2.0 ** -53 * np.abs(diagonal))
    assert _scaled_norm(ours - theirs) <= _triangular_bound(a, theirs)


def _row_triangular(d, v):
    """diag(d) plus v_j at (0, j), j >= 1, and its exponential in closed form: e^d_j
    on the diagonal and, at (0, j), v_j times the divided difference
    (e^d_j - e^d_0) / (d_j - d_0), the rest 0.  A path of the exponential's series
    takes at most one entry of row 0, so it is finite for |v_j| up to 1e300."""
    n = d.shape[0]
    a, exact = np.diag(d), np.diag(np.exp(d))
    for j in range(1, n):
        z = (d[j] - d[0]) / 2.0
        a[0, j] = v[j]
        exact[0, j] = v[j] * cmath.exp((d[0] + d[j]) / 2.0) * (cmath.sinh(z) / z if z else 1.0)
    return a, exact


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(1, 17))
def test_triangular_input_with_huge_entries_is_accurate(n):
    # upper and lower, from matrix_exp and at t = -1/2 from a flow's evaluator; the
    # closed form is the reference, as scipy's expm overflows or errs by percents on
    # part of these
    rng = np.random.default_rng([1902, n])
    for _ in range(2):
        d = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        v = 10.0 ** rng.uniform(0.0, 300.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        upper, exact = _row_triangular(d, v)
        half = _row_triangular(-0.5 * d, -0.5 * v)[1]
        for a, reference, t in ((upper, exact, 1.0), (upper.T.copy(), exact.T, 1.0),
                                (upper, half, -0.5), (upper.T.copy(), half.T, -0.5)):
            if t == 1.0:
                ours = matrix_exp(a)
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # as a flow runs it
                    ours = _Exponential(a)(t)
            diagonal = np.diagonal(reference)
            assert np.all(np.abs(np.diagonal(ours) - diagonal) <= 4 * 2.0 ** -53 * np.abs(diagonal))
            assert _scaled_norm(ours - reference) <= _triangular_bound(a, reference)


def _forms(rng, n):
    """Seeded generators of one form each: non-normal, normal with complex spectrum,
    triangular, diagonal, Hermitian, skew-Hermitian and real."""
    g = _complex(rng, n)
    q = np.linalg.qr(_complex(rng, n))[0]
    return {"non-normal": g, "normal": (q * rng.standard_normal(n) + 1j * rng.standard_normal(n))
            @ q.conj().T, "triangular": np.triu(g), "diagonal": np.diag(np.diag(g)),
            "hermitian": g + g.conj().T, "skew-hermitian": g - g.conj().T, "real": g.real}


@pytest.mark.parametrize("seed", range(4))
def test_within_bound_on_random_inputs(seed):
    # n = 1-64 and ||a||_F = 1e-3 to 30, both log-uniform, in every form, from
    # matrix_exp (t = 1) and from the evaluator a flow holds, built as
    # tangent._flow_of builds it, at t in [-1, 1]
    rng = np.random.default_rng([1200, seed])
    worst = 0.0
    for _ in range(40):
        n = int(2.0 ** rng.uniform(0.0, 6.0) + 0.5)
        rho = random_state(rng, n)
        for a in _forms(rng, n).values():
            norm = np.linalg.norm(a)
            a = a * (10.0 ** rng.uniform(-3.0, np.log10(30.0)) / norm) if norm else a
            worst = max(worst, _ratio(matrix_exp(a), a))
            exp = _Exponential(as_operator(a, "generator", rho.n))
            for t in (0.0, rng.uniform(-1.0, 1.0), 1e-3, -1.0):
                worst = max(worst, _ratio(exp(t), a, t))
    assert worst <= MULTIPLE


def test_no_package_module_imports_scipy():
    package = Path(stategeom.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name == "scipy" or name.startswith("scipy.") for name in names), path


@pytest.mark.parametrize("command", [
    ["flow", "{state}", "{gen}", "--t0", "0", "--t1", "1", "--steps", "5"],
    ["tangent", "{state}", "{gen}"],
])
def test_exponentiating_commands_do_not_import_scipy_linalg(tmp_path, command):
    """flow and tangent load no scipy module, scipy.linalg included."""
    state = tmp_path / "state.json"
    state.write_text(matrix_text(np.diag([0.75, 0.25]), "state"))
    gen = tmp_path / "gen.json"
    gen.write_text(matrix_text(np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]), "operator"))
    argv = [arg.format(state=state, gen=gen) for arg in command]
    script = f"""
import runpy, sys
sys.argv = ["stategeom", *{argv!r}]
try:
    runpy.run_module("stategeom.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert not exit.code, exit.code
print(sorted(m for m in sys.modules if m.startswith("scipy")), file=sys.stderr)
"""
    src = str(Path(stategeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert done.stderr == "[]\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [np.diag([800.0, 0.0]), [[800.0, 1.0], [0.0, 0.0]],
                               [[1e308, 0.0], [1e308, 0.0]]],
                         ids=["diagonal", "triangular", "column-sum-overflows"])
def test_an_exponential_that_overflows_is_refused_by_name(a):
    # one contract on every path: no warning and no inf, but the error in_range raises
    with pytest.raises(NumericalError, match="^matrix exponential overflows double precision$"):
        matrix_exp(a)


@pytest.mark.parametrize("seed", range(12))
def test_overflowing_column_sums_are_rescaled_exactly(seed):
    # entries near 1.5e308 overflow a column sum of |a|, so the 1-norm is taken of a
    # scaled copy; that is exact, so a point has the bits of the evaluator of a / 2^k
    # at t 2^k, whose 1-norm is finite
    rng = np.random.default_rng([287, seed])
    n = int(rng.integers(2, 7))
    a = 1.5e308 * rng.uniform(0.9, 1.0, (n, n)) * np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    with np.errstate(over="ignore"):
        assert np.isinf(np.abs(a).sum(axis=0).max())
    k = int(rng.integers(3, 12))
    t = math.ldexp(float(rng.uniform(0.5, 20.0)) / n, -1024)
    ours = _Exponential(a)(t)
    assert np.all(np.isfinite(ours))
    assert ours.tobytes() == _Exponential(a / 2.0 ** k)(t * 2.0 ** k).tobytes()


def _singular_solve(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def test_a_singular_pade_denominator_is_a_numerical_error_naming_t(monkeypatch, tmp_path):
    from click.testing import CliRunner

    from stategeom.cli import main
    from stategeom.states import validate_state
    from stategeom.tangent import flow

    rho = validate_state(np.diag([0.75, 0.25]))
    gen = np.array([[0.2, 0.1 + 0.3j], [0.4 - 0.1j, -0.2]])
    monkeypatch.setattr(np.linalg, "solve", _singular_solve)
    # t = 0 needs no solve; the Pade solve of the next point fails
    with pytest.raises(NumericalError, match=r"^exp\(t a\) is not numerically usable at t = 0\.5$"):
        flow(rho, gen, [0.0, 0.5])
    state, generator = tmp_path / "state.json", tmp_path / "gen.json"
    state.write_text(matrix_text(rho.matrix, "state"))
    generator.write_text(matrix_text(gen, "operator"))
    result = CliRunner().invoke(main, ["flow", str(state), str(generator), "--t0", "0",
                                       "--t1", "1", "--steps", "3"])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr == "NumericalError: exp(t a) is not numerically usable at t = 0.5\n"
