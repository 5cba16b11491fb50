"""``matrix_exp`` against ``scipy.linalg.expm``, bit for bit, on scipy's compiled
kernel and on its fallback, with the kernel's error codes and the imports the
CLI's exponentiating commands make."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import stategeom
from oracles import matrix_text
from stategeom import linalg
from stategeom.cli import main
from stategeom.errors import NumericalError
from stategeom.linalg import matrix_exp


def _scipy_expm(a):
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(a, dtype=complex))


def _same_bits(a):
    ours, theirs = matrix_exp(a), _scipy_expm(a)
    assert ours.dtype == theirs.dtype == complex and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def _complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _pade_scaling(a):
    import scipy.linalg._matfuncs_expm as kernel

    work = np.empty((5, *np.shape(a)), dtype=complex)
    work[0] = a
    return kernel.pick_pade_structure(work)[1]


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


@pytest.mark.parametrize("name", list(_CASES))
def test_same_bits_as_scipy(name):
    _same_bits(_CASES[name])


def test_triangular_cases_cover_both_scalings():
    for name in ("upper", "lower"):
        assert _pade_scaling(_CASES[f"{name}-s0"]) == 0
        assert _pade_scaling(_CASES[f"{name}-s"]) > 0


@pytest.mark.parametrize("shift", [700.0, 709.0, 709.5, 710.0, 720.0, 1e5, 1e150])
def test_near_overflow_is_non_finite_in_the_same_places(shift):
    # exp overflows above about 709.78: at 710 some entries of e^710 e^b are finite
    b = _complex(np.random.default_rng(0), 4) / 4.0
    a = shift * np.eye(4) + b
    with np.errstate(all="ignore"):
        ours, theirs = matrix_exp(a), _scipy_expm(a)
    for part in (np.real, np.imag):
        finite = np.isfinite(part(ours))
        np.testing.assert_array_equal(finite, np.isfinite(part(theirs)))
        assert part(ours)[finite].tobytes() == part(theirs)[finite].tobytes()
    assert np.all(np.isfinite(ours)) == (shift < 710.0)


@pytest.mark.parametrize("seed", range(4))
def test_same_bits_on_random_inputs(seed):
    # 4 x 300 inputs, n = 2-64 and Gaussian entries over sqrt(n) scaled by 1e-3
    # to 80, both log-uniform, so that none overflows; general, Hermitian,
    # skew-Hermitian (unitary flows) and real
    rng = np.random.default_rng([1200, seed])
    for k in range(300):
        n = int(2.0 ** rng.uniform(1.0, 6.0) + 0.5)
        a = _complex(rng, n) * 10.0 ** rng.uniform(-3.0, np.log10(80.0)) / np.sqrt(n)
        a = (a, a + a.conj().T, a - a.conj().T, a.real)[k % 4]
        ours, theirs = matrix_exp(a), _scipy_expm(a)
        assert ours.tobytes() == theirs.tobytes(), (seed, k, n)


def test_unloadable_kernel_falls_back_with_the_same_bits(monkeypatch):
    monkeypatch.setattr(linalg, "_expm_kernel", lambda: None)
    rng = np.random.default_rng(7)
    for name in ("general", "hermitian", "real-large", "upper-s", "diagonal"):
        _same_bits(_CASES[name])
    for n in (2, 16, 64):
        _same_bits(_complex(rng, n))


def test_kernel_loader_refuses_an_older_scipy(monkeypatch):
    assert linalg._expm_kernel.__wrapped__() is not None
    monkeypatch.setattr(linalg, "_KERNEL_SCIPY", (99, 0, 0))
    assert linalg._expm_kernel.__wrapped__() is None


def test_kernel_loader_without_scipy_returns_none(monkeypatch):
    import importlib.util

    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert linalg._expm_kernel.__wrapped__() is None


def _kernel(pick=(3, 0), info=0):
    return lambda: (lambda work: pick, lambda work, order: info)


@pytest.mark.parametrize("pick, info, exc, code", [
    ((-1, 0), 0, MemoryError, "-1"),
    ((3, 0), -11, MemoryError, "-11"),
    ((3, 0), -12, MemoryError, "-12"),
    ((3, 0), -4, NumericalError, "-4"),
    ((3, 0), 2, NumericalError, "2"),
])
def test_kernel_error_codes(monkeypatch, tmp_path, pick, info, exc, code):
    monkeypatch.setattr(linalg, "_expm_kernel", _kernel(pick, info))
    a = _CASES["general"]
    with pytest.raises(exc, match=rf"\(error code {code}\)$"):
        matrix_exp(a)
    state = tmp_path / "state.json"
    state.write_text(matrix_text(np.diag([0.5, 0.5]), "state"))
    gen = tmp_path / "gen.json"
    gen.write_text(matrix_text(a[:2, :2], "operator"))
    for args in (["flow", str(state), str(gen), "--t0", "0", "--t1", "1", "--steps", "2"],
                 ["tangent", str(state), str(gen)]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("NumericalError: "), result.stderr
        assert lines[0].endswith(f"(error code {code})")


@pytest.mark.parametrize("command", [
    ["flow", "{state}", "{gen}", "--t0", "0", "--t1", "1", "--steps", "5"],
    ["tangent", "{state}", "{gen}"],
])
def test_exponentiating_commands_do_not_import_scipy_linalg(tmp_path, command):
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
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")), file=sys.stderr)
"""
    src = str(Path(stategeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert done.stderr == "['scipy.linalg._matfuncs_expm']\n"
