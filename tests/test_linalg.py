import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stategeom
from oracles import dag, eig_count, expm_series, matrix_text
from sampling import random_hermitian, random_invertible, random_state, random_unitary
from stategeom.errors import NotHermitian, NotPSD, Singular
from stategeom.linalg import (
    _fix_phases,
    eig_allowance,
    frobenius,
    fro_scale,
    hermitian_eig,
    inertia,
    matrix_exp,
    matrix_sqrt_psd,
    polar,
)
from stategeom.states import min_eigenvalue, validate_positive


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        dec = hermitian_eig(np.diag([1.0, 3.0]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_hermitian(rng, 6)
            dec = hermitian_eig(h)
            # direct multiplication oracle
            recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dag(dec.eigenvectors)
            assert frobenius(recon - h) <= 1e-10 * fro_scale(h)

    def test_unitarity_and_ordering(self):
        rng = np.random.default_rng(12)
        for n in range(2, 17):
            h = random_hermitian(rng, n)
            dec = hermitian_eig(h)
            assert frobenius(dag(dec.eigenvectors) @ dec.eigenvectors - np.eye(n)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 0.0)

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(13)
        for n in (2, 7, 16):
            h = random_hermitian(rng, n)
            a = hermitian_eig(h.copy())
            b = hermitian_eig(h.copy())
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_phase_convention(self):
        rng = np.random.default_rng(14)
        dec = hermitian_eig(random_hermitian(rng, 5))
        for j in range(5):
            col = dec.eigenvectors[:, j]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(2, dtype=complex)), np.eye(2))

    def test_diagonal(self):
        s = matrix_sqrt_psd(np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_squaring_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            p = m @ dag(m)
            s = matrix_sqrt_psd(p)
            assert frobenius(s @ s - p) <= 1e-9 * fro_scale(p)
            assert frobenius(s - dag(s)) <= 1e-12 * fro_scale(p)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            matrix_sqrt_psd(np.diag([1.0, -1e-3]).astype(complex))

    def test_clamps_tiny_negative(self):
        s = matrix_sqrt_psd(np.diag([1.0, -1e-12]).astype(complex))
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-10)


class TestExp:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        e = matrix_exp(np.diag([np.log(2.0), 0.0]))
        np.testing.assert_allclose(e, np.diag([2.0, 1.0]), atol=1e-12)

    def test_series_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a /= np.linalg.norm(a, 2)  # ||a|| = 1
            assert frobenius(matrix_exp(a) - expm_series(a)) <= 1e-8

    def test_group_law(self):
        rng = np.random.default_rng(32)
        for n in (2, 8, 16):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a /= np.linalg.norm(a, 2) / 1.5
            err = frobenius(matrix_exp(a) @ matrix_exp(-a) - np.eye(n))
            assert err <= 1e-8 * np.exp(2.0 * np.linalg.norm(a, 2))


class TestPolar:
    def test_unitary_input(self):
        u = random_unitary(np.random.default_rng(41), 4)
        uu, pp = polar(u)
        np.testing.assert_allclose(uu, u, atol=1e-10)
        np.testing.assert_allclose(pp, np.eye(4), atol=1e-10)

    def test_psd_input(self):
        uu, pp = polar(np.diag([2.0, 3.0]).astype(complex))
        np.testing.assert_allclose(uu, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pp, np.diag([2.0, 3.0]), atol=1e-12)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            g = random_invertible(rng, 5)
            u, p = polar(g)
            assert frobenius(u @ p - g) <= 1e-9 * fro_scale(g)
            assert frobenius(dag(u) @ u - np.eye(5)) <= 1e-10
            # P agrees with the PSD square root of g†g
            assert frobenius(p - matrix_sqrt_psd(dag(g) @ g)) <= 1e-9 * fro_scale(g)

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            polar(np.diag([1.0, 0.0]).astype(complex))


class TestInertia:
    def test_identity(self):
        assert inertia(np.eye(4, dtype=complex), 1e-12) == (4, 0, 0)

    def test_mixed_signature(self):
        assert inertia(np.diag([1.0, 0.0, -2.0]).astype(complex), 1e-12) == (1, 1, 1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_congruence_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, n)
        g = random_invertible(rng, n)
        tol = 1e-10 * fro_scale(h)
        # Sylvester: congruence preserves the signature (brute-force eigencount)
        assert eig_count(g @ h @ dag(g), tol * np.linalg.norm(g, 2) ** 2) == eig_count(h, tol)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            inertia(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1e-12)


def _fix_phases_loop(v):
    """Per-column reference for the vectorised rephasing."""
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        mag = abs(pivot)
        if mag > 0.0:
            v[:, j] = col * (np.conjugate(pivot) / mag)
    return v


class TestFixPhases:
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_bit_equal_to_column_loop(self, n):
        rng = np.random.default_rng(100 + n)
        inputs = [random_unitary(rng, n),
                  np.linalg.eigh(random_hermitian(rng, n))[1],
                  1e-150 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))]
        tie = random_unitary(rng, n)
        tie[:, 0] = 0.0
        tie[-1, 0] = 0.6j
        tie[0, 0] = -0.6  # same magnitude: the lowest row is the pivot
        inputs.append(tie)
        for v in inputs:
            v = np.ascontiguousarray(v)
            assert _fix_phases(v).tobytes() == _fix_phases_loop(v).tobytes()
        assert _fix_phases(tie)[0, 0] == 0.6

    def test_zero_column_left_alone(self):
        v = np.array([[0.0, 1j], [0.0, 0.5]], dtype=complex)
        out = _fix_phases(v)
        assert out.tobytes() == _fix_phases_loop(v).tobytes()
        np.testing.assert_array_equal(out[:, 0], 0.0)


def test_scipy_loaded_only_by_matrix_exp(tmp_path):
    """Importing the package and running a non-flow command leaves scipy
    unimported; matrix_exp on a diagonal or a general input leaves
    scipy.linalg unimported, and only a triangular input loads it."""
    state = tmp_path / "state.json"
    state.write_text(matrix_text(np.diag([0.5, 0.5]), "state"))
    script = f"""
import sys
import numpy as np
import stategeom
import stategeom.cli
from click.testing import CliRunner
result = CliRunner().invoke(stategeom.cli.main, ["validate", {str(state)!r}])
assert result.exit_code == 0, result.output
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
e = stategeom.linalg.matrix_exp(np.diag([np.log(2.0), 0.0]))
assert np.allclose(e, np.diag([2.0, 1.0]), atol=1e-12), e
e = stategeom.linalg.matrix_exp(np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]]))
assert np.allclose(e, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12), e
assert "scipy.linalg" not in sys.modules
e = stategeom.linalg.matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
assert np.allclose(e, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12), e
assert "scipy.linalg" in sys.modules
"""
    src = str(Path(stategeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_the_eigenvalue_allowance_covers_eigh_and_eigvalsh(n):
    # the record's eigh and a fresh eigvalsh of the same (m + m†)/2 agree on the
    # smallest eigenvalue within eig_allowance(n) ||m||_F
    rng = np.random.default_rng(760 + n)
    for rank in sorted({1, max(1, n // 2), n}):
        rho = random_state(rng, n, rank)
        for scale in (1e-8, 1.0, 1e8):
            value = validate_positive(scale * rho.matrix)
            m = value.matrix
            w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
            assert abs(min_eigenvalue(value) - w) <= eig_allowance(n) * frobenius(m), (rank, scale)
