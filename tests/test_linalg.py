import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dag, eig_count, expm_series
from sampling import random_hermitian, random_invertible, random_state, random_unitary
from stategeom import config
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
    require_hermitian,
    signature,
)
from stategeom.states import default_rank_tol, min_eigenvalue, validate_positive


def _near_the_clamp(rng, n, rank_rtol=None):
    """A Hermitian matrix whose smallest eigenvalue lies within 2e-6 relative of the
    PSD clamp bound -PSD_CLAMP_RTOL (1 + ||m||_F), where eigh and eigvalsh may give
    different verdicts; with ``rank_rtol``, a second eigenvalue lies that close,
    relatively, to the rank cut RANK_RTOL (1 + ||m||_F)."""
    w = rng.uniform(0.1, 1.0, n)
    w[:2 if rank_rtol else 1] = 0.0
    scale = 1.0 + np.linalg.norm(w)
    w[0] = -config.PSD_CLAMP_RTOL * scale * (1.0 + rng.uniform(-2e-6, 2e-6))
    if rank_rtol:
        w[1] = config.RANK_RTOL * scale * (1.0 + rng.uniform(-rank_rtol, rank_rtol))
    u = random_unitary(rng, n)
    return (u * w) @ dag(u)


def _refused(call, m):
    try:
        call(m)
    except NotPSD:
        return True
    return False


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

    def test_the_clamp_verdict_is_validate_positives(self):
        # near the bound eigh's smallest eigenvalue may fall on the other side of it
        # from eigvalsh's, which validate_positive reads
        rng = np.random.default_rng(7)
        disagree = 0
        for _ in range(5000):
            m = _near_the_clamp(rng, int(rng.integers(2, 9)))
            disagree += _refused(matrix_sqrt_psd, m) != _refused(validate_positive, m)
        assert disagree == 0


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

    def test_negatives_are_counted_as_validate_positive_refuses(self):
        # same_orbit_alpha's signature: a second eigenvalue at the rank cut makes it
        # recount on eigh, whose smallest eigenvalue may cross the clamp bound
        rng = np.random.default_rng(11)
        disagree = 0
        for _ in range(6000):
            m, _, scale = require_hermitian(_near_the_clamp(rng, int(rng.integers(3, 9)), 4e-4))
            n_minus = signature(m, config.PSD_CLAMP_RTOL * scale, default_rank_tol(m), scale)[2]
            disagree += (n_minus > 0) != _refused(validate_positive, m)
        assert disagree == 0

    def test_an_eigenvalue_is_counted_once_at_a_zero_cut(self):
        # at zero_tol = 0 eigvalsh may put an exact zero eigenvalue below the cut
        # and the recount's eigh above it, in about one draw of eight
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.1, 1.0, n)
            w[0] = 0.0
            u = random_unitary(rng, n)
            counts = inertia((u * w) @ dag(u), 0.0)
            assert min(counts) >= 0 and sum(counts) == n, counts


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

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_every_eigh_column_has_a_nonzero_pivot(self, n):
        # _fix_phases runs on eigh's unitary columns only: a unit column has an
        # entry of modulus at least 1/sqrt(n), so no pivot is zero, on all-equal,
        # paired and generic spectra alike
        rng = np.random.default_rng(240 + n)
        q = random_unitary(rng, n)
        spectra = [np.ones(n), np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n],
                   rng.standard_normal(n)]
        for w in spectra:
            v = np.linalg.eigh((q * w) @ q.conj().T)[1]
            assert np.abs(v).max(axis=0).min() >= (1.0 - 1e-12) / np.sqrt(n)


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
