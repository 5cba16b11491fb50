import numpy as np
import pytest

from oracles import dag, eig_count
from sampling import random_invertible, random_probability, random_state
from stategeom.errors import NotHermitian, NotPSD, TraceError, ValidationError, ZeroFunctional
from stategeom.linalg import frobenius, fro_scale, inertia
from stategeom.states import (
    classify_orbit,
    default_rank_tol,
    embed_classical,
    gibbs_family,
    gibbs_spectrum,
    maximally_mixed,
    spectral_split,
    validate_positive,
    validate_probability,
    validate_state,
)


class TestValidation:
    def test_scaled_identity_is_positive(self):
        xi = validate_positive(np.eye(3, dtype=complex) / 3.0)
        assert xi.n == 3 and xi.trace == pytest.approx(1.0)

    def test_sign_violation(self):
        with pytest.raises(NotPSD):
            validate_positive(np.diag([1.0, -1e-3]).astype(complex))

    def test_gram_matrices_are_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            xi = validate_positive(m @ dag(m))
            assert np.linalg.eigvalsh(xi.matrix)[0] >= -1e-10 * fro_scale(xi.matrix)

    def test_zero_rejected(self):
        with pytest.raises(ZeroFunctional):
            validate_positive(np.zeros((2, 2), dtype=complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            validate_positive(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_state_ok(self):
        validate_state(np.diag([0.5, 0.5]).astype(complex))

    def test_state_trace_violation(self):
        with pytest.raises(TraceError):
            validate_state(np.diag([0.6, 0.6]).astype(complex))

    def test_normalized_congruence_is_state(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_state(rng, 4)
            g = random_invertible(rng, 4)
            m = g @ rho.matrix @ dag(g)
            validate_state(m / np.trace(m).real)

    def test_probability_vector(self):
        validate_probability([0.25, 0.75])
        with pytest.raises(NotPSD):
            validate_probability([1.5, -0.5])
        with pytest.raises(TraceError):
            validate_probability([0.5, 0.4])

    def test_matrices_are_frozen(self):
        rho = validate_state(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestSpectralSplit:
    def test_diagonal_rank_two(self):
        split = spectral_split(validate_positive(np.diag([0.7, 0.3, 0.0]).astype(complex)))
        assert split.support_dim == 2
        np.testing.assert_allclose(split.eigenvalues, [0.7, 0.3])
        # kernel is the third coordinate axis
        assert abs(split.kernel_basis[2, 0]) == pytest.approx(1.0)

    def test_full_rank_empty_kernel(self):
        split = spectral_split(maximally_mixed(4))
        assert split.support_dim == 4 and split.kernel_basis.shape == (4, 0)

    def test_projector_mixture_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = random_state(rng, 5, rank=2)
            split = spectral_split(rho)
            assert split.support_dim == 2
            assert frobenius(split.reconstruct() - rho.matrix) <= 1e-9 * fro_scale(rho.matrix)

    def test_concatenation_unitary(self):
        rng = np.random.default_rng(8)
        for n, k in ((3, 1), (5, 3), (6, 6)):
            split = spectral_split(random_state(rng, n, rank=k))
            w = split.full_basis()
            assert frobenius(dag(w) @ w - np.eye(n)) <= 1e-10

    def test_reassembly_random_psd(self):
        rng = np.random.default_rng(9)
        for n in range(2, 17, 3):
            rho = random_state(rng, n)
            split = spectral_split(rho)
            assert frobenius(split.reconstruct() - rho.matrix) <= 1e-9 * fro_scale(rho.matrix)


class TestOrbitClass:
    def test_pure_in_c4(self):
        rho = random_state(np.random.default_rng(10), 4, rank=1)
        orbit = classify_orbit(rho)
        assert (orbit.rank, orbit.corank, orbit.tag) == (1, 3, "FiniteRank(1)")

    def test_faithful_in_c4(self):
        orbit = classify_orbit(maximally_mixed(4))
        assert orbit.tag == "FiniteRank(4)" and orbit.corank == 0

    def test_rank_matches_inertia(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_state(rng, 5, rank=int(rng.integers(1, 6)))
            tol = default_rank_tol(rho.matrix)
            assert classify_orbit(rho).rank == inertia(rho.matrix, tol)[0]

    def test_congruence_preserves_rank(self):
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            k = int(rng.integers(1, n + 1))
            rho = random_state(rng, n, rank=k)
            g = random_invertible(rng, n)
            moved = g @ rho.matrix @ dag(g)
            tol = default_rank_tol(moved)
            assert eig_count(moved, tol)[0] == k


class TestClassicalEmbedding:
    def test_dirac(self):
        rho = embed_classical([1.0, 0.0])
        np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_uniform(self):
        rho = embed_classical(np.full(4, 0.25))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0)

    def test_spectrum_preserved_as_multiset(self):
        rng = np.random.default_rng(13)
        p = random_probability(rng, 6)
        rho = embed_classical(p)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(rho.matrix)), np.sort(p.p), atol=1e-12
        )


class TestGibbs:
    def test_two_level_hand_value(self):
        # geometric normalization: c(1 + 1/2) = 1 so c = 2/3
        rho = gibbs_family(2, 0.5)
        np.testing.assert_allclose(np.diagonal(rho.matrix).real, [2.0 / 3.0, 1.0 / 3.0])

    def test_single_point(self):
        np.testing.assert_array_equal(gibbs_family(1, 0.3).matrix, [[1.0 + 0.0j]])

    def test_ratio_exact_for_half(self):
        s = gibbs_spectrum(4, 0.5)
        assert np.all(s[1:] / s[:-1] == 0.5)

    def test_full_rank(self):
        assert classify_orbit(gibbs_family(8, 0.9)).rank == 8

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            gibbs_family(0, 0.5)
        with pytest.raises(ValidationError):
            gibbs_family(3, 1.0)


def test_huge_scales_validate_without_overflow():
    # squaring entries above ~1e154 overflows a plain Frobenius norm, which
    # made every floor scaled by it infinite and refused valid functionals
    import warnings

    from stategeom.actions import alpha
    from stategeom.linalg import matrix_sqrt_psd

    d = np.diag([0.75, 0.25]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_positive(1e160 * d).n == 2
        split = spectral_split(1e160 * d)
        np.testing.assert_allclose(split.eigenvalues, [7.5e159, 2.5e159], rtol=1e-15)
        image = alpha(1e100 * np.eye(2), validate_positive(d))
        np.testing.assert_allclose(image.matrix, 1e200 * d, rtol=1e-15)
        assert frobenius(1e160 * d) == pytest.approx(1e160 * np.sqrt(0.625), rel=1e-15)
        np.testing.assert_allclose(matrix_sqrt_psd(1e160 * d), 1e80 * np.sqrt(d), rtol=1e-15)


class TestUnitSumRounding:
    """Below --tol ~ 2e-6 the unit-sum bounds fall under one ulp of 1; each test
    also allows the rounding of the sum it takes, gamma_(n+1)."""

    def test_trace_normalised_state_passes_at_a_fine_tolerance(self):
        from stategeom import config

        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        m = a @ dag(a)
        m = (m + dag(m)) / 2.0
        m = m / np.trace(m).real
        config.set_tolerance_scale(2e-6)
        assert validate_state(m).n == 64  # |trace - 1| is 2.2e-16, one ulp

    def test_dirichlet_vectors_pass_at_a_fine_tolerance(self):
        from stategeom import config
        from stategeom.states import validate_probability

        rng = np.random.default_rng(0)
        draws = [rng.dirichlet(np.ones(50)) for _ in range(200)]
        config.set_tolerance_scale(1e-4)
        assert all(validate_probability(p).m == 50 for p in draws)

    def test_a_trace_off_by_1e_12_is_still_refused(self):
        from stategeom import config

        m = np.diag(np.full(64, 1.0 / 64)).astype(complex)
        m[0, 0] += 1e-12
        config.set_tolerance_scale(1e-6)
        with pytest.raises(TraceError, match=r"^\|trace - 1\| 1\.000e-12 exceeds "):
            validate_state(m)
