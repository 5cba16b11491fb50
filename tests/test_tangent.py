import numpy as np
import pytest

from oracles import central_difference, dag, tangent_singular_values_dense
from sampling import random_direction, random_hermitian, random_state, random_unitary
from stategeom import config
from stategeom.actions import phi
from stategeom.errors import NotHermitian, NumericalError, ValidationError
from stategeom.isotropy import (
    complement_basis_alpha,
    isotropy_basis_phi,
    isotropy_membership_phi,
    isotropy_report,
    orbit_dimension,
)
from stategeom.linalg import _Exponential, frobenius, matrix_exp
from stategeom.states import maximally_mixed, spectral_split, validate_positive, validate_state
from stategeom.tangent import (
    _singular_values,
    covariance,
    fd_tangent_check,
    flow,
    tangent_alpha,
    tangent_map_rank,
    tangent_phi,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class TestTangentAlpha:
    def test_zero_generator(self):
        xi = random_state(np.random.default_rng(1), 3)
        assert frobenius(tangent_alpha(xi, np.zeros((3, 3))).value) == 0.0

    def test_skew_generator_gives_commutator(self):
        rng = np.random.default_rng(2)
        xi = validate_positive(1.3 * random_state(rng, 3).matrix)
        y = random_hermitian(rng, 3)
        vec = tangent_alpha(xi, 1j * y)
        expected = -1j * (xi.matrix @ y - y @ xi.matrix)
        np.testing.assert_allclose(vec.value, expected, atol=1e-12)
        assert abs(np.trace(vec.value)) <= 1e-12

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            xi = validate_positive(0.8 * random_state(rng, 4).matrix)
            a = random_direction(rng, 4)
            fd = central_difference(
                lambda t: matrix_exp(t * a) @ xi.matrix @ dag(matrix_exp(t * a)), 1e-5
            )
            value = tangent_alpha(xi, a).value
            assert frobenius(fd - value) / (1.0 + frobenius(value)) <= 1e-6

    def test_anticommutator_commutator_split(self):
        rng = np.random.default_rng(4)
        xi = random_state(rng, 3)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        a = x + 1j * y
        expected = (xi.matrix @ x + x @ xi.matrix) - 1j * (xi.matrix @ y - y @ xi.matrix)
        np.testing.assert_allclose(tangent_alpha(xi, a).value, expected, atol=1e-12)


class TestTangentVectorIsImmutable:
    @pytest.mark.parametrize("tangent", [tangent_alpha, tangent_phi])
    def test_generator_is_a_frozen_copy(self, tangent):
        rng = np.random.default_rng(9)
        rho = random_state(rng, 3)
        a = random_direction(rng, 3)
        vec = tangent(rho, a)
        a[0, 0] = 99.0
        assert vec.generator[0, 0] != 99.0
        for array in (vec.value, vec.generator):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


class TestTangentPhi:
    def test_identity_is_isotropy_direction(self):
        rho = random_state(np.random.default_rng(5), 3)
        assert frobenius(tangent_phi(rho, np.eye(3)).value) <= 1e-12

    def test_skew_generator_matches_unitary_flow(self):
        rng = np.random.default_rng(6)
        rho = random_state(rng, 3)
        y = random_hermitian(rng, 3)
        vec = tangent_phi(rho, 1j * y)
        np.testing.assert_allclose(vec.value, -1j * (rho.matrix @ y - y @ rho.matrix),
                                   atol=1e-12)

    def test_traceless(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_state(rng, 4)
            vec = tangent_phi(rho, random_direction(rng, 4))
            assert abs(np.trace(vec.value)) <= 1e-10

    def test_real_linearity(self):
        rng = np.random.default_rng(8)
        rho = random_state(rng, 3)
        a, b = random_direction(rng, 3), random_direction(rng, 3)
        lhs = tangent_phi(rho, a + b).value
        rhs = tangent_phi(rho, a).value + tangent_phi(rho, b).value
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCovariance:
    def test_identity_argument_vanishes(self):
        rng = np.random.default_rng(9)
        rho = random_state(rng, 3)
        a = random_hermitian(rng, 3)
        assert abs(covariance(rho, a, np.eye(3))) <= 1e-10

    def test_eigenstate_has_zero_variance(self):
        rho = validate_state(np.diag([1.0, 0.0]).astype(complex))
        assert covariance(rho, PAULI_Z, PAULI_Z) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_variance(self):
        assert covariance(maximally_mixed(2), PAULI_Z, PAULI_Z) == pytest.approx(2.0)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(10)
        rho = random_state(rng, 4)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        assert covariance(rho, a, b) == pytest.approx(covariance(rho, b, a), abs=1e-12)
        for _ in range(10):
            c = random_hermitian(rng, 4)
            assert covariance(rho, c, c) >= -1e-12

    def test_rejects_non_hermitian(self):
        rho = maximally_mixed(2)
        with pytest.raises(NotHermitian):
            covariance(rho, np.array([[0.0, 1.0], [0.0, 0.0]]), PAULI_Z)


class TestFlow:
    def test_zero_generator_constant(self):
        rho = random_state(np.random.default_rng(11), 3)
        for point in flow(rho, np.zeros((3, 3)), [0.0, 0.5, 1.0]):
            np.testing.assert_allclose(point.matrix, rho.matrix, atol=1e-14)

    def test_skew_generator_isospectral(self):
        rng = np.random.default_rng(12)
        rho = random_state(rng, 3)
        y = random_hermitian(rng, 3)
        spectrum = np.linalg.eigvalsh(rho.matrix)
        for point in flow(rho, 1j * y, np.linspace(0.0, 2.0, 5)):
            np.testing.assert_allclose(np.linalg.eigvalsh(point.matrix), spectrum,
                                       atol=1e-10)

    def test_closed_form_two_level(self):
        # generator diag(1,0) on I/2: rho_t = diag(e^{2t}, 1)/(e^{2t}+1)
        grid = np.linspace(0.0, 1.5, 7)
        points = flow(maximally_mixed(2), np.diag([1.0, 0.0]).astype(complex), grid)
        for t, point in zip(grid, points):
            z = np.exp(2.0 * t)
            np.testing.assert_allclose(point.matrix,
                                       np.diag([z, 1.0]) / (z + 1.0), atol=1e-12)

    def test_group_property_and_state_validity(self):
        rng = np.random.default_rng(13)
        rho = random_state(rng, 3)
        a = random_direction(rng, 3, norm=1.2)
        s, t = 0.4, 0.7
        rho_t = flow(rho, a, [t])[0]
        rho_st = flow(rho, a, [s + t])[0]
        assert frobenius(phi(matrix_exp(s * a), rho_t).matrix - rho_st.matrix) <= 1e-8
        for point in flow(rho, a, np.linspace(-2.0, 2.0, 9)):
            assert abs(np.trace(point.matrix).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(point.matrix)[0] >= -1e-10


class TestFlowNumericalLimits:
    def test_ill_conditioned_point_is_numerical_error(self):
        # cond exp(t Z) = e^{2t}: 5e8 at t = 10, 2e17 beyond the 1e12 limit at t = 20
        rho = maximally_mixed(2)
        assert len(flow(rho, PAULI_Z, [0.0, 10.0])) == 2
        with pytest.raises(NumericalError, match=r"t = 20\.0"):
            flow(rho, PAULI_Z, [0.0, 10.0, 20.0, 30.0])

    def test_overflowing_exponential_is_numerical_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"t = 1000\.0"):
                flow(maximally_mixed(2), PAULI_Z, [1000.0])

    def test_valid_points_unchanged(self):
        rng = np.random.default_rng(15)
        rho = random_state(rng, 4)
        a = random_direction(rng, 4, norm=50.0)
        grid = [0.0, 0.01, 0.1]
        for t, point in zip(grid, flow(rho, a, grid)):
            assert point.matrix.tobytes() == phi(_Exponential(a)(t), rho).matrix.tobytes()
        with pytest.raises(NumericalError, match=r"t = 5\.0"):
            flow(rho, a, [0.0, 5.0, 20.0])


class TestFdCheck:
    def test_zero_generator(self):
        rho = random_state(np.random.default_rng(14), 3)
        assert fd_tangent_check(rho, np.zeros((3, 3))) == 0.0

    def test_isotropy_directions(self):
        rng = np.random.default_rng(15)
        rho = random_state(rng, 3)
        for v in isotropy_basis_phi(spectral_split(rho)).vectors:
            assert fd_tangent_check(rho, v) <= 1e-6

    def test_random_generators(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            rho = random_state(rng, 4)
            a = random_direction(rng, 4, norm=float(rng.uniform(0.1, 2.0)))
            assert fd_tangent_check(rho, a) <= 1e-6 * (1.0 + frobenius(a) ** 2)


class TestKernelAndRank:
    def test_kernel_matches_isotropy(self):
        rng = np.random.default_rng(17)
        rho = random_state(rng, 3, rank=2)
        split = spectral_split(rho)
        for v in isotropy_basis_phi(split).vectors:
            # tangent value vanishes exactly on isotropy directions
            assert frobenius(tangent_phi(rho, v).value) <= 1e-8
            _, residual = isotropy_membership_phi(v, rho)
            assert residual <= 1e-8
        for w in complement_basis_alpha(split).vectors:
            assert frobenius(tangent_phi(rho, w).value) > 1e-6

    def test_rank_equals_orbit_dimension(self):
        rng = np.random.default_rng(18)
        for n, k in ((2, 1), (3, 3), (4, 2)):
            rho = random_state(rng, n, rank=k)
            split = spectral_split(rho)
            assert tangent_map_rank(rho) == orbit_dimension(split, "phi")

    def test_faithful_rank_value(self):
        rho = random_state(np.random.default_rng(19), 4)
        assert tangent_map_rank(rho) == 15  # n^2 - 1


def _oracle_rank(s):
    return int(np.sum(s > config.TANGENT_RANK_RTOL * s[0])) if s[0] > 0.0 else 0


class TestClosedFormAgainstDenseMap:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_singular_values_and_rank_every_rank(self, n):
        rng = np.random.default_rng(60 + n)
        for k in range(1, n + 1):
            rho = random_state(rng, n, rank=k)
            dense = tangent_singular_values_dense(rho.matrix)
            closed = np.sort(np.concatenate([_singular_values(rho), np.zeros(n * n)]))
            np.testing.assert_allclose(closed[::-1], dense, rtol=0.0, atol=1e-13)
            if n > 1:  # at n = 1 the map is zero and a relative cut only sees round-off
                assert tangent_map_rank(rho) == _oracle_rank(dense) == n * n - (n - k) ** 2 - 1

    def test_spectrum_near_the_rank_cut(self):
        # pairs with the zero eigenvalue give sqrt(2) p_j: 2x and 0.5x the cut
        tiny = np.array([2e-8, 0.5e-8])
        p = np.concatenate([[1.0 - tiny.sum()], tiny, [0.0]])
        u = random_unitary(np.random.default_rng(66), 4)
        rho = validate_state((u * p) @ dag(u))
        dense = tangent_singular_values_dense(rho.matrix)
        ratios = dense / (config.TANGENT_RANK_RTOL * dense[0])
        assert np.any(np.abs(ratios - 2.0) < 0.01) and np.any(np.abs(ratios - 0.5) < 0.01)
        assert tangent_map_rank(rho) == _oracle_rank(dense)

    @pytest.mark.parametrize("eps, rank", [(1e-8, 8), (1e-9, 4)])
    def test_rank_is_numerical_below_the_cut(self, eps, rank):
        # four singular values of 2e to 6e against a cut of 1e-8 sigma_max = 1.41e-8:
        # all above it at e = 1e-8, all below at e = 1e-9
        rho = validate_state(np.diag([1.0 - 2.0 * eps, eps, eps]).astype(complex))
        assert orbit_dimension(spectral_split(rho), "phi") == 8
        report = isotropy_report(rho)
        assert report.ambient_dim - report.dim_phi == 8
        assert tangent_map_rank(rho) == rank

    def test_rank_at_n64(self):
        rho = random_state(np.random.default_rng(67), 64, rank=16)
        assert tangent_map_rank(rho) == 64 ** 2 - 48 ** 2 - 1  # 1791

    def test_rank_at_n1_is_zero(self):
        # the entry 1.0000000000000002 leaves a round-off singular value 4.4e-16
        rho = random_state(np.random.default_rng(61), 1)
        assert _singular_values(rho).max() > 0.0
        assert tangent_map_rank(rho) == 0 == 1 - (1 - 1) ** 2 - 1
        assert tangent_map_rank(validate_state(np.eye(1, dtype=complex))) == 0


@pytest.mark.parametrize("h", [0.0, np.nan, np.inf])
def test_fd_step_must_be_finite_and_nonzero(h):
    with pytest.raises(ValidationError, match="finite and nonzero"):
        fd_tangent_check(maximally_mixed(2), PAULI_Z, h)


@pytest.mark.parametrize("h", [1e-310, -1e-310, 5e-324])
def test_fd_step_whose_quotient_overflows_is_numerical_error(h):
    # (fwd - bwd) / 2h leaves double precision for a subnormal h; 1.1e-308
    # keeps the quotient finite, but rounding swallows all of it
    import warnings

    rho = maximally_mixed(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"overflows double precision at h = {h}$"):
            fd_tangent_check(rho, PAULI_Z, h)
        with pytest.raises(NumericalError, match="at h = 1.1e-308 lost to rounding: "):
            fd_tangent_check(rho, PAULI_Z, 1.1e-308)


@pytest.mark.parametrize("grid", [[0.0, np.nan], [np.inf], [-np.inf, 0.0]])
def test_flow_grid_must_be_finite(grid):
    with pytest.raises(ValidationError, match="finite array"):
        flow(maximally_mixed(2), PAULI_Z, grid)


def test_overflowing_flow_warns_nothing():
    import warnings

    rng = np.random.default_rng(51)
    a = random_direction(rng, 4, norm=5000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"t = 1000\.0"):
            flow(maximally_mixed(2), PAULI_Z, [1000.0])
        with pytest.raises(NumericalError, match=r"t = 1\.0"):
            flow(maximally_mixed(4), a, [1.0])


@pytest.mark.parametrize("h", [5e-16, -1e-16, 1e-300])
def test_fd_step_lost_to_rounding_is_numerical_error(h):
    # for the maximally mixed qubit along Z the allowance
    # gamma_16 (||fwd||_F + ||bwd||_F) / 2|h| reaches 1 + sqrt(2) near |h| = 5.2e-16
    with pytest.raises(NumericalError, match=f"at h = {h} lost to rounding: "):
        fd_tangent_check(maximally_mixed(2), PAULI_Z, h)
    assert fd_tangent_check(maximally_mixed(2), PAULI_Z, 6e-16) < 0.1
