import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dag
from sampling import (
    random_hermitian,
    random_invertible,
    random_probability,
    random_state,
    random_unitary,
)
from stategeom.actions import (
    GroupElement,
    alpha,
    classical_phi,
    denominator,
    group_element,
    mix_states,
    nonconvexity_witness,
    phi,
    unitary_phi,
)
from stategeom.errors import (
    NotUnitary,
    NumericallySingular,
    Singular,
    ValidationError,
    ZeroWeight,
)
from stategeom.linalg import frobenius, matrix_sqrt_psd
from stategeom.orbits import convex_recombine, convex_recombine_classical
from stategeom.states import (
    PositiveFunctional,
    maximally_mixed,
    spectral_split,
    validate_positive,
    validate_probability,
    validate_state,
)


def test_alpha_gives_a_bare_and_a_validated_functional_the_same_bits():
    rng = np.random.default_rng(36)
    for _ in range(200):
        xi = 2.0 * random_state(rng, 4).matrix
        g = random_invertible(rng, 4)
        bare = alpha(g, xi)
        assert np.asarray(alpha(g, validate_positive(xi))).tobytes() == bare.tobytes()
        assert np.array_equal(bare, bare.conj().T)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit(p0):
    return validate_state(np.diag([p0, 1.0 - p0]).astype(complex))


class TestGroupElement:
    def test_certificate(self):
        ge = group_element(np.diag([2.0, 0.5]).astype(complex))
        assert ge.sigma_min == pytest.approx(0.5)
        assert ge.sigma_max == pytest.approx(2.0)
        assert ge.inverse_norm_bound == pytest.approx(2.0)

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            group_element(np.diag([1.0, 0.0]).astype(complex))

    def test_idempotent_coercion(self):
        ge = group_element(np.eye(2, dtype=complex))
        assert group_element(ge) is ge


class TestAlpha:
    def test_identity_law(self):
        rho = random_state(np.random.default_rng(1), 3)
        out = alpha(np.eye(3, dtype=complex), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_unitary_similarity_spectrum(self):
        u = random_unitary(np.random.default_rng(2), 2)
        out = alpha(u, np.diag([2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [1.0, 2.0], atol=1e-10)

    def test_composition_direct_multiplication(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g1 = random_invertible(rng, 4)
            g2 = random_invertible(rng, 4)
            xi = random_hermitian(rng, 4)
            lhs = alpha(g1, alpha(g2, xi))
            rhs = alpha(g1 @ g2, xi)
            assert frobenius(lhs - rhs) <= 1e-10

    def test_kind_preserved(self):
        rng = np.random.default_rng(4)
        rho = random_state(rng, 3)
        out = alpha(random_invertible(rng, 3), rho)
        assert isinstance(out, PositiveFunctional)
        assert spectral_split(out).support_dim == 3

    def test_hermitian_matrix_in_matrix_out(self):
        out = alpha(np.eye(2, dtype=complex) * 2.0, np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([4.0, -4.0]))


class TestDenominator:
    def test_identity(self):
        assert denominator(np.eye(2, dtype=complex), qubit(0.5)) == pytest.approx(1.0)

    def test_scalar(self):
        assert denominator(2.0 * np.eye(2, dtype=complex), qubit(0.5)) == pytest.approx(4.0)

    def test_cyclic_trace_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_state(rng, 4)
            g = random_invertible(rng, 4)
            s = matrix_sqrt_psd(rho.matrix)
            expected = float(np.sum(np.linalg.eigvalsh(s @ dag(g) @ g @ s)))
            assert denominator(g, rho) == pytest.approx(expected, rel=1e-12)

    def test_floor_guard(self):
        tiny = GroupElement(matrix=1e-8 * np.eye(2, dtype=complex),
                            sigma_min=1e-8, sigma_max=1e-8)
        with pytest.raises(NumericallySingular):
            denominator(tiny, qubit(0.5))


class TestPhi:
    def test_identity_law(self):
        rho = random_state(np.random.default_rng(6), 3)
        np.testing.assert_allclose(phi(np.eye(3, dtype=complex), rho).matrix,
                                   rho.matrix, atol=1e-14)

    def test_qubit_hand_value(self):
        g = np.diag([np.sqrt(1.5), np.sqrt(0.5)]).astype(complex)
        out = phi(g, qubit(0.5))
        np.testing.assert_allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for lam in (2.0, -0.5, 1.3 + 0.4j):
            g = random_invertible(rng, 3)
            rho = random_state(rng, 3)
            diff = frobenius(phi(lam * g, rho).matrix - phi(g, rho).matrix)
            assert diff <= 1e-12

    def test_composition_law(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g1 = random_invertible(rng, 5)
            g2 = random_invertible(rng, 5)
            rho = random_state(rng, 5)
            lhs = phi(g1, phi(g2, rho)).matrix
            rhs = phi(g1 @ g2, rho).matrix
            assert frobenius(lhs - rhs) <= 1e-10

    def test_rank_and_faithfulness_preserved(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 4):
            rho = random_state(rng, 4, rank=k)
            g = random_invertible(rng, 4)
            out = phi(g, rho)
            assert spectral_split(out).support_dim == k
            # backwards too, so faithful <=> faithful
            back = phi(np.linalg.inv(g), out)
            assert spectral_split(back).support_dim == k

    def test_floor_guard(self):
        with pytest.raises(NumericallySingular):
            phi(group_element(1e-8 * np.eye(2, dtype=complex)), qubit(0.5))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_action_laws_property(self, seed, n):
        rng = np.random.default_rng(seed)
        g1, g2 = random_invertible(rng, n), random_invertible(rng, n)
        rho = random_state(rng, n)
        assert frobenius(phi(g1, phi(g2, rho)).matrix - phi(g1 @ g2, rho).matrix) <= 1e-10
        assert frobenius(alpha(g1, alpha(g2, rho)).matrix
                         - alpha(g1 @ g2, rho).matrix) <= 1e-10


class TestPhiExtremeScale:
    def test_power_of_two_rescale_is_bit_exact(self):
        rng = np.random.default_rng(60)
        for n in (1, 2, 4, 8):
            g = random_invertible(rng, n)
            rho = random_state(rng, n)
            assert phi(2.0**600 * g, rho).matrix.tobytes() == phi(g, rho).matrix.tobytes()

    def test_huge_multiple_of_identity_fixes_rho(self):
        rng = np.random.default_rng(61)
        for n in (1, 3, 6):
            rho = random_state(rng, n)
            out = phi(1e200 * np.eye(n, dtype=complex), rho)
            np.testing.assert_allclose(out.matrix, rho.matrix, rtol=0.0, atol=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_norm_beyond_double_range_acts(self, scale):
        # ||g||_F = 2 scale overflows while every entry and sigma_max are finite
        rho = random_state(np.random.default_rng(65), 4)
        out = phi(scale * np.eye(4, dtype=complex), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, rtol=0.0, atol=1e-15)

    def test_floor_applies_to_unscaled_trace(self):
        # ||g||_F >= 1 is prescaled; Tr(g rho g†) = 1e-16 is still refused
        g = np.diag([1.0, 1e-8]).astype(complex)
        with pytest.raises(NumericallySingular, match="1.000e-16"):
            phi(group_element(g), qubit(0.0))


class TestUnitaryPhi:
    def test_identity(self):
        rho = qubit(0.75)
        np.testing.assert_allclose(unitary_phi(np.eye(2, dtype=complex), rho).matrix,
                                   rho.matrix, atol=1e-14)

    def test_pauli_x_permutes(self):
        out = unitary_phi(PAULI_X, qubit(0.75))
        np.testing.assert_allclose(out.matrix, np.diag([0.25, 0.75]), atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            rho = random_state(rng, 4)
            u = random_unitary(rng, 4)
            out = unitary_phi(u, rho)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
            )

    def test_agrees_with_phi(self):
        rng = np.random.default_rng(11)
        rho = random_state(rng, 3)
        u = random_unitary(rng, 3)
        assert frobenius(unitary_phi(u, rho).matrix - phi(u, rho).matrix) <= 1e-12

    def test_affine_on_mixtures(self):
        rng = np.random.default_rng(12)
        u = random_unitary(rng, 3)
        r1, r2 = random_state(rng, 3), random_state(rng, 3)
        assert nonconvexity_witness(u, r1, r2, 0.3) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            unitary_phi(np.diag([2.0, 1.0]).astype(complex), qubit(0.5))


class TestClassicalPhi:
    def test_unit_weights_fix_everything(self):
        p = random_probability(np.random.default_rng(13), 5)
        np.testing.assert_allclose(classical_phi(np.ones(5), p).p, p.p, atol=1e-15)

    def test_hand_value(self):
        q = classical_phi(np.array([np.sqrt(3.0), 1.0]), validate_probability([0.5, 0.5]))
        np.testing.assert_allclose(q.p, [0.75, 0.25])

    def test_dirac_fixed_point_exact(self):
        rng = np.random.default_rng(14)
        dirac = validate_probability([1.0, 0.0, 0.0])
        for _ in range(20):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w += np.sign(w.real) + 1j  # keep away from zero
            np.testing.assert_array_equal(classical_phi(w, dirac).p, dirac.p)

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            classical_phi(np.array([1.0, 0.0]), validate_probability([0.5, 0.5]))

    def test_wrong_length_is_plain_validation_error(self):
        with pytest.raises(ValidationError) as info:
            classical_phi(np.ones(3), validate_probability([0.5, 0.5]))
        assert type(info.value) is ValidationError

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_non_finite_weights_are_refused_by_name(self, bad):
        p = validate_probability([0.5, 0.5])
        w = np.array([bad, 1.0])
        message = "^weight vector contains non-finite entries$"
        with pytest.raises(ValidationError, match=message):
            classical_phi(w, p)
        with pytest.raises(ValidationError, match=message):
            convex_recombine_classical(p, np.ones(2), w, 0.5)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
    def test_output_is_normalized(self, seed, m):
        rng = np.random.default_rng(seed)
        p = random_probability(rng, m)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w[np.abs(w) < 0.1] = 1.0
        q = classical_phi(w, p)
        assert q.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(q.p >= 0.0)


class TestClassicalPhiExtremeScale:
    def test_power_of_two_rescale_is_bit_exact(self):
        rng = np.random.default_rng(62)
        for m in (1, 3, 8):
            p = random_probability(rng, m)
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            assert classical_phi(2.0**600 * w, p).p.tobytes() == classical_phi(w, p).p.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_weights_act(self, scale):
        rng = np.random.default_rng(63)
        p = random_probability(rng, 4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(classical_phi(scale * w, p).p, classical_phi(w, p).p,
                                   rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_tiny_weights_act_exactly(self):
        # the squares of 1e-161 weights are subnormal unless w is scaled up first;
        # the exact image is [1, 1.21] / 2.21
        q = classical_phi(1e-161 * np.array([1.0, 1.1]), validate_probability([0.5, 0.5])).p
        np.testing.assert_allclose(q, np.array([1.0, 1.21]) / 2.21, rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_weights_whose_squares_underflow_act(self):
        # 2^-600 squared is below the smallest subnormal, yet no weight is zero
        rng = np.random.default_rng(64)
        for m in (1, 3, 8):
            p = random_probability(rng, m)
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            assert classical_phi(2.0**-600 * w, p).p.tobytes() == classical_phi(w, p).p.tobytes()


class TestNonconvexity:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(15)
        g = random_invertible(rng, 2)
        r1, r2 = random_state(rng, 2), random_state(rng, 2)
        assert nonconvexity_witness(g, r1, r2, 0.0) == 0.0
        assert nonconvexity_witness(g, r1, r2, 1.0) == 0.0

    def test_strictly_positive_hand_case(self):
        g = np.diag([2.0, 1.0]).astype(complex)
        r1 = validate_state(np.diag([1.0, 0.0]).astype(complex))
        r2 = validate_state(np.diag([0.0, 1.0]).astype(complex))
        # phi(g, mix) = diag(0.8, 0.2) vs diag(0.5, 0.5): norm 0.3*sqrt(2)
        witness = nonconvexity_witness(g, r1, r2, 0.5)
        assert witness == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-12)

    def test_validates_only_the_mixture(self, monkeypatch):
        # the three images are phi's matrices unvalidated: one eigvalsh, the mixture's
        rng = np.random.default_rng(16)
        g = random_invertible(rng, 3)
        r1, r2 = random_state(rng, 3), random_state(rng, 3)
        lam = 0.3
        expected = frobenius(phi(g, mix_states(r1, r2, lam)).matrix
                             - (lam * phi(g, r1).matrix + (1.0 - lam) * phi(g, r2).matrix))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert nonconvexity_witness(g, r1, r2, lam) == expected
        assert len(calls) == 1

    def test_mix_validates(self):
        r1, r2 = qubit(1.0), qubit(0.0)
        mixed = mix_states(r1, r2, 0.25)
        np.testing.assert_allclose(np.diagonal(mixed.matrix).real, [0.25, 0.75])


MIXING = {
    "mix_states": lambda lam: mix_states(qubit(1.0), qubit(0.0), lam),
    "convex_recombine": lambda lam: convex_recombine(
        maximally_mixed(2), np.eye(2, dtype=complex), np.diag([1.0, 2.0]), lam),
    "convex_recombine_classical": lambda lam: convex_recombine_classical(
        validate_probability([0.5, 0.5]), [1.0, 1.0], [1.0, 2.0], lam),
}


@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan], ids=["negative", "above-one", "nan"])
@pytest.mark.parametrize("call", MIXING.values(), ids=MIXING.keys())
def test_mixing_weight_outside_the_unit_interval_is_refused(call, lam):
    with pytest.raises(ValidationError) as caught:
        call(lam)
    assert str(caught.value) == f"mixing weight must lie in [0, 1], got {lam}"


class TestCongruenceOverflow:
    BIG = 1e200 * np.eye(2, dtype=complex)

    def test_denominator_overflow_is_numerical_error(self):
        import warnings

        from stategeom.errors import NumericalError

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows") as info:
                denominator(self.BIG, qubit(0.75))
        assert not isinstance(info.value, NumericallySingular)

    def test_alpha_overflow_is_numerical_error(self):
        import warnings

        from stategeom.errors import NumericalError

        rho = qubit(0.75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (rho, PositiveFunctional(matrix=2.0 * rho.matrix), np.diag([1.0, -1.0])):
                with pytest.raises(NumericalError, match="overflows"):
                    alpha(self.BIG, xi)

    def test_large_finite_scale_still_acts(self):
        rho = qubit(0.75)
        assert denominator(1e100 * np.eye(2), rho) == pytest.approx(1e200)
        np.testing.assert_allclose(alpha(1e100 * np.eye(2), np.diag([1.0, -1.0])),
                                   np.diag([1e200, -1e200]))
