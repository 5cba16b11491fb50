import numpy as np
import pytest

from oracles import dag
from sampling import random_invertible, random_state, random_unitary
from stategeom.actions import phi
from stategeom.errors import TraceError
from stategeom.gns import (
    commutant_dimension,
    gns_construct,
    gns_construct_abelian,
    gns_transform,
    purity_check,
)
from stategeom.states import (
    maximally_mixed,
    validate_positive,
    validate_probability,
    validate_state,
)


def matrix_units(n):
    units = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


class TestDimension:
    def test_pure_state(self):
        for n in (2, 3, 5):
            rho = random_state(np.random.default_rng(n), n, rank=1)
            assert gns_construct(rho).dim == n

    def test_faithful_state(self):
        for n in (2, 3, 4):
            rho = random_state(np.random.default_rng(10 + n), n)
            assert gns_construct(rho).dim == n * n

    def test_formula_against_gram_rank_oracle(self):
        rng = np.random.default_rng(20)
        for n in range(2, 7):
            k = int(rng.integers(1, n + 1))
            rho = random_state(rng, n, rank=k)
            triple = gns_construct(rho)
            # brute-force oracle: rank of the Gram matrix assembled entrywise
            units = matrix_units(n)
            gram = np.array([[np.trace(rho.matrix @ dag(a) @ b) for b in units]
                             for a in units])
            w = np.linalg.eigvalsh((gram + dag(gram)) / 2.0)
            rank = int(np.sum(w > 1e-12 * w[-1]))
            assert triple.dim == rank == n * k


class TestReconstruction:
    def test_pure_diag_random_observables(self):
        rho = validate_state(np.diag([1.0, 0.0]).astype(complex))
        triple = gns_construct(rho)
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert abs(triple.expectation(a) - np.trace(rho.matrix @ a)) <= 1e-9

    def test_full_basis_residual(self):
        rng = np.random.default_rng(22)
        for n in (2, 3, 4):
            rho = random_state(rng, n, rank=int(rng.integers(1, n + 1)))
            triple = gns_construct(rho)
            for e in matrix_units(n):
                assert abs(triple.expectation(e) - np.trace(rho.matrix @ e)) <= 1e-9

    def test_cyclic_vector_is_unit(self):
        rho = random_state(np.random.default_rng(23), 3)
        triple = gns_construct(rho)
        assert np.linalg.norm(triple.cyclic) == pytest.approx(1.0, abs=1e-10)


class TestRepresentation:
    def test_unital(self):
        triple = gns_construct(random_state(np.random.default_rng(24), 3))
        np.testing.assert_allclose(triple.rep(np.eye(3)), np.eye(triple.dim), atol=1e-9)

    def test_star_homomorphism_sampled(self):
        rng = np.random.default_rng(25)
        triple = gns_construct(random_state(rng, 3, rank=2))
        for _ in range(200):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            np.testing.assert_allclose(triple.rep(a @ b), triple.rep(a) @ triple.rep(b),
                                       atol=1e-9)
            np.testing.assert_allclose(triple.rep(dag(a)), dag(triple.rep(a)), atol=1e-9)

    def test_cyclicity(self):
        rng = np.random.default_rng(26)
        rho = random_state(rng, 3, rank=2)
        triple = gns_construct(rho)
        vectors = np.array([triple.rep(e) @ triple.cyclic for e in matrix_units(3)])
        s = np.linalg.svd(vectors, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == triple.dim


class TestTransform:
    def test_identity_keeps_cyclic(self):
        rho = random_state(np.random.default_rng(27), 3)
        triple = gns_construct(rho)
        moved = gns_transform(triple, np.eye(3, dtype=complex), rho)
        np.testing.assert_allclose(moved.cyclic, triple.cyclic, atol=1e-12)

    def test_unitary_keeps_norm(self):
        rng = np.random.default_rng(28)
        rho = random_state(rng, 3)
        triple = gns_construct(rho)
        u = random_unitary(rng, 3)
        moved = gns_transform(triple, u, rho)
        assert np.linalg.norm(moved.cyclic) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(moved.cyclic, triple.rep(u) @ triple.cyclic, atol=1e-9)

    def test_qubit_expectations_match_normalized_action(self):
        rho = maximally_mixed(2)
        g = np.diag([np.sqrt(1.5), np.sqrt(0.5)]).astype(complex)
        moved = gns_transform(gns_construct(rho), g, rho)
        target = phi(g, rho).matrix        # diag(3/4, 1/4)
        for e in matrix_units(2):
            assert abs(moved.expectation(e) - np.trace(target @ e)) <= 1e-9

    def test_mismatched_state_rejected(self):
        rng = np.random.default_rng(33)
        rho = random_state(rng, 3)
        other = random_state(rng, 3)
        triple = gns_construct(rho)
        from stategeom.errors import ValidationError

        with pytest.raises(ValidationError):
            gns_transform(triple, random_invertible(rng, 3), other)

    @pytest.mark.parametrize("n_triple, n_state", [(2, 3), (3, 2)])
    def test_triple_of_another_dimension_is_refused_by_the_operand_gate(self, n_triple,
                                                                        n_state):
        # the vector is moved through vector_of, whose operand gate checks the
        # element's dimension against the triple's before any product is formed
        from stategeom.errors import ValidationError

        rng = np.random.default_rng(36)
        triple = gns_construct(random_state(rng, n_triple))
        rho = random_state(rng, n_state)
        with pytest.raises(ValidationError, match=f"^algebra element has dimension {n_state}, "
                                                  f"expected {n_triple}$"):
            gns_transform(triple, random_invertible(rng, n_state), rho)

    def test_random_transform_matches_phi(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            rho = random_state(rng, 3)
            g = random_invertible(rng, 3)
            moved = gns_transform(gns_construct(rho), g, rho)
            target = phi(g, rho).matrix
            for e in matrix_units(3):
                assert abs(moved.expectation(e) - np.trace(target @ e)) <= 1e-9


class TestTransformExtremeScale:
    def test_power_of_two_rescale_is_bit_exact(self):
        rng = np.random.default_rng(34)
        for n in (1, 2, 4):
            rho = random_state(rng, n)
            triple = gns_construct(rho)
            g = random_invertible(rng, n)
            assert (gns_transform(triple, 2.0**600 * g, rho).cyclic.tobytes()
                    == gns_transform(triple, g, rho).cyclic.tobytes())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_element_transports(self, scale):
        rng = np.random.default_rng(35)
        rho = random_state(rng, 3)
        triple = gns_construct(rho)
        g = random_invertible(rng, 3)
        np.testing.assert_allclose(gns_transform(triple, scale * g, rho).cyclic,
                                   gns_transform(triple, g, rho).cyclic, rtol=1e-12, atol=1e-14)

    def test_floor_applies_to_the_unscaled_expectation(self):
        # ||g||_F >= 1 is prescaled; <psi|pi(g†g)|psi> = 1e-16 is still refused
        from stategeom.errors import NumericallySingular

        rho = validate_state(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(NumericallySingular, match="1.000e-16"):
            gns_transform(gns_construct(rho), np.diag([1.0, 1e-8]).astype(complex), rho)


class TestPurity:
    def test_pure_state_trivial_commutant(self):
        rho = random_state(np.random.default_rng(30), 3, rank=1)
        assert purity_check(rho)
        assert commutant_dimension(gns_construct(rho)) == 1

    def test_tracial_state_reducible(self):
        rho = maximally_mixed(2)
        assert not purity_check(rho)
        assert commutant_dimension(gns_construct(rho)) == 4

    def test_commutant_dimension_is_rank_squared(self):
        rng = np.random.default_rng(31)
        for n, k in ((3, 2), (4, 3)):
            rho = random_state(rng, n, rank=k)
            assert commutant_dimension(gns_construct(rho)) == k * k

    def test_purity_preserved_under_normalized_action(self):
        rng = np.random.default_rng(32)
        pure = random_state(rng, 3, rank=1)
        for _ in range(20):
            g = random_invertible(rng, 3)
            assert purity_check(phi(g, pure))


class TestStateGate:
    def test_a_functional_that_is_not_a_state_is_refused(self):
        xi = validate_positive(np.eye(2, dtype=complex))
        with pytest.raises(TraceError):
            gns_construct(xi)
        with pytest.raises(TraceError):
            purity_check(xi)

    def test_a_matrix_is_validated_as_a_state(self):
        m = np.diag([0.75, 0.25]).astype(complex)
        rho = validate_state(m)
        assert gns_construct(m).cyclic.tobytes() == gns_construct(rho).cyclic.tobytes()
        assert purity_check(m) is purity_check(rho) is False


class TestAbelian:
    def test_dirac_is_one_dimensional(self):
        triple = gns_construct_abelian(validate_probability([0.0, 1.0, 0.0]))
        assert triple.dim == 1
        assert triple.expectation(np.array([3.0, 7.0, 11.0])) == pytest.approx(7.0)

    def test_support_size(self):
        triple = gns_construct_abelian(validate_probability([0.5, 0.0, 0.5]))
        assert triple.dim == 2

    def test_expectation_is_weighted_sum(self):
        p = validate_probability([0.2, 0.3, 0.5])
        triple = gns_construct_abelian(p)
        f = np.array([1.0, -2.0, 4.0])
        assert triple.expectation(f) == pytest.approx(float(f @ p.p))

    def test_a_plain_sequence_is_validated(self):
        plain = gns_construct_abelian([0.5, 0.5])
        validated = gns_construct_abelian(validate_probability([0.5, 0.5]))
        assert (plain.m, plain.dim) == (validated.m, validated.dim)
        assert plain.support.tobytes() == validated.support.tobytes()
        assert plain.cyclic.tobytes() == validated.cyclic.tobytes()


def test_triples_are_immutable():
    rng = np.random.default_rng(8)
    rho = random_state(rng, 3, rank=2)
    triple = gns_construct(rho)
    moved = gns_transform(triple, random_invertible(rng, 3), rho)
    abelian = gns_construct_abelian(validate_probability([0.5, 0.0, 0.5]))
    for array in (triple.cyclic, moved.cyclic, abelian.support, abelian.cyclic):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


class TestPurificationClosedForms:
    def test_dense_commutant_oracle_matches_closed_form(self):
        from oracles import commutant_dimension_dense

        rng = np.random.default_rng(34)
        for n in range(1, 5):
            for k in range(1, n + 1):
                rho = random_state(rng, n, rank=k)
                triple = gns_construct(rho)
                dense = commutant_dimension_dense(triple.rep, n)
                assert dense == commutant_dimension(triple) == k * k
                assert purity_check(rho) == (dense == 1)

    def test_near_threshold_rank_is_one_decision(self):
        from stategeom.states import classify_orbit, spectral_split

        # 1.5e-12 is below the rank cut 1e-12 * (1 + ||rho||_F) ~ 2e-12
        rho = validate_state(np.diag([1.0 - 1.5e-12, 1.5e-12]).astype(complex))
        assert spectral_split(rho).support_dim == 1
        assert classify_orbit(rho).rank == 1
        assert gns_construct(rho).dim == 2
        assert purity_check(rho)

    def test_purity_at_n64(self):
        rng = np.random.default_rng(64)
        assert purity_check(random_state(rng, 64, rank=1))
        assert not purity_check(random_state(rng, 64))

    def test_cross_check_rejects_a_non_orthonormal_support(self, monkeypatch):
        import stategeom.gns as gns_module
        from stategeom.errors import NumericalError
        from stategeom.states import SpectralSplit, spectral_split

        def collapsed(rho):
            # every support column along the top eigenvector: Schmidt rank 1
            split = spectral_split(rho)
            e = np.repeat(split.support_basis[:, :1], split.support_dim, axis=1)
            return SpectralSplit(split.eigenvalues, e, split.kernel_basis)

        monkeypatch.setattr(gns_module, "spectral_split", collapsed)
        rho = random_state(np.random.default_rng(35), 3, rank=2)
        with pytest.raises(NumericalError, match="Schmidt rank 1 vs rank 2"):
            purity_check(rho)

    def test_abelian_support_follows_spectral_rank(self):
        from stategeom.states import default_rank_tol, embed_classical, spectral_split

        below, above = 1.9e-12, 2.1e-12
        p = validate_probability([1.0 - below - above, below, above])
        cut = default_rank_tol(np.diag(p.p))
        assert below < cut < above
        triple = gns_construct_abelian(p)
        assert triple.support.tolist() == [0, 2]
        assert triple.dim == spectral_split(embed_classical(p)).support_dim == 2
        rng = np.random.default_rng(36)
        for m in (1, 3, 6):
            w = rng.dirichlet(np.ones(m))
            w[rng.random(m) < 0.5] = 0.0
            if w.sum() == 0.0:
                w[0] = 1.0
            q = validate_probability(w / w.sum())
            expected = spectral_split(embed_classical(q)).support_dim
            assert gns_construct_abelian(q).dim == expected == np.count_nonzero(q.p)
