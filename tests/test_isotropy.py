import numpy as np
import pytest

from oracles import (
    constraint_matrix_alpha,
    constraint_matrix_phi,
    dag,
    hermitian_basis_explicit,
    hermitian_components_reference,
    null_space_dimension,
    real_gram_explicit,
    residual_bound_reference,
    sweep_residual_reference,
)
from sampling import random_direction, random_state
from stategeom.actions import phi
from stategeom.isotropy import (
    complement_basis_alpha,
    hermitian_basis,
    hermitian_components,
    isotropy_basis_alpha,
    isotropy_basis_phi,
    isotropy_dimension_alpha,
    isotropy_membership_alpha,
    isotropy_membership_phi,
    isotropy_report,
    orbit_dimension,
)
from stategeom.linalg import frobenius, fro_scale, matrix_exp
from stategeom.states import (
    maximally_mixed,
    spectral_split,
    validate_positive,
    validate_state,
)
from stategeom.tangent import alpha_velocity, phi_velocity


class TestConstraintPairing:
    """The vectorized pairing agrees with the defining traces."""

    def test_alpha_components_match_explicit_traces(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            xi = random_state(rng, n).matrix * 1.7
            a = random_direction(rng, n)
            explicit = np.array([
                np.trace(xi @ (dag(a) @ b + b @ a)).real for b in hermitian_basis(n)
            ])
            np.testing.assert_allclose(
                hermitian_components(alpha_velocity(xi, a)), explicit, atol=1e-12
            )

    def test_phi_components_match_explicit_traces(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            rho = random_state(rng, n).matrix
            a = random_direction(rng, n)
            explicit = np.array([
                (np.trace(rho @ (dag(a) @ b + b @ a))
                 - np.trace(rho @ b) * np.trace(rho @ (dag(a) + a))).real
                for b in hermitian_basis(n)
            ])
            np.testing.assert_allclose(
                hermitian_components(phi_velocity(rho, a)), explicit, atol=1e-12
            )

    def test_fast_oracle_matches_explicit_loops(self):
        from oracles import (
            constraint_matrix_alpha_fast,
            constraint_matrix_phi_fast,
        )

        rng = np.random.default_rng(99)
        for n in (2, 3, 4):
            rho = random_state(rng, n, rank=n - 1 if n > 1 else 1).matrix
            np.testing.assert_allclose(constraint_matrix_alpha_fast(rho),
                                       constraint_matrix_alpha(rho), atol=1e-12)
            np.testing.assert_allclose(constraint_matrix_phi_fast(rho),
                                       constraint_matrix_phi(rho), atol=1e-12)


class TestMembership:
    def test_imaginary_identity_is_member(self):
        rng = np.random.default_rng(3)
        xi = random_state(rng, 3)
        member, residual = isotropy_membership_alpha(1j * np.eye(3), xi)
        assert member and residual <= 1e-14

    def test_identity_never_member(self):
        rng = np.random.default_rng(4)
        for n in (2, 4):
            xi = random_state(rng, n)
            member, residual = isotropy_membership_alpha(np.eye(n), xi)
            assert not member and residual > 0.1

    def test_tracial_membership_is_skew_adjointness(self):
        rng = np.random.default_rng(5)
        tau = maximally_mixed(3)
        y = random_direction(rng, 3)
        skew = (y - dag(y)) / 2.0
        sym = (y + dag(y)) / 2.0
        assert isotropy_membership_alpha(skew, tau)[0]
        assert not isotropy_membership_alpha(sym, tau)[0]

    def test_identity_member_for_phi(self):
        rho = random_state(np.random.default_rng(6), 3)
        member, residual = isotropy_membership_phi(np.eye(3), rho)
        assert member and residual <= 1e-12

    def test_alpha_members_are_phi_members(self):
        rng = np.random.default_rng(7)
        rho = random_state(rng, 3, rank=2)
        for v in isotropy_basis_alpha(spectral_split(rho)).vectors:
            assert isotropy_membership_phi(v, rho)[0]

    def test_diagonal_traceless_direction_not_phi_member(self):
        rho = maximally_mixed(2)
        member, _ = isotropy_membership_phi(np.diag([1.0, -1.0]).astype(complex), rho)
        assert not member


def test_hermitian_basis_rejects_nonpositive_dimension():
    from stategeom.errors import ValidationError

    for n in (0, -2):
        with pytest.raises(ValidationError, match=f"dimension must be >= 1, got {n}"):
            hermitian_basis(n)


HERMITIAN_BASIS_PIN = "81d988e43ef78ed3148826bf09b4a180fd32a0c0ba03d42a7a39d4677df6e95d"


def test_hermitian_basis_is_the_explicit_one_value_for_value():
    # in order, with the bytes pinned: the path runs no BLAS, so the pin holds
    # on every OpenBLAS kernel
    import hashlib

    digest = hashlib.sha256()
    for n in range(1, 13):
        basis = hermitian_basis(n)
        expected = hermitian_basis_explicit(n)
        assert len(basis) == len(expected) == n * n
        for got, want in zip(basis, expected):
            np.testing.assert_array_equal(got, want)
        digest.update(np.array(basis).tobytes())
    assert digest.hexdigest() == HERMITIAN_BASIS_PIN


def test_every_basis_is_one_stack():
    # every returned matrix, the normalized action's identity included, is a
    # view of the one array its builder allocated
    split = spectral_split(random_state(np.random.default_rng(94), 4, rank=3))
    for vectors in (hermitian_basis(4), isotropy_basis_alpha(split).vectors,
                    complement_basis_alpha(split).vectors, isotropy_basis_phi(split).vectors):
        stack = vectors[0].base
        assert stack is not None and stack.shape == (len(vectors), 4, 4)
        assert all(v.base is stack for v in vectors)


def test_basis_build_peaks_at_about_one_stack():
    # the stack plus one slice of _outer_stack: 1.09 times the stack at a
    # full-rank n = 32
    import tracemalloc

    split = spectral_split(random_state(np.random.default_rng(95), 32))
    for build in (isotropy_basis_alpha, complement_basis_alpha, isotropy_basis_phi):
        tracemalloc.start()
        try:
            basis = build(split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * basis.dim_real * 32 * 32 * 16, build.__name__


class TestBasisDimensions:
    def test_dimension_formula_against_null_space(self):
        rng = np.random.default_rng(8)
        for n in range(1, 6):
            for k in range(1, n + 1):
                rho = random_state(rng, n, rank=k)
                split = spectral_split(rho)
                dim = isotropy_basis_alpha(split).dim_real
                assert dim == isotropy_dimension_alpha(k, n)
                # brute-force real null space of the constraint map
                assert null_space_dimension(constraint_matrix_alpha(rho.matrix)) == dim

    def test_full_rank_dimension(self):
        split = spectral_split(random_state(np.random.default_rng(9), 4))
        assert isotropy_basis_alpha(split).dim_real == 16

    def test_rank_one_qubit(self):
        split = spectral_split(random_state(np.random.default_rng(10), 2, rank=1))
        assert isotropy_basis_alpha(split).dim_real == 5      # 1 + 2 + 2
        assert complement_basis_alpha(split).dim_real == 3    # 8 - 5
        assert isotropy_basis_phi(split).dim_real == 6
        assert orbit_dimension(split, "phi") == 2             # real dim of CP^1

    def test_tracial_state_isotropy_is_skew(self):
        split = spectral_split(maximally_mixed(3))
        basis = isotropy_basis_alpha(split)
        assert basis.dim_real == 9
        for v in basis.vectors:
            assert frobenius(v + dag(v)) <= 1e-12

    def test_phi_dimension_exceeds_by_one(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            rho = random_state(rng, n, rank=int(rng.integers(1, n + 1)))
            split = spectral_split(rho)
            assert (isotropy_basis_phi(split).dim_real
                    == isotropy_basis_alpha(split).dim_real + 1)
            assert (null_space_dimension(constraint_matrix_phi(rho.matrix))
                    == null_space_dimension(constraint_matrix_alpha(rho.matrix)) + 1)

    def test_membership_of_constructed_bases(self):
        rng = np.random.default_rng(12)
        for n, k in ((3, 3), (4, 2), (5, 1)):
            rho = random_state(rng, n, rank=k)
            split = spectral_split(rho)
            for v in isotropy_basis_alpha(split).vectors:
                ok, residual = isotropy_membership_alpha(v, rho)
                assert ok, f"residual {residual}"
            for v in isotropy_basis_phi(split).vectors:
                ok, residual = isotropy_membership_phi(v, rho)
                assert ok, f"residual {residual}"

    def test_degenerate_spectrum_block(self):
        # two equal eigenvalues: the support pairing degenerates to skew entries
        xi = validate_positive(np.diag([0.4, 0.4, 0.2]).astype(complex))
        split = spectral_split(xi)
        basis = isotropy_basis_alpha(split)
        assert basis.dim_real == 9
        for v in basis.vectors:
            ok, residual = isotropy_membership_alpha(v, xi)
            assert ok, f"residual {residual}"


class TestDirectSum:
    def test_joint_gram_full_rank(self):
        rng = np.random.default_rng(13)
        for n, k in ((2, 1), (3, 2), (4, 4)):
            split = spectral_split(random_state(rng, n, rank=k))
            union = list(isotropy_basis_alpha(split).vectors)
            union += list(complement_basis_alpha(split).vectors)
            assert len(union) == 2 * n * n
            eigs = np.linalg.eigvalsh(real_gram_explicit(union))
            assert eigs[0] > 1e-8 * eigs[-1]

    def test_complement_of_full_rank_is_hermitian(self):
        split = spectral_split(random_state(np.random.default_rng(14), 3))
        basis = complement_basis_alpha(split)
        assert basis.dim_real == 9
        for v in basis.vectors:
            assert frobenius(v - dag(v)) <= 1e-12


class TestLieStructure:
    def test_bracket_closure_sampled(self):
        rng = np.random.default_rng(15)
        rho = random_state(rng, 3, rank=2)
        split = spectral_split(rho)
        vectors = isotropy_basis_alpha(split).vectors
        idx = rng.integers(0, len(vectors), size=(8, 2))
        for i, j in idx:
            bracket = vectors[i] @ vectors[j] - vectors[j] @ vectors[i]
            if frobenius(bracket) < 1e-12:
                continue
            ok, residual = isotropy_membership_alpha(bracket, rho)
            assert ok, f"residual {residual}"

    def test_isotropy_exponentiates_to_stabilizer(self):
        rng = np.random.default_rng(16)
        rho = random_state(rng, 3)
        split = spectral_split(rho)
        for v in isotropy_basis_phi(split).vectors:
            g = matrix_exp(v)  # ||v|| = 1 after basis normalization
            assert frobenius(phi(g, rho).matrix - rho.matrix) <= 1e-6


class TestReportAndDims:
    def test_orbit_dimensions(self):
        rng = np.random.default_rng(17)
        faithful = spectral_split(random_state(rng, 3))
        assert orbit_dimension(faithful, "alpha") == 9       # n^2
        assert orbit_dimension(faithful, "phi") == 8         # n^2 - 1

    def test_report_identities(self):
        rng = np.random.default_rng(18)
        xi = validate_positive(2.5 * random_state(rng, 3, rank=2).matrix)
        report = isotropy_report(xi)
        assert report.ambient_dim == 18
        assert report.dim_phi == report.dim_alpha + 1
        assert report.dim_alpha + report.dim_complement == report.ambient_dim
        assert report.max_residual <= 1e-9 * fro_scale(xi.matrix) * 2.0


def _unit(n, j, l):
    e = np.zeros((n, n), dtype=complex)
    e[j, l] = 1.0
    return e


def _blocks(split):
    """Both sides of ``_sections`` expanded into per-block fields j1, l1, c1, j2,
    l2, c2 and the count dim: (isotropy, complement)."""
    from types import SimpleNamespace

    import stategeom.isotropy as iso

    def expand(sections):
        columns = zip(*(np.broadcast_arrays(*section) for section in sections))
        fields = [np.concatenate([c.ravel() for c in col]) for col in columns]
        return SimpleNamespace(**dict(zip(("j1", "l1", "c1", "j2", "l2", "c2"), fields)),
                               dim=fields[2].size)

    return tuple(expand(s) for s in iso._sections(split))


def _reference_blocks(split):
    """The per-block loops of the dense construction: (isotropy, complement)."""
    n, k, p = split.ambient_dim, split.support_dim, split.eigenvalues
    iso = [1j * _unit(n, j, j) for j in range(k)]
    comp = [_unit(n, j, j) for j in range(k)]
    for l in range(k):
        for m in range(l + 1, k):
            ratio = p[l] / p[m]
            iso.append(_unit(n, m, l) - ratio * _unit(n, l, m))
            iso.append(1j * _unit(n, m, l) + 1j * ratio * _unit(n, l, m))
            comp.append(_unit(n, l, m) + _unit(n, m, l))
            comp.append(1j * _unit(n, l, m) - 1j * _unit(n, m, l))
    for j in range(k):
        for l in range(k, n):
            iso += [_unit(n, j, l), 1j * _unit(n, j, l)]
    for j in range(k, n):
        for l in range(k, n):
            iso += [_unit(n, j, l), 1j * _unit(n, j, l)]
    for j in range(k, n):
        for l in range(k):
            comp += [_unit(n, j, l), 1j * _unit(n, j, l)]
    return iso, comp


def _reference_vectors(split, blocks):
    w = split.full_basis()
    rotated = [w @ b @ dag(w) for b in blocks]
    return [v / frobenius(v) for v in rotated]


def _certificate_splits():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        for k in range(1, n + 1):
            yield spectral_split(random_state(rng, n, rank=k))
    # support eigenvalues spanning a ratio of ~1e10, the smallest a few times
    # above the rank cut 1e-12 * (1 + ||rho||_F), plus a two-dimensional kernel
    u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    p = np.array([0.6, 0.4 - 5e-11, 5e-11, 0.0, 0.0])
    split = spectral_split(validate_positive((u * p) @ dag(u)))
    assert split.support_dim == 3
    yield split


# sha256 of the bases that test_vectors_and_floors_pinned builds, as they were built
# from per-block arrays flattened out of the sections
VECTORS_PIN = "80cd9560326e112034ffd70c0b864140877b2725242f9d39f3816c8e2c6ca7c2"


class TestBlockCertificate:
    """The closed-form blocks against the dense per-block construction."""

    def test_vectors_match_per_block_reference(self):
        for split in _certificate_splits():
            iso, comp = _reference_blocks(split)
            n = split.ambient_dim
            expected_phi = _reference_vectors(split, iso) + [np.eye(n) / np.sqrt(n)]
            for basis, expected in (
                (isotropy_basis_alpha(split), _reference_vectors(split, iso)),
                (complement_basis_alpha(split), _reference_vectors(split, comp)),
                (isotropy_basis_phi(split), expected_phi),
            ):
                assert basis.dim_real == len(expected)
                np.testing.assert_allclose(np.array(basis.vectors), np.array(expected),
                                           rtol=0, atol=1e-13)

    def test_certified_floor_below_dense_gram(self):
        for split in _certificate_splits():
            for build in (isotropy_basis_alpha, complement_basis_alpha, isotropy_basis_phi):
                basis = build(split)
                smallest = np.linalg.eigvalsh(real_gram_explicit(basis.vectors))[0]
                # forming and diagonalising the dense Gram matrix rounds by O(dim eps)
                assert 0.0 < basis.gram_floor <= smallest + 1e-13

    def test_block_gram_is_diagonal_with_the_coefficient_norms(self):
        # the invariant _certify relies on, on the dense unrotated blocks
        rng = np.random.default_rng(23)
        u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        p = np.array([0.35, 0.35, 0.3, 0.0, 0.0])
        repeated = spectral_split(validate_positive((u * p) @ dag(u)))
        for split in [*_certificate_splits(), repeated]:
            n = split.ambient_dim
            for b in _blocks(split):
                dense = np.zeros((b.dim, n, n), dtype=complex)
                for i in range(b.dim):
                    dense[i, b.j1[i], b.l1[i]] += b.c1[i]
                    dense[i, b.j2[i], b.l2[i]] += b.c2[i]
                gram = real_gram_explicit(dense)
                assert np.all(gram[~np.eye(b.dim, dtype=bool)] == 0.0)
                # the dense product may fuse c1^2 + c2^2 into one rounding
                norms = np.abs(b.c1) ** 2 + np.abs(b.c2) ** 2
                diagonal = np.diag(gram)
                np.testing.assert_allclose([diagonal.min(), diagonal.max()],
                                           [norms.min(), norms.max()], rtol=2.0**-51, atol=0)

    def test_gram_floor_pinned(self):
        # bit for bit at a full-rank split, a rank-deficient one and the
        # ill-conditioned one with a two-dimensional kernel
        splits = list(_certificate_splits())
        pins = {
            9: ("0x1.fffffffffffeep-1", "0x1.ffffffffffff0p-1", "0x1.fffffffffffdep-1"),
            18: ("0x1.fffffffffffeep-1", "0x1.ffffffffffff0p-1", "0x1.b0cb174df99a1p-2"),
            21: ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.785d93b6f6dc1p-2"),
        }
        for index, floors in pins.items():
            for build, floor in zip(
                    (isotropy_basis_alpha, complement_basis_alpha, isotropy_basis_phi), floors):
                assert build(splits[index]).gram_floor == float.fromhex(floor)

    def test_vectors_and_floors_pinned(self):
        # bit for bit: the vector bytes and gram_floor of all three builders, each
        # given the state and its split, at n = 1-6 and every rank
        import hashlib

        rng = np.random.default_rng(4001)
        digest = hashlib.sha256()
        for n in range(1, 7):
            for k in range(1, n + 1):
                rho = random_state(rng, n, rank=k)
                for given in (rho, spectral_split(rho)):
                    for build in (isotropy_basis_alpha, complement_basis_alpha,
                                  isotropy_basis_phi):
                        basis = build(given)
                        digest.update(np.array(basis.vectors).tobytes())
                        digest.update(basis.gram_floor.hex().encode())
        assert digest.hexdigest() == VECTORS_PIN

    def test_dependent_adapted_basis_rejected(self):
        from stategeom.errors import ValidationError
        from stategeom.states import SpectralSplit

        split = spectral_split(random_state(np.random.default_rng(22), 3, rank=2))
        # the kernel direction repeats the first support vector: w is singular
        broken = SpectralSplit(eigenvalues=split.eigenvalues,
                               support_basis=split.support_basis,
                               kernel_basis=split.support_basis[:, :1])
        for build in (isotropy_basis_alpha, complement_basis_alpha, isotropy_basis_phi):
            with pytest.raises(ValidationError, match="not linearly independent"):
                build(broken)


def test_report_at_n32():
    rng = np.random.default_rng(32)
    for k in (8, 32):
        rho = random_state(rng, 32, rank=k)
        report = isotropy_report(rho)
        assert report.ambient_dim == 2 * 32 * 32
        assert report.support_dim == k
        assert report.dim_alpha == isotropy_dimension_alpha(k, 32)
        assert report.dim_phi == report.dim_alpha + 1
        assert report.dim_alpha + report.dim_complement == report.ambient_dim
        # the membership bound of a unit-norm generator
        assert report.max_residual <= 1e-9 * fro_scale(rho.matrix) * 2.0


def test_report_residual_pinned_at_n16():
    # max_residual is the certified bound of _residual_bound, not the swept
    # maximum
    rho = random_state(np.random.default_rng(1601), 16)
    assert isotropy_report(rho).max_residual == float.fromhex("0x1.58eac5bc86af1p-52")
    xi = validate_positive(3.5 * random_state(np.random.default_rng(1602), 16, rank=4).matrix)
    assert isotropy_report(xi).max_residual == float.fromhex("0x1.7cfa596160d55p-49")


def _sweep_cases():
    rng = np.random.default_rng(1604)
    for n in (1, 2, 3, 5, 8, 16):
        for k in sorted({1, max(1, n // 2), n}):
            yield random_state(rng, n, rank=k)
    # a repeated support eigenvalue and a two-dimensional kernel, rotated
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    yield validate_positive((u * np.array([0.3, 0.3, 0.2, 0.2, 0.0, 0.0])) @ dag(u))
    yield validate_positive(3.5 * random_state(rng, 7, rank=4).matrix)
    # Hermitian only up to the validation tolerance: the lower triangle is off
    # by about 1e-14 and the diagonal has imaginary parts of about 1e-12
    noise = 1e-14 * np.tril(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
    noise += 1e-12j * np.diag(rng.standard_normal(6))
    yield validate_positive(random_state(rng, 6, rank=3).matrix + noise)


def _bound_inputs():
    """(split, base, p) for _residual_bound: each of _sweep_cases at itself and
    at its normalized matrix; then splits whose basis is off by about 1e-6, so
    that h w - w diag(p) is far above rounding, and splits whose basis has
    nothing to do with the base diag(n, 1, ..., 1), where velocities are O(1)
    and the normalized action's trace term decides the bound."""
    from sampling import random_unitary
    from stategeom.states import SpectralSplit

    def padded(split, trace=1.0):
        p = np.zeros(split.ambient_dim)
        p[:split.support_dim] = split.eigenvalues / trace
        return p

    for xi in _sweep_cases():
        split, trace = spectral_split(xi), np.trace(xi.matrix).real
        yield split, xi.matrix, padded(split)
        yield split, xi.matrix / trace, padded(split, trace)
    rng = np.random.default_rng(1606)
    for n, k in ((3, 1), (8, 4), (12, 12)):
        xi = random_state(rng, n, rank=k)
        split = spectral_split(xi)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        near = split.full_basis() @ (np.eye(n) + 1e-6 * (s - dag(s)))
        far = random_unitary(rng, n)
        for w, base in ((near, xi.matrix), (far, np.diag(np.r_[float(n), np.ones(n - 1)]))):
            moved = SpectralSplit(eigenvalues=split.eigenvalues, support_basis=w[:, :k],
                                  kernel_basis=w[:, k:])
            yield moved, base, padded(split)


def test_residual_bound_covers_the_reference_sweep():
    # at either base, for either action, including the near-Hermitian case
    import stategeom.isotropy as iso

    for split, base, p in _bound_inputs():
        w = split.full_basis()
        blocks = _blocks(split)[0]
        for normalized in (False, True):
            expected = sweep_residual_reference(blocks, w, base, normalized)
            got = iso._residual_bound(iso._sections(split)[0], w, base, p, normalized)
            assert got >= expected, (split.ambient_dim, split.support_dim, normalized)


def test_residual_bound_is_the_per_block_formula_bit_for_bit():
    # the sections reduced in closed form against the bound formed block by block
    import stategeom.isotropy as iso

    for split, base, p in _bound_inputs():
        w = split.full_basis()
        sections, blocks = iso._sections(split)[0], _blocks(split)[0]
        for normalized in (False, True):
            expected = residual_bound_reference(blocks, w, base, p, normalized)
            got = iso._residual_bound(sections, w, base, p, normalized)
            assert got == expected, (split.ambient_dim, split.support_dim, normalized)


def test_coefficient_range_is_that_of_the_blocks():
    # the closed forms that both certificates read, against the min and max of
    # |c1|^2 + |c2|^2 over the blocks of either side and, on the isotropy side,
    # the norm of Re Tr B
    import stategeom.isotropy as iso

    for split in [*(spectral_split(xi) for xi in _sweep_cases()), *_certificate_splits()]:
        n, k = split.ambient_dim, split.support_dim
        for sections, b, identity in zip(iso._sections(split), _blocks(split), (True, False)):
            norms = np.abs(b.c1) ** 2 + np.abs(b.c2) ** 2
            trace = np.where(b.j1 == b.l1, b.c1, 0.0) + np.where(b.j2 == b.l2, b.c2, 0.0)
            border = np.linalg.norm(trace.real) if identity else None
            assert iso._coefficient_range(sections, n, k, identity) == (
                norms.min(), norms.max(), border), (n, k, identity)


def _report_pin_cases():
    rng = np.random.default_rng(3801)
    for n in range(1, 9):
        for k in range(1, n + 1):
            yield random_state(rng, n, rank=k)


# max_residual of isotropy_report at _report_pin_cases, as the report computed it
# when it built the blocks
_REPORT_PINS = [
    "0x1.2000000000028p-48", "0x1.18ac5a5c42b32p-48", "0x1.75e871057dd23p-49",
    "0x1.181c2fc3f88f0p-48", "0x1.0670db70a6fa7p-48", "0x1.cac08ccd56ce0p-49",
    "0x1.e2c7b8b12ca5fp-49", "0x1.5c987e2365aecp-48", "0x1.8ad8e48faf8d9p-49",
    "0x1.a66574cde24a2p-50", "0x1.33db3ec2f8987p-49", "0x1.77780cf06d06ap-49",
    "0x1.22c84c228c124p-49", "0x1.cd48ef0c7f087p-50", "0x1.851a1295b2857p-50",
    "0x1.df6163b16978ep-50", "0x1.76f5df1e43579p-49", "0x1.bff3a13629cd0p-50",
    "0x1.aaa32bebc03f3p-50", "0x1.6ec9bf930a693p-50", "0x1.27c2cd15b16f7p-50",
    "0x1.0076475ac57cep-49", "0x1.6ae09358c68d3p-49", "0x1.089ceb76dd400p-49",
    "0x1.52035478b3c85p-50", "0x1.458d96b1d8ee0p-50", "0x1.d68cb55555b5cp-51",
    "0x1.b0d0e9e09066fp-51", "0x1.ce28085b8a9dbp-50", "0x1.6c6e95d783bf2p-49",
    "0x1.c484d28cefbb8p-50", "0x1.5aab8ea4ecffep-50", "0x1.16ac460d26f16p-50",
    "0x1.2c9062b027c94p-50", "0x1.144004351d90ep-50", "0x1.ee1b5e0ac9144p-51",
]


def test_report_builds_no_blocks(monkeypatch):
    # n = 1-8 at every rank, and the n = 16 pins, with no per-block arrays
    import stategeom.isotropy as iso

    def unreachable(*args):
        raise AssertionError("the report built per-block arrays")

    monkeypatch.setattr(iso, "_outer_stack", unreachable)
    cases = list(_report_pin_cases())
    assert len(cases) == len(_REPORT_PINS)
    for rho, pin in zip(cases, _REPORT_PINS):
        report = isotropy_report(rho)
        n, k = report.ambient_dim, report.support_dim
        assert report.max_residual == float.fromhex(pin), (rho.n, k)
        assert (report.dim_alpha, report.dim_complement) == (
            isotropy_dimension_alpha(k, rho.n), n - isotropy_dimension_alpha(k, rho.n))
    test_report_residual_pinned_at_n16()


def test_report_identity_residual_has_the_bits_of_membership_phi(monkeypatch):
    # the identity direction's velocity is formed in O(n^2) without validating
    # xi / Tr xi; a base Hermitian only up to the tolerance shows in its bits
    import stategeom.isotropy as iso

    monkeypatch.setattr(iso, "_residual_bound", lambda *args, **kwargs: 0.0)
    for xi in _sweep_cases():
        rho = validate_state(xi.matrix / np.trace(xi.matrix).real)
        identity = isotropy_membership_phi(np.eye(xi.n) / np.sqrt(xi.n), rho)[1]
        assert isotropy_report(xi).max_residual == identity


def _block_chunks(blocks, size):
    """The blocks' fields in consecutive slices of at most ``size`` blocks."""
    from types import SimpleNamespace

    fields = ("j1", "l1", "c1", "j2", "l2", "c2")
    for start in range(0, blocks.dim, size):
        yield SimpleNamespace(**{f: getattr(blocks, f)[start:start + size] for f in fields})


def _swept_maximum(xi):
    """The reference sweep's largest residual over the isotropy blocks at xi
    (congruence) and at xi / Tr xi (normalized), with the identity direction's,
    the sweep taken 2^19 matrix entries at a time to bound its memory."""
    split = spectral_split(xi)
    w = split.full_basis()
    rho = xi.matrix / np.trace(xi.matrix).real
    chunks = list(_block_chunks(_blocks(split)[0], max(1, (1 << 19) // w.size)))
    swept = [sweep_residual_reference(c, w, base, normalized) for c in chunks
             for base, normalized in ((xi.matrix, False), (rho, True))]
    identity = np.eye(xi.n) / np.sqrt(xi.n)
    return max(swept + [isotropy_membership_phi(identity, validate_state(rho))[1]])


def _bound_cases():
    """Seeded inputs at n = 1-48, ranks 1, n/2 and n, scaled by 2^e, then
    _sweep_cases.  e runs through every scale at n <= 8 and cycles above.

    The scales reach 2^330 (about 2e99) and go down to 2^-26 (about 1.5e-8),
    about the smallest that validate_positive accepts for a full-rank state at
    n = 48: its thresholds do not scale below norm 1 (ROADMAP item 3).
    """
    rng = np.random.default_rng(2101)
    exponents = (-26, -10, 0, 100, 330)
    count = 0
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48):
        for k in sorted({1, max(1, n // 2), n}):
            m = random_state(rng, n, rank=k).matrix
            for e in exponents if n <= 8 else exponents[count % 5:count % 5 + 1]:
                yield validate_positive(m * 2.0**e)
            count += 1
    yield from _sweep_cases()


def test_report_bound_covers_the_sweep_and_stays_useful():
    # certified: the bound is at least the swept residual of every block, at
    # both bases; useful: within 100 times it wherever the sweep is nonzero
    # (at n = 1 every velocity is exactly zero)
    worst = 0.0
    for xi in _bound_cases():
        bound, swept = isotropy_report(xi).max_residual, _swept_maximum(xi)
        assert bound >= swept, (xi.n, bound, swept)
        if swept > 0.0:
            worst = max(worst, bound / swept)
    assert 0.0 < worst <= 100.0


def test_report_at_n256_runs_in_o_n3():
    # a sweep of the blocks would form about 1e10 velocity entries here; the
    # O(n^3) bound takes well under a second, so 10 s guards the order, not speed
    import time

    rho = random_state(np.random.default_rng(256), 256, rank=128)
    start = time.perf_counter()
    report = isotropy_report(rho)
    elapsed = time.perf_counter() - start
    assert report.dim_alpha == isotropy_dimension_alpha(128, 256)
    assert report.dim_phi == report.dim_alpha + 1
    assert report.dim_alpha + report.dim_complement == report.ambient_dim == 2 * 256 * 256
    assert report.max_residual <= 1e-9 * frobenius(rho.matrix)
    assert elapsed < 10.0


def test_report_peak_memory_below_2mib():
    # the report never forms a basis of the isotropy algebra, and
    # _residual_bound holds O(n^2) arrays: the traced peak at n=32, rank 8
    # is 0.36 MiB
    import tracemalloc

    rho = random_state(np.random.default_rng(3208), 32, rank=8)
    tracemalloc.start()
    try:
        isotropy_report(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class TestBasisSizeGuard:
    BUILDERS = (isotropy_basis_alpha, complement_basis_alpha, isotropy_basis_phi)

    def test_oversize_basis_refused_before_it_is_built(self, monkeypatch):
        import tracemalloc

        import stategeom.isotropy as iso
        from stategeom import config
        from stategeom.errors import ValidationError

        def unreachable(*args):
            raise AssertionError("the block layout or the O(n^4) stack was built")

        # the refusal is decided from the closed-form dimension alone
        monkeypatch.setattr(iso, "_sections", unreachable)
        monkeypatch.setattr(iso, "_outer_stack", unreachable)
        # full rank at n = 91: 91^2 matrices of 91^2 entries each, over 1 GiB
        split = spectral_split(random_state(np.random.default_rng(91), 91))
        assert 91**4 > config.BASIS_MAX_ENTRIES
        for build in self.BUILDERS:
            tracemalloc.start()
            try:
                with pytest.raises(ValidationError, match="above the limit"):
                    build(split)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    def test_hermitian_basis_refused_before_it_is_built(self, monkeypatch):
        import stategeom.isotropy as iso
        from stategeom import config
        from stategeom.errors import ValidationError

        # n^2 matrices of n^2 entries each; at the limit the basis is built
        monkeypatch.setattr(config, "BASIS_MAX_ENTRIES", 3 ** 4)
        assert len(hermitian_basis(3)) == 9

        def unreachable(*args):
            raise AssertionError("the basis was written")

        monkeypatch.setattr(iso, "_outer_stack", unreachable)
        monkeypatch.setattr(config, "BASIS_MAX_ENTRIES", 3 ** 4 - 1)
        with pytest.raises(ValidationError, match="81 entries, above the limit of 80"):
            hermitian_basis(3)

    def test_limit_is_inclusive(self, monkeypatch):
        from stategeom import config
        from stategeom.errors import ValidationError

        split = spectral_split(random_state(np.random.default_rng(92), 4, rank=2))
        # every returned matrix counts, the identity of the phi basis included
        counts = [build(split).dim_real for build in self.BUILDERS]
        for build, count in zip(self.BUILDERS, counts):
            entries = count * 4 * 4
            monkeypatch.setattr(config, "BASIS_MAX_ENTRIES", entries)
            assert build(split).dim_real > 0
            monkeypatch.setattr(config, "BASIS_MAX_ENTRIES", entries - 1)
            with pytest.raises(ValidationError, match="above the limit"):
                build(split)

    def test_phi_refusal_counts_the_identity(self, monkeypatch):
        from stategeom import config
        from stategeom.errors import ValidationError

        # a full-rank 2 x 2 state: 4 isotropy blocks and the identity, 20 entries
        rho = random_state(np.random.default_rng(93), 2)
        monkeypatch.setattr(config, "BASIS_MAX_ENTRIES", 16)
        with pytest.raises(ValidationError,
                           match="basis of 5 matrices of dimension 2 has 20 entries"):
            isotropy_basis_phi(rho)
        monkeypatch.setattr(config, "BASIS_MAX_ENTRIES", 20)
        assert isotropy_basis_phi(rho).dim_real == 5


@pytest.mark.parametrize("n", [1, 2, 5])
def test_hermitian_components_equal_the_triu_reference_exactly(n):
    rng = np.random.default_rng(60 + n)
    for shape in [(n, n), (2, 3, n, n)]:
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = hermitian_components(t)
        assert out.shape == shape[:-2] + (n * n,)
        np.testing.assert_array_equal(out, hermitian_components_reference(t))


@pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (4, 4)])
def test_a_state_its_matrix_and_its_split_give_the_same_bases(n, k):
    # each of these splits a functional itself, so a state or its bare matrix
    # is taken where a SpectralSplit is expected
    rng = np.random.default_rng(7300 + n)
    rho = random_state(rng, n, rank=k)
    forms = (rho, rho.matrix, spectral_split(rho))
    for action in ("alpha", "phi"):
        assert len({orbit_dimension(form, action) for form in forms}) == 1
    for basis in (isotropy_basis_alpha, complement_basis_alpha, isotropy_basis_phi):
        bits = {(basis(form).gram_floor.hex(), tuple(v.tobytes() for v in basis(form).vectors))
                for form in forms}
        assert len(bits) == 1, basis.__name__
