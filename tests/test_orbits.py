import numpy as np
import pytest

from oracles import dag
from sampling import (
    random_invertible,
    random_probability,
    random_state,
    random_unitary,
)
from stategeom import config
from stategeom.actions import alpha, classical_phi, phi
from stategeom.errors import NotTracial, RankMismatch
from stategeom.linalg import frobenius, fro_scale, inertia, matrix_sqrt_psd
from stategeom.orbits import (
    SpectrumGenerator,
    bound_constant,
    connect_alpha,
    connect_phi,
    convex_recombine,
    convex_recombine_classical,
    make_spectrum_generator,
    require_tracial,
    same_orbit_alpha,
    tracial_orbit_point,
    truncation_sweep,
)
from stategeom.serialize import truncation_csv
from stategeom.states import (
    classify_orbit,
    default_rank_tol,
    gibbs_spectrum,
    maximally_mixed,
    validate_positive,
    validate_state,
)


def diag_state(*entries):
    return validate_state(np.diag(entries).astype(complex))


class TestBoundConstant:
    def test_equal_inputs(self):
        rho = diag_state(0.5, 0.5)
        assert bound_constant(rho, rho) == 1.0

    def test_qubit_hand_value(self):
        assert bound_constant(diag_state(0.5, 0.5), diag_state(0.75, 0.25)) == 1.5

    def test_gibbs_scan_oracle(self):
        s0, s1 = gibbs_spectrum(8, 0.5), gibbs_spectrum(8, 0.6)
        rho0 = validate_state(np.diag(s0.astype(complex)))
        rho1 = validate_state(np.diag(s1.astype(complex)))
        expected = max(s1[j] / s0[j] for j in range(8))
        assert bound_constant(rho0, rho1) == pytest.approx(expected, rel=1e-14)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            bound_constant(diag_state(1.0, 0.0), diag_state(0.5, 0.5))


class TestConnect:
    def test_same_functional_zero_residual(self):
        rng = np.random.default_rng(1)
        xi = validate_positive(1.8 * random_state(rng, 3).matrix)
        cert = connect_alpha(xi, xi)
        assert cert.bound_constant == pytest.approx(1.0)
        assert cert.achieved_residual <= 1e-12

    def test_qubit_explicit_element(self):
        cert = connect_phi(diag_state(0.5, 0.5), diag_state(0.75, 0.25))
        np.testing.assert_allclose(
            cert.g.matrix, np.diag([np.sqrt(1.5), np.sqrt(0.5)]), atol=1e-12
        )
        assert cert.bound_constant == pytest.approx(1.5)

    def test_random_same_rank_alpha(self):
        rng = np.random.default_rng(2)
        for n in range(2, 11, 2):
            k = int(rng.integers(1, n + 1))
            xi0 = validate_positive(2.0 * random_state(rng, n, rank=k).matrix)
            xi1 = validate_positive(0.7 * random_state(rng, n, rank=k).matrix)
            cert = connect_alpha(xi0, xi1)
            image = cert.g.matrix @ xi0.matrix @ dag(cert.g.matrix)
            assert frobenius(image - xi1.matrix) <= 1e-9 * fro_scale(xi1.matrix)
            assert np.linalg.norm(cert.g.matrix, 2) <= cert.norm_bound * (1.0 + 1e-10)

    def test_random_rank_two_states_in_c5(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho0 = random_state(rng, 5, rank=2)
            rho1 = random_state(rng, 5, rank=2)
            cert = connect_phi(rho0, rho1)
            assert frobenius(phi(cert.g, rho0).matrix - rho1.matrix) <= 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        rho0 = random_state(rng, 4, rank=3)
        rho1 = random_state(rng, 4, rank=3)
        fwd = connect_phi(rho0, rho1)
        back = connect_phi(rho1, rho0)
        composed = back.g.matrix @ fwd.g.matrix
        assert frobenius(phi(composed, rho0).matrix - rho0.matrix) <= 1e-8

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            connect_phi(diag_state(1.0, 0.0), diag_state(0.5, 0.5))


class TestSameOrbit:
    def test_congruence_images(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            signs = rng.choice([-1.0, 1.0], size=4)
            xi = np.diag(signs * rng.uniform(0.2, 1.0, size=4)).astype(complex)
            g = random_invertible(rng, 4)
            assert same_orbit_alpha(xi, alpha(g, xi))

    def test_rank_difference_detected(self):
        assert not same_orbit_alpha(np.diag([1.0, 0.0]).astype(complex),
                                    np.diag([1.0, 1.0]).astype(complex))

    def test_indefinite_pair_with_witness(self):
        xi0 = np.diag([1.0, -1.0]).astype(complex)
        xi1 = np.diag([2.0, -3.0]).astype(complex)
        assert same_orbit_alpha(xi0, xi1)
        witness = np.diag([np.sqrt(2.0), np.sqrt(3.0)]).astype(complex)
        np.testing.assert_allclose(witness @ xi0 @ dag(witness), xi1, atol=1e-12)

    @staticmethod
    def _functional(rng, big, extra, n):
        """U diag(big, extra, 0, ...) U† for a Haar U, Hermitian to the last bit."""
        u = random_unitary(rng, n)
        w = np.concatenate([big, [extra], np.zeros(n - big.size - 1)])
        m = (u * w) @ dag(u)
        return (m + dag(m)) / 2.0

    @staticmethod
    def _decisions_agree(m, k, refs):
        """``classify_orbit``'s rank of m is k or k + 1, and ``inertia``, ``same_orbit_alpha``
        and ``connect_alpha`` (success or RankMismatch) agree with it against each ref."""
        value = validate_positive(m)
        rank = classify_orbit(value).rank
        assert rank in (k, k + 1)
        assert inertia(m, default_rank_tol(m))[0] == rank
        for ref in refs:
            ref_rank = classify_orbit(ref).rank
            assert same_orbit_alpha(m, ref.matrix) == (rank == ref_rank)
            if rank == ref_rank:
                connect_alpha(value, ref)
            else:
                with pytest.raises(RankMismatch):
                    connect_alpha(value, ref)

    def test_one_rank_near_the_rank_cut(self):
        """An eigenvalue within 2e-4 relative of the rank cut 1e-12 (1 + ||m||_F), where
        eigvalsh and eigh can fall on opposite sides of it: every decision reads the
        eigen-record's rank."""
        rng = np.random.default_rng(77)
        for _ in range(1200):
            n = int(rng.integers(2, 9))
            big = rng.uniform(0.1, 1.0, size=int(rng.integers(1, n)))
            cut = config.scaled(config.RANK_RTOL) * (1.0 + np.linalg.norm(big))
            m = self._functional(rng, big, cut * (1.0 + rng.uniform(-2e-4, 2e-4)), n)
            k = big.size
            refs = [validate_positive(np.diag(np.concatenate([big, z, np.zeros(n - k - 1)])))
                    for z in ([0.0], [10.0 * cut])]
            self._decisions_agree(m, k, refs)

    def test_the_psd_clamp_band_counts_as_zero(self):
        """Eigenvalues in [-PSD_CLAMP_RTOL (1 + ||xi||_F), 0) pass validation and count as
        kernel in ``classify_orbit``, so the signature counts them as zero too."""
        assert same_orbit_alpha(np.diag([1.0, -5e-11, -1.0]), np.diag([1.0, 0.0, -1.0]))
        assert not same_orbit_alpha(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]))
        rng = np.random.default_rng(78)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            big = rng.uniform(0.1, 1.0, size=int(rng.integers(1, n)))
            scale = 1.0 + np.linalg.norm(big)
            m = self._functional(rng, big, -scale * 10.0 ** rng.uniform(-11.9, -10.1), n)
            ref = validate_positive(np.diag(np.concatenate([big, np.zeros(n - big.size)])))
            self._decisions_agree(m, big.size, [ref])
            assert classify_orbit(m).rank == big.size


class TestTracialOrbit:
    def test_unitary_fixes_tracial_state(self):
        u = random_unitary(np.random.default_rng(7), 3)
        out = tracial_orbit_point(u, 3)
        np.testing.assert_allclose(out.matrix, np.eye(3) / 3.0, atol=1e-12)

    def test_hand_value(self):
        out = tracial_orbit_point(np.diag([2.0, 1.0]).astype(complex), 2)
        np.testing.assert_allclose(out.matrix, np.diag([0.8, 0.2]), atol=1e-14)

    def test_surjective_onto_faithful_states(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_state(rng, 4)
            g = matrix_sqrt_psd(rho.matrix)
            out = tracial_orbit_point(g, 4)
            assert frobenius(out.matrix - rho.matrix) <= 1e-10


def expect_tracial_decision(tau, rejected):
    if rejected:
        with pytest.raises(NotTracial):
            require_tracial(tau)
    else:
        require_tracial(tau)


class TestRequireTracial:
    tol = config.TRACIAL_ATOL

    @pytest.mark.parametrize("factor, rejected", [(1.01, True), (0.99, False)])
    def test_off_diagonal_entry_at_threshold(self, factor, rejected):
        eps = factor * self.tol
        tau = validate_state(np.array([[0.5, eps], [eps, 0.5]], dtype=complex))
        expect_tracial_decision(tau, rejected)

    @pytest.mark.parametrize("factor, rejected", [(1.01, True), (0.99, False)])
    def test_diagonal_spread_at_threshold(self, factor, rejected):
        half = factor * self.tol / 2.0
        tau = diag_state(1.0 / 3.0 + half, 1.0 / 3.0, 1.0 / 3.0 - half)
        expect_tracial_decision(tau, rejected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_decision_matches_matrix_unit_loop(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (h + dag(h)) / 2.0
            h -= np.trace(h) / n * np.eye(n)
            m = np.eye(n) / n + 10.0 ** rng.uniform(-12, -8) * h
            tau = validate_state(m)
            # reference: the commutator with every matrix unit, entry by entry
            worst = 0.0
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n), dtype=complex)
                    e[i, j] = 1.0
                    worst = max(worst, float(np.max(np.abs(tau.matrix @ e - e @ tau.matrix))))
            expect_tracial_decision(tau, worst > self.tol)


class TestConvexRecombine:
    def test_non_tracial_rejected(self):
        rng = np.random.default_rng(9)
        rho = random_state(rng, 3)  # generic state does not commute with units
        with pytest.raises(NotTracial):
            convex_recombine(rho, np.eye(3, dtype=complex), np.eye(3, dtype=complex), 0.5)

    def test_endpoint(self):
        rng = np.random.default_rng(10)
        tau = maximally_mixed(3)
        g1, g2 = random_invertible(rng, 3), random_invertible(rng, 3)
        p, residual = convex_recombine(tau, g1, g2, 0.0)
        assert residual <= 1e-12
        assert frobenius(phi(p, tau).matrix - phi(g2, tau).matrix) <= 1e-12

    def test_qubit_hand_value(self):
        tau = maximally_mixed(2)
        g1 = np.diag([2.0, 1.0]).astype(complex)
        g2 = np.diag([1.0, 2.0]).astype(complex)
        p, residual = convex_recombine(tau, g1, g2, 0.5)
        # (diag(4,1)/5 + diag(1,4)/5)/2 = I/2
        assert residual <= 1e-12
        np.testing.assert_allclose(phi(p, tau).matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_random_mixtures(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            tau = maximally_mixed(n)
            g1, g2 = random_invertible(rng, n), random_invertible(rng, n)
            lam = float(rng.uniform())
            p, residual = convex_recombine(tau, g1, g2, lam)
            assert residual <= 1e-9
            # recombiner is PSD and invertible
            assert np.linalg.eigvalsh(p.matrix)[0] > 0.0

    def test_classical_recombiner(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_probability(rng, 3)
            w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3) + 2.0
            w2 = rng.standard_normal(3) + 1j * rng.standard_normal(3) + 2.0
            lam = float(rng.uniform())
            weights, residual = convex_recombine_classical(p, w1, w2, lam)
            assert residual <= 1e-12
            target = lam * classical_phi(w1, p).p + (1.0 - lam) * classical_phi(w2, p).p
            np.testing.assert_allclose(classical_phi(weights, p).p, target, atol=1e-12)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_elements_recombine(self, scale):
        rng = np.random.default_rng(13)
        tau = maximally_mixed(3)
        g1, g2 = random_invertible(rng, 3), random_invertible(rng, 3)
        p, _ = convex_recombine(tau, g1, g2, 0.3)
        big, residual = convex_recombine(tau, scale * g1, scale * g2, 0.3)
        assert residual <= 1e-12
        np.testing.assert_allclose(big.matrix, p.matrix, rtol=1e-12, atol=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_classical_weights_recombine(self, scale):
        rng = np.random.default_rng(14)
        p = random_probability(rng, 3)
        w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        weights, _ = convex_recombine_classical(p, w1, w2, 0.3)
        big, residual = convex_recombine_classical(p, scale * w1, scale * w2, 0.3)
        assert residual <= 1e-12
        np.testing.assert_allclose(big, weights, rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_tiny_classical_weights_recombine(self):
        # the squares of 2^-600 weights underflow to 0 unless w is scaled up first
        rng = np.random.default_rng(15)
        p = random_probability(rng, 3)
        w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        weights, residual = convex_recombine_classical(p, w1, w2, 0.3)
        tiny = convex_recombine_classical(p, 2.0**-600 * w1, 2.0**-600 * w2, 0.3)
        assert tiny[0].tobytes() == weights.tobytes() and tiny[1] == residual


class TestTruncationSweep:
    def test_identical_spectra(self):
        gen = make_spectrum_generator({"kind": "gibbs", "ratio": 0.5})
        report = truncation_sweep(gen, gen, [2, 4, 8, 16, 32, 64])
        assert all(c == 1.0 for c in report.bound_constants)
        assert all(nrm <= 1.0 + 1e-12 for nrm in report.opnorms)
        assert not report.diverged

    def test_growing_ratios_diverge(self):
        gen0 = make_spectrum_generator({"kind": "gibbs", "ratio": 0.25})
        gen1 = make_spectrum_generator({"kind": "gibbs", "ratio": 0.5})
        report = truncation_sweep(gen0, gen1, [2, 4, 8, 16, 32, 64])
        assert report.diverged
        assert report.flags[-1]
        assert report.orbit_class_tags[-1] == "FiniteRank(64) (declared limit: FullSupport)"

    def test_orbit_class_follows_the_kind_of_spec1(self):
        # a "declared_limit" key is ignored like any key the kind does not read
        rng = np.random.default_rng(16)
        uniform = make_spectrum_generator({"kind": "uniform", "declared_limit": "Other"})
        dirichlet = make_spectrum_generator({"kind": "dirichlet"})
        assert truncation_sweep(dirichlet, uniform, [3], rng=rng).orbit_class_tags == (
            "FiniteRank(3) (declared limit: FullSupport)",)
        assert truncation_sweep(uniform, dirichlet, [3], rng=rng).orbit_class_tags == (
            "FiniteRank(3)",)

    def test_decaying_ratios_stay_bounded(self):
        gen0 = make_spectrum_generator({"kind": "gibbs", "ratio": 0.5})
        gen1 = make_spectrum_generator({"kind": "gibbs", "ratio": 0.25})
        report = truncation_sweep(gen0, gen1, [2, 4, 8, 16, 32, 64])
        assert not report.diverged
        assert max(report.bound_constants) <= 1.5 + 1e-12

    def test_fixed_spectra_monotone_under_alpha(self):
        # nested truncations of fixed (unnormalized) spectra: C non-decreasing
        gen0 = make_spectrum_generator({"kind": "power", "exponent": 2.0})
        gen1 = make_spectrum_generator({"kind": "power", "exponent": 1.0})

        class Fixed:
            def __init__(self, exponent):
                self.exponent = exponent
                self.kind = "fixed"
                self.declared_limit = "FullSupport"

            def spectrum(self, n, rng=None):
                return np.arange(1, n + 1, dtype=float) ** (-self.exponent)

        report = truncation_sweep(Fixed(2.0), Fixed(1.0), [2, 4, 8, 16], action="alpha")
        cs = report.bound_constants
        assert all(cs[i] <= cs[i + 1] for i in range(len(cs) - 1))
        # residuals tiny even though the inputs are not states
        assert max(report.residuals) <= 1e-12

    def test_params_are_read_only(self):
        params = {"ratio": 0.5}
        gen = SpectrumGenerator(kind="gibbs", params=params)
        spectrum = gen.spectrum(3).tobytes()
        with pytest.raises(TypeError):
            gen.params["ratio"] = 0.9
        params["ratio"] = 0.9
        assert gen.spectrum(3).tobytes() == spectrum
        built = make_spectrum_generator({"kind": "gibbs", "ratio": 0.5})
        with pytest.raises(TypeError):
            built.params["ratio"] = 0.9
        assert built.spectrum(3).tobytes() == spectrum

    def test_csv_columns(self):
        gen = make_spectrum_generator({"kind": "uniform"})
        report = truncation_sweep(gen, gen, [2, 3])
        text = truncation_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "n,C,opnorm,residual,flag"
        assert lines[1].startswith("2,1,")
        assert len(lines) == 3
