"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is property-based at desk scale (n <= 16, double precision) with
fixed seeds; expected values come from independent oracles (direct
multiplication, eigenvalue counting, SVD null spaces, finite differences,
componentwise formulas), never from the code paths under test.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
"""

import functools

import numpy as np

from oracles import (
    constraint_matrix_alpha_fast,
    constraint_matrix_phi_fast,
    eig_count,
    null_space_dimension,
    real_gram_explicit,
)
from sampling import (
    random_invertible,
    random_probability,
    random_state,
)
from stategeom.actions import alpha, classical_phi, phi
from stategeom.gns import gns_construct, gns_transform, purity_check
from stategeom.isotropy import (
    complement_basis_alpha,
    isotropy_basis_alpha,
    isotropy_basis_phi,
    isotropy_dimension_alpha,
    isotropy_membership_phi,
)
from stategeom.orbits import (
    connect_phi,
    convex_recombine,
    convex_recombine_classical,
    make_spectrum_generator,
    truncation_sweep,
)
from stategeom.states import (
    maximally_mixed,
    spectral_split,
    validate_state,
)
from stategeom.tangent import fd_tangent_check, tangent_map_rank, tangent_phi


def report(num, ok, detail):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=1)
def action_suite():
    """500 random (g1, g2, rho) triples with n in 2..12, mixed ranks."""
    rng = np.random.default_rng(20240601)
    suite = []
    for _ in range(500):
        n = int(rng.integers(2, 13))
        rank = n if rng.uniform() < 0.7 else int(rng.integers(1, n + 1))
        suite.append((
            random_invertible(rng, n),
            random_invertible(rng, n),
            random_state(rng, n, rank=rank),
            rank,
        ))
    return suite


def test_criterion_1_action_laws():
    worst_law = worst_id = worst_scale = 0.0
    rng = np.random.default_rng(1)
    for g1, g2, rho, _ in action_suite():
        n = rho.n
        worst_law = max(worst_law, np.linalg.norm(
            phi(g1, phi(g2, rho)).matrix - phi(g1 @ g2, rho).matrix))
        worst_law = max(worst_law, np.linalg.norm(
            alpha(g1, alpha(g2, rho)).matrix - alpha(g1 @ g2, rho).matrix))
        worst_id = max(worst_id, np.linalg.norm(
            phi(np.eye(n, dtype=complex), rho).matrix - rho.matrix))
        lam = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
        worst_scale = max(worst_scale, np.linalg.norm(
            phi(lam * g1, rho).matrix - phi(g1, rho).matrix))
    ok = worst_law <= 1e-9 and worst_id <= 1e-12 and worst_scale <= 1e-12
    report(1, ok, f"action laws: composition {worst_law:.2e} <= 1e-9, "
                  f"identity {worst_id:.2e} and scaling {worst_scale:.2e} <= 1e-12")


def test_criterion_2_positivity_trace_rank():
    worst_eig = 0.0
    worst_trace = 0.0
    ranks_ok = True
    for g1, _, rho, rank in action_suite():
        out = phi(g1, rho)
        w = np.linalg.eigvalsh(out.matrix)
        worst_eig = min(worst_eig, float(w[0]))
        worst_trace = max(worst_trace, abs(float(np.trace(out.matrix).real) - 1.0))
        ranks_ok &= eig_count(out.matrix, 1e-12 * (1.0 + np.linalg.norm(out.matrix)))[0] == rank
    ok = worst_eig >= -1e-10 and worst_trace <= 1e-10 and ranks_ok
    report(2, ok, f"preservation: min eigenvalue {worst_eig:.2e} >= -1e-10, "
                  f"|Tr-1| {worst_trace:.2e} <= 1e-10, ranks preserved {ranks_ok}")


def test_criterion_3_isotropy_dimensions():
    rng = np.random.default_rng(3)
    ok = True
    for n in range(1, 7):
        for k in range(1, n + 1):
            expected = isotropy_dimension_alpha(k, n)
            for _ in range(20):
                rho = random_state(rng, n, rank=k)
                dim_a = null_space_dimension(constraint_matrix_alpha_fast(rho.matrix))
                dim_p = null_space_dimension(constraint_matrix_phi_fast(rho.matrix))
                ok &= dim_a == expected and dim_p == dim_a + 1
    report(3, ok, "isotropy dimensions: null space = k^2 + 2(n-k)^2 + 2k(n-k) and "
                  "normalized-action dimension exceeds by 1, for 1 <= k <= n <= 6")


def test_criterion_4_direct_sum():
    rng = np.random.default_rng(4)
    worst = np.inf
    ok = True
    for n in range(1, 7):
        for k in range(1, n + 1):
            for _ in range(20):
                split = spectral_split(random_state(rng, n, rank=k))
                union = list(isotropy_basis_alpha(split).vectors)
                union += list(complement_basis_alpha(split).vectors)
                ok &= len(union) == 2 * n * n
                eigs = np.linalg.eigvalsh(real_gram_explicit(union))
                ratio = float(np.sqrt(max(eigs[0], 0.0) / eigs[-1]))
                worst = min(worst, ratio)
                ok &= ratio > 1e-8
    report(4, ok, f"direct sum: joint Gram full rank 2n^2, smallest relative "
                  f"singular value {worst:.2e} > 1e-8")


def test_criterion_5_connecting_element():
    rng = np.random.default_rng(5)
    worst_res = worst_slack = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        rho0 = random_state(rng, n, rank=k)
        rho1 = random_state(rng, n, rank=k)
        cert = connect_phi(rho0, rho1)
        worst_res = max(worst_res, np.linalg.norm(phi(cert.g, rho0).matrix - rho1.matrix))
        worst_slack = max(worst_slack,
                          np.linalg.norm(cert.g.matrix, 2) / cert.norm_bound - 1.0)
    ok = worst_res <= 1e-9 and worst_slack <= 1e-10
    report(5, ok, f"connecting element: residual {worst_res:.2e} <= 1e-9 and "
                  f"||g|| within {worst_slack:.2e} of sqrt(C+1)")


def test_criterion_6_tracial_convexity():
    rng = np.random.default_rng(6)
    worst_q = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        tau = maximally_mixed(n)
        _, residual = convex_recombine(tau, random_invertible(rng, n),
                                       random_invertible(rng, n),
                                       float(rng.uniform()))
        worst_q = max(worst_q, residual)
    worst_c = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 11))
        p = random_probability(rng, m)
        w1 = rng.standard_normal(m) + 1j * rng.standard_normal(m) + 2.0
        w2 = rng.standard_normal(m) + 1j * rng.standard_normal(m) + 2.0
        _, residual = convex_recombine_classical(p, w1, w2, float(rng.uniform()))
        worst_c = max(worst_c, residual)
    ok = worst_q <= 1e-9 and worst_c <= 1e-12
    report(6, ok, f"tracial convexity: recombiner residual {worst_q:.2e} <= 1e-9, "
                  f"classical {worst_c:.2e} <= 1e-12")


def test_criterion_7_tangent_correctness():
    rng = np.random.default_rng(7)
    worst_fd = 0.0
    fd_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        rho = random_state(rng, n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= rng.uniform(0.05, 2.0) / np.linalg.norm(a, 2)
        err = fd_tangent_check(rho, a)
        worst_fd = max(worst_fd, err)
        fd_ok &= err <= 1e-6

    kernel_ok = True
    rank_ok = True
    for n, k in ((2, 1), (3, 3), (4, 2), (5, 5)):
        rho = random_state(rng, n, rank=k)
        split = spectral_split(rho)
        for v in isotropy_basis_phi(split).vectors:
            tangent_norm = np.linalg.norm(tangent_phi(rho, v).value)
            _, residual = isotropy_membership_phi(v, rho)
            kernel_ok &= tangent_norm <= 1e-8 and residual <= 1e-8
            kernel_ok &= abs(tangent_norm - residual) <= 1e-8
        expected = 2 * n * n - (isotropy_dimension_alpha(k, n) + 1)
        rank_ok &= tangent_map_rank(rho) == expected
    faithful = random_state(rng, 4)
    rank_ok &= tangent_map_rank(faithful) == 15  # n^2 - 1

    ok = fd_ok and kernel_ok and rank_ok
    report(7, ok, f"tangents: worst finite-difference error {worst_fd:.2e} <= 1e-6, "
                  f"kernel matches isotropy {kernel_ok}, rank = orbit dim {rank_ok}")


def test_criterion_8_gns():
    rng = np.random.default_rng(8)
    dims_ok = True
    worst_recon = 0.0
    worst_transform = 0.0
    for n in range(2, 7):
        k = int(rng.integers(1, n + 1))
        rho = random_state(rng, n, rank=k)
        triple = gns_construct(rho)
        dims_ok &= triple.dim == n * k
        g = random_invertible(rng, n)
        moved = gns_transform(triple, g, rho)
        target = phi(g, rho).matrix
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                worst_recon = max(worst_recon, abs(
                    triple.expectation(e) - np.trace(rho.matrix @ e)))
                worst_transform = max(worst_transform, abs(
                    moved.expectation(e) - np.trace(target @ e)))

    purity_ok = True
    pure = random_state(rng, 3, rank=1)
    for _ in range(100):
        purity_ok &= purity_check(phi(random_invertible(rng, 3), pure))

    ok = (dims_ok and worst_recon <= 1e-9 and worst_transform <= 1e-9 and purity_ok)
    report(8, ok, f"GNS: dim = n*rank {dims_ok}, reconstruction {worst_recon:.2e} "
                  f"<= 1e-9, transported expectations {worst_transform:.2e} <= 1e-9, "
                  f"purity preserved {purity_ok}")


def test_criterion_9_classical_fixed_points():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 11))
        p = np.zeros(m)
        p[rng.integers(0, m)] = 1.0
        dirac = validate_state(np.diag(p.astype(complex)))  # sanity: valid state
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w[np.abs(w) < 0.1] = 1.0
        from stategeom.states import validate_probability

        q = classical_phi(w, validate_probability(p))
        ok &= bool(np.array_equal(q.p, p))
    report(9, ok, "classical fixed points: Dirac vectors exactly fixed for 100 "
                  "random weight vectors")


def test_criterion_10_truncation_sweep():
    gen_half = make_spectrum_generator({"kind": "gibbs", "ratio": 0.5})
    same = truncation_sweep(gen_half, gen_half, [2, 4, 8, 16, 32, 64])
    same_ok = all(c == 1.0 for c in same.bound_constants) and not same.diverged

    gen_low = make_spectrum_generator({"kind": "gibbs", "ratio": 0.25})
    grow = truncation_sweep(gen_low, gen_half, [2, 4, 8, 16, 32, 64])
    grow_ok = grow.diverged and grow.flags[grow.dims.index(64)]

    ok = same_ok and grow_ok
    report(10, ok, f"truncation sweep: identical spectra give C = 1 everywhere "
                   f"({same_ok}); growing ratios exceed the 1e6 ceiling by n = 64 "
                   f"({grow_ok})")
