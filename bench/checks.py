"""Independent invariant checks for every benchmarked result, numpy only.

Each check recomputes what it needs from the inputs with plain numpy
(eigvalsh, svd, a Taylor-series exponential) and raises CheckFailed when the
program's answer disagrees.  The checks run outside the timed interval and
feed the failed count.  GNS results are checked through identities only,
never by comparing coordinates, because a valid construction may choose
another basis.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

RTOL = 1e-9          # relative agreement for direct formulas
FLOW_RTOL = 1e-8     # trajectory points against the Taylor exponential
FD_MAX = 1e-6        # central-difference error at the default step
NORM_SLACK = 1e-9    # multiplicative slack on the sqrt(C+1) bound


class CheckFailed(Exception):
    """A result broke one of its invariants."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def dag(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a.T)


def close(actual, expected, what: str, rtol: float = RTOL) -> None:
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    require(a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}")
    err = float(np.linalg.norm(a - e))
    require(err <= rtol * (1.0 + float(np.linalg.norm(e))), f"{what}: error {err:.3e}")


def hermitian(m: np.ndarray, what: str) -> None:
    close(m, dag(m), f"{what} Hermitian")


def unitary(u: np.ndarray, what: str) -> None:
    close(dag(u) @ u, np.eye(u.shape[1]), f"{what} unitary")


def psd(m: np.ndarray, what: str) -> None:
    w = np.linalg.eigvalsh((m + dag(m)) / 2.0)
    require(w[0] >= -RTOL * (1.0 + abs(w[-1])), f"{what}: eigenvalue {w[0]:.3e} < 0")


def expm_ref(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling to norm <= 1/4, 24 Taylor terms and squaring back."""
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = a / 2.0 ** s
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 25):
        term = term @ x / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def phi_ref(g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    m = g @ rho @ dag(g)
    return m / np.trace(m).real


def top_eigenvalues(m: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.eigvalsh((m + dag(m)) / 2.0)[::-1][:k]


def state(m: np.ndarray, what: str) -> None:
    hermitian(m, what)
    require(abs(np.trace(m).real - 1.0) <= RTOL, f"{what}: trace {np.trace(m).real!r}")


# linalg


def hermitian_eig(dec, h: np.ndarray) -> None:
    w, v = np.asarray(dec.eigenvalues), np.asarray(dec.eigenvectors)
    require(np.all(np.diff(w) <= 0.0), "eigenvalues not sorted non-increasing")
    close(w, np.linalg.eigvalsh(h)[::-1], "eigenvalues")
    unitary(v, "eigenvectors")
    close(h @ v, v * w, "eigen equation")


def matrix_sqrt_psd(s: np.ndarray, p: np.ndarray) -> None:
    hermitian(s, "square root")
    psd(s, "square root")
    close(s @ s, p, "square of square root")


def polar(result, g: np.ndarray) -> None:
    u, p = result
    unitary(u, "polar factor")
    hermitian(p, "positive factor")
    psd(p, "positive factor")
    close(u @ p, g, "polar product")


def inertia(result, h: np.ndarray, zero_tol: float) -> None:
    w = np.linalg.eigvalsh(h)
    plus, minus = int(np.sum(w > zero_tol)), int(np.sum(w < -zero_tol))
    require(tuple(result) == (plus, h.shape[0] - plus - minus, minus),
            f"inertia {result} != {(plus, h.shape[0] - plus - minus, minus)}")


def matrix_exp(e: np.ndarray, a: np.ndarray) -> None:
    close(e, expm_ref(a), "matrix exponential")


# states


def validated_state(out, m: np.ndarray) -> None:
    require(np.array_equal(out.matrix, m), "validated state differs from its input")
    state(out.matrix, "validated state")


def spectral_split(split, rho: np.ndarray, rank: int) -> None:
    require(split.support_basis.shape[1] == rank,
            f"support dimension {split.support_basis.shape[1]} != {rank}")
    close(split.eigenvalues, top_eigenvalues(rho, rank), "support eigenvalues")
    unitary(np.hstack([split.support_basis, split.kernel_basis]), "split basis")
    e = split.support_basis
    close((e * split.eigenvalues) @ dag(e), rho, "support reconstruction")


def orbit_class(orbit, n: int, rank: int) -> None:
    require((orbit.rank, orbit.corank, orbit.tag) == (rank, n - rank, f"FiniteRank({rank})"),
            f"orbit class {orbit.rank}/{orbit.corank}/{orbit.tag} for rank {rank} of {n}")


# actions


def group_element(ge, g: np.ndarray) -> None:
    s = np.linalg.svd(g, compute_uv=False)
    require(np.array_equal(ge.matrix, g), "group element matrix differs from its input")
    require(abs(ge.sigma_min - s[-1]) <= RTOL * s[0] and abs(ge.sigma_max - s[0]) <= RTOL * s[0],
            f"singular values {ge.sigma_min}, {ge.sigma_max} vs {s[-1]}, {s[0]}")


def alpha(out, g: np.ndarray, xi: np.ndarray) -> None:
    close(out.matrix, g @ xi @ dag(g), "congruence image")


def phi(out, g: np.ndarray, rho: np.ndarray) -> None:
    state(out.matrix, "phi image")
    close(out.matrix, phi_ref(g, rho), "phi image")


def classical_phi(out, w: np.ndarray, p: np.ndarray) -> None:
    q = np.abs(w) ** 2 * p
    close(out.p, q / q.sum(), "classical image")
    require(abs(float(np.sum(out.p)) - 1.0) <= RTOL, "classical image does not sum to 1")


# orbits


def connecting_element(g: np.ndarray, c: float, rho0: np.ndarray, rho1: np.ndarray,
                       action: str, rank: int) -> None:
    """Residual and the norm certificate ||g||_2 <= sqrt(C+1), C from eigvalsh."""
    image = g @ rho0 @ dag(g) if action == "alpha" else phi_ref(g, rho0)
    close(image, rho1, f"connect_{action} residual")
    c_ref = float(np.max(top_eigenvalues(rho1, rank) / top_eigenvalues(rho0, rank)))
    require(abs(c - c_ref) <= 1e-8 * c_ref, f"bound constant {c!r} != {c_ref!r}")
    opnorm = float(np.linalg.svd(g, compute_uv=False)[0])
    require(opnorm <= math.sqrt(c_ref + 1.0) * (1.0 + NORM_SLACK),
            f"||g|| = {opnorm:.6e} exceeds sqrt(C+1) = {math.sqrt(c_ref + 1.0):.6e}")


def connect(cert, rho0: np.ndarray, rho1: np.ndarray, action: str, rank: int) -> None:
    connecting_element(cert.g.matrix, cert.bound_constant, rho0, rho1, action, rank)


def equals(result, expected) -> None:
    require(result == expected, f"got {result!r}, expected {expected!r}")


def convex_recombine(result, tau: np.ndarray, g1, g2, lam: float) -> None:
    element, residual = result
    p = element.matrix
    hermitian(p, "recombiner")
    psd(p, "recombiner")
    target = lam * phi_ref(g1, tau) + (1.0 - lam) * phi_ref(g2, tau)
    close(phi_ref(p, tau), target, "recombined mixture")
    require(0.0 <= residual <= 1e-8, f"reported residual {residual!r}")


# isotropy


def isotropy_dims(n: int, rank: int) -> dict:
    dim_alpha = rank * rank + 2 * (n - rank) ** 2 + 2 * rank * (n - rank)
    return {
        "ambient_dim": 2 * n * n,
        "support_dim": rank,
        "dim_alpha": dim_alpha,
        "dim_phi": dim_alpha + 1,
        "dim_complement": rank * rank + 2 * rank * (n - rank),
        "orbit_dim_alpha": 2 * n * n - dim_alpha,
        "orbit_dim_phi": 2 * n * n - dim_alpha - 1,
    }


def isotropy_payload(payload: dict, n: int, rank: int) -> None:
    for key, value in isotropy_dims(n, rank).items():
        if key in payload:
            require(payload[key] == value, f"{key} = {payload[key]}, expected {value}")
    require(payload["dim_alpha"] + payload["dim_complement"] == 2 * n * n,
            "isotropy plus complement is not the whole algebra")
    require(0.0 <= payload["max_residual"] <= 1e-8, f"max_residual {payload['max_residual']!r}")


def isotropy_report(rep, n: int, rank: int) -> None:
    isotropy_payload(vars(rep), n, rank)


def membership(result, a: np.ndarray, rho: np.ndarray, action: str, expected: bool) -> None:
    """Decision as built into the input, residual bracketed by the velocity.

    The residual is the largest pairing against the Hermitian basis: diagonal
    entries and twice the real and imaginary parts of off-diagonal entries of
    the velocity v, so it lies between max|v_ij| and 2 max|v_ij|.
    """
    ok, residual = result
    v = a @ rho + rho @ dag(a)
    if action == "phi":
        v = v - np.trace(v).real * rho
    direct = float(np.max(np.abs(v)))
    slack = RTOL * (1.0 + float(np.linalg.norm(a))) * (1.0 + float(np.linalg.norm(rho)))
    require(ok == expected, f"membership {ok}, expected {expected}")
    require(direct - slack <= residual <= 2.0 * direct + slack,
            f"membership residual {residual!r} outside [{direct!r}, {2.0 * direct!r}]")


# tangent


def phi_velocity(rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    v = a @ rho + rho @ dag(a)
    return v - np.trace(v).real * rho


def tangent_phi(tv, rho: np.ndarray, a: np.ndarray) -> None:
    close(tv.value, phi_velocity(rho, a), "phi tangent")
    require(abs(np.trace(tv.value)) <= RTOL, "phi tangent is not traceless")


def fd_error(err) -> None:
    require(0.0 <= float(err) <= FD_MAX, f"finite-difference error {err!r}")


def trajectory(mats, rho: np.ndarray, a: np.ndarray, ts) -> None:
    require(len(mats) == len(ts), f"{len(mats)} states for {len(ts)} grid points")
    for t, m in zip(ts, mats):
        close(m, phi_ref(expm_ref(t * a), rho), f"flow point t={t}", FLOW_RTOL)


def flow(states, rho: np.ndarray, a: np.ndarray, ts) -> None:
    trajectory([s.matrix for s in states], rho, a, ts)


def tangent_map_rank(r, n: int, rank: int) -> None:
    equals(r, isotropy_dims(n, rank)["orbit_dim_phi"])


# gns


def gns_triple(triple, n: int, rank: int) -> None:
    require(triple.dim == n * rank, f"GNS dimension {triple.dim}, expected {n * rank}")
    psi = np.asarray(triple.cyclic)
    require(psi.shape == (n * rank,), f"cyclic vector shape {psi.shape}")
    require(abs(np.linalg.norm(psi) - 1.0) <= RTOL, "cyclic vector is not a unit vector")


def gns_expectation(rep_a: np.ndarray, psi: np.ndarray, rho: np.ndarray, a: np.ndarray) -> None:
    """<psi| pi(a) |psi> = Tr(rho a)."""
    got = complex(np.conjugate(psi) @ rep_a @ psi)
    want = complex(np.trace(rho @ a))
    require(abs(got - want) <= 1e-8 * (1.0 + float(np.linalg.norm(a))),
            f"<psi|pi(a)|psi> = {got} but Tr(rho a) = {want}")


def gns_small(triple, rho: np.ndarray, rank: int, a: np.ndarray) -> None:
    n = rho.shape[0]
    gns_triple(triple, n, rank)
    gns_expectation(triple.rep(a), triple.cyclic, rho, a)


def gns_transform(moved, rep_a: np.ndarray, rho: np.ndarray, g: np.ndarray, a: np.ndarray) -> None:
    """The transported vector reproduces the phi-moved state on pi(a)."""
    gns_expectation(rep_a, np.asarray(moved.cyclic), phi_ref(g, rho), a)


# serialize


def matrix_object(obj, m: np.ndarray, kind: str) -> None:
    require(obj.get("n") == m.shape[0] and obj.get("kind") == kind, "matrix header mismatch")
    entries = np.array([complex(re, im) for re, im in obj["entries"]]).reshape(m.shape)
    require(np.array_equal(entries, m), "matrix entries do not round-trip exactly")


def dumped_matrix(text: str, m: np.ndarray, kind: str) -> None:
    require(text.endswith("\n"), "canonical text lacks its trailing newline")
    matrix_object(json.loads(text), m, kind)


def loaded_matrix(result, m: np.ndarray, kind: str) -> None:
    mat, k = result
    require(k == kind, f"kind {k!r}, expected {kind!r}")
    require(np.array_equal(mat, m), "loaded matrix differs from the file contents")


def csv_rows(text: str) -> tuple[list, list]:
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 2, "CSV has no data rows")
    return rows[0], rows[1:]


def trajectory_csv(text: str, ts, n: int) -> list:
    """Parse a flow CSV; returns the state matrices after checking the grid."""
    header, rows = csv_rows(text)
    require(len(header) == 1 + 2 * n * n and header[0] == "t", "flow CSV header")
    require(len(rows) == len(ts), f"{len(rows)} rows for {len(ts)} grid points")
    values = np.array([[float(x) for x in row] for row in rows])
    require(np.array_equal(values[:, 0], np.asarray(ts, dtype=float)), "flow CSV t column")
    return [(v[1::2] + 1j * v[2::2]).reshape(n, n) for v in values]


def flow_csv(text: str, ts, mats) -> None:
    got = trajectory_csv(text, ts, mats[0].shape[0])
    for g, m in zip(got, mats):
        require(np.array_equal(g, m), "flow CSV entry is not the state to 17 digits")


# CLI outputs (stdout text of one invocation)


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _matrix(obj) -> np.ndarray:
    n = obj["n"]
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(n, n)


def cli_validate(stdout: str, rho: np.ndarray, rank: int) -> None:
    p = _json(stdout)
    n = rho.shape[0]
    require(p["valid"] is True and p["kind"] == "state" and p["n"] == n, "validate header")
    require((p["rank"], p["corank"], p["orbit_class"]) == (rank, n - rank, f"FiniteRank({rank})"),
            f"validate rank fields {p['rank']}/{p['corank']}/{p['orbit_class']}")
    require(abs(p["trace"] - 1.0) <= RTOL, f"validate trace {p['trace']!r}")
    w0 = float(np.linalg.eigvalsh(rho)[0])
    require(abs(p["min_eigenvalue"] - w0) <= RTOL, f"min_eigenvalue {p['min_eigenvalue']!r}")


def cli_act(stdout: str, action: str, g: np.ndarray, rho: np.ndarray) -> None:
    m = _matrix(_json(stdout))
    if action == "phi":
        state(m, "act phi output")
        close(m, phi_ref(g, rho), "act phi output")
    else:
        close(m, g @ rho @ dag(g), "act alpha output")


def cli_connect(stdout: str, action: str, rho0: np.ndarray, rho1: np.ndarray) -> None:
    p = _json(stdout)
    require(p["action"] == action, "connect action field")
    g = _matrix(p["g"])
    connecting_element(g, p["C"], rho0, rho1, action, rho0.shape[0])
    require(p["opnorm"] <= p["norm_bound"] * (1.0 + NORM_SLACK), "reported opnorm above bound")


def cli_isotropy(stdout: str, n: int, rank: int) -> None:
    isotropy_payload(_json(stdout), n, rank)


def cli_tangent(stdout: str, rho: np.ndarray, a: np.ndarray) -> None:
    p = _json(stdout)
    v = _matrix(p["tangent"])
    close(v, phi_velocity(rho, a), "tangent output")
    require(abs(p["trace"]) <= RTOL, "tangent output is not traceless")
    fd_error(p["fd_check"]["relative_error"])


def cli_flow(stdout: str, rho: np.ndarray, a: np.ndarray, ts) -> None:
    trajectory(trajectory_csv(stdout, ts, rho.shape[0]), rho, a, ts)


def cli_gns(stdout: str, rho: np.ndarray, rank: int) -> None:
    """dim = n*rank and <psi|pi(E_ij)|psi> = Tr(rho E_ij) = rho_ji for every unit."""
    p = _json(stdout)
    n = rho.shape[0]
    require(p["n"] == n and p["dim"] == n * rank, f"gns dim {p['dim']}, expected {n * rank}")
    psi = np.array([complex(re, im) for re, im in p["cyclic"]])
    require(abs(np.linalg.norm(psi) - 1.0) <= RTOL, "gns cyclic vector is not a unit vector")
    require(len(p["rep"]) == n * n, "gns output lacks some matrix units")
    d = p["dim"]
    for item in p["rep"]:
        i, j = item["unit"]
        r = np.array([complex(re, im) for re, im in item["entries"]]).reshape(d, d)
        got = complex(np.conjugate(psi) @ r @ psi)
        require(abs(got - rho[j, i]) <= 1e-8, f"<psi|pi(E_{i}{j})|psi> = {got} != rho_{j}{i}")


def gibbs(n: int, ratio: float) -> np.ndarray:
    raw = ratio ** np.arange(n, dtype=float)
    return raw / raw.sum()


def cli_truncate(stdout: str, cfg: dict) -> None:
    header, rows = csv_rows(stdout)
    require(header == ["n", "C", "opnorm", "residual", "flag"], f"truncate header {header}")
    require([int(r[0]) for r in rows] == cfg["dims"], "truncate dims column")
    for r in rows:
        n, c, opnorm, residual = int(r[0]), float(r[1]), float(r[2]), float(r[3])
        c_ref = float(np.max(gibbs(n, cfg["spec1"]["ratio"]) / gibbs(n, cfg["spec0"]["ratio"])))
        require(abs(c - c_ref) <= 1e-8 * c_ref, f"truncate C at n={n}: {c!r} vs {c_ref!r}")
        require(opnorm <= math.sqrt(c_ref + 1.0) * (1.0 + NORM_SLACK), f"truncate opnorm at n={n}")
        require(0.0 <= residual <= 1e-8, f"truncate residual at n={n}: {residual!r}")
        require(r[4] == ("true" if c_ref > cfg["ceiling"] else "false"), f"truncate flag at n={n}")


def cli_recombine(stdout: str, tau: np.ndarray, g1, g2, lam: float) -> None:
    p = _json(stdout)
    require(p["lambda"] == lam, f"recombine lambda {p['lambda']!r}")
    target = lam * phi_ref(g1, tau) + (1.0 - lam) * phi_ref(g2, tau)
    recombiner = _matrix(p["recombiner"])
    psd(recombiner, "recombiner")
    close(phi_ref(recombiner, tau), target, "recombined mixture")
    close(_matrix(p["mixture"]), target, "reported mixture")
    require(0.0 <= p["residual"] <= 1e-8, f"recombine residual {p['residual']!r}")
