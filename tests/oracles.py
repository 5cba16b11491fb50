"""Independent oracles shared by the unit and acceptance tests.

These stay deliberately naive: explicit basis loops, truncated series,
eigenvalue counting and SVD null spaces, so they exercise none of the code
paths (block constructions, closed-form dimensions, certificates) they are
used to check.
"""

import json

import numpy as np


def dag(a):
    return np.conjugate(a.T)


def hermitian_basis_explicit(n):
    """Diagonal units plus symmetrized/antisymmetrized matrix-unit pairs."""
    basis = []
    for j in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[j, j] = 1.0
        basis.append(e)
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            basis.append(s)
            t = np.zeros((n, n), dtype=complex)
            t[j, k] = 1j
            t[k, j] = -1j
            basis.append(t)
    return basis


def realification_basis_explicit(n):
    out = []
    for j in range(n):
        for k in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = 1.0
            out.append(e)
            out.append(1j * e)
    return out


def real_gram_explicit(vectors):
    """Gram matrix of Re Tr(a†b): dot products of the realified vectors
    (real parts of the entries, then imaginary parts)."""
    rows = np.array([np.concatenate([np.ravel(v).real, np.ravel(v).imag]) for v in vectors])
    return rows @ rows.T


def tangent_singular_values_dense(rho):
    """Singular values of a -> a rho + rho a† - Tr(a rho + rho a†) rho, descending.

    One column per realification basis element (real parts, then imaginary
    parts of its image), then a full SVD of the 2n^2 x 2n^2 real matrix.
    """
    cols = []
    for d in realification_basis_explicit(rho.shape[0]):
        v = d @ rho + rho @ dag(d)
        v = v - np.trace(v).real * rho
        cols.append(np.concatenate([v.real.ravel(), v.imag.ravel()]))
    return np.linalg.svd(np.array(cols).T, compute_uv=False)


def constraint_matrix_alpha(xi):
    """Real matrix of a -> (Tr(xi(a†b_i + b_i a)))_i over the realification.

    Assembled entry by entry from the defining traces.
    """
    n = xi.shape[0]
    bs = hermitian_basis_explicit(n)
    ds = realification_basis_explicit(n)
    m = np.empty((len(bs), len(ds)))
    for i, b in enumerate(bs):
        for j, d in enumerate(ds):
            m[i, j] = np.trace(xi @ (dag(d) @ b + b @ d)).real
    return m


def constraint_matrix_phi(rho):
    """Same as constraint_matrix_alpha with the covariance correction."""
    n = rho.shape[0]
    bs = hermitian_basis_explicit(n)
    ds = realification_basis_explicit(n)
    m = np.empty((len(bs), len(ds)))
    for i, b in enumerate(bs):
        tr_b = np.trace(rho @ b).real
        for j, d in enumerate(ds):
            m[i, j] = (np.trace(rho @ (dag(d) @ b + b @ d))
                       - tr_b * np.trace(rho @ (dag(d) + d))).real
    return m


def constraint_matrix_alpha_fast(xi):
    """Same matrix as constraint_matrix_alpha, assembled by one einsum batch.

    Still straight from the defining traces Tr(xi(d†b + bd)); only the loop
    is replaced, so it remains independent of the library's velocity route.
    """
    n = xi.shape[0]
    b = np.array(hermitian_basis_explicit(n))
    d = np.array(realification_basis_explicit(n))
    term_db = np.einsum("ab,jcb,ica->ij", xi, d.conj(), b)
    term_bd = np.einsum("ab,ibc,jca->ij", xi, b, d)
    return (term_db + term_bd).real


def constraint_matrix_phi_fast(rho):
    """Batch assembly of constraint_matrix_phi."""
    n = rho.shape[0]
    b = np.array(hermitian_basis_explicit(n))
    d = np.array(realification_basis_explicit(n))
    base = (np.einsum("ab,jcb,ica->ij", rho, d.conj(), b)
            + np.einsum("ab,ibc,jca->ij", rho, b, d))
    tr_b = np.einsum("ab,iba->i", rho, b)
    tr_d = (np.einsum("ab,jab->j", rho, d.conj())
            + np.einsum("ab,jba->j", rho, d))
    return (base - np.outer(tr_b, tr_d)).real


def sweep_residual_reference(blocks, w, base, normalized):
    """Worst membership residual of the rotated blocks c1 w_j1 w_l1† + c2 w_j2 w_l2†
    at ``base``, the straightforward way.

    Materialises every t = c1 w_j1 y_l1† + c2 w_j2 y_l2† (y = h w, h the
    Hermitian part of base) at once, gathers the pairings of t + t† against
    the Hermitian basis (the diagonal, then 2 Re and 2 Im of each upper
    entry), subtracts 2 Re Tr(t) times the pairings of base for the
    normalized action, and takes the largest magnitude.  Reads only the
    fields of the blocks.
    """
    n = w.shape[0]
    y = ((base + dag(base)) / 2.0) @ w
    left, right = w.T, np.conjugate(y.T)
    t = (blocks.c1[:, None] * left[blocks.j1])[:, :, None] * right[blocks.l1][:, None, :]
    t += (blocks.c2[:, None] * left[blocks.j2])[:, :, None] * right[blocks.l2][:, None, :]
    rows, cols = np.triu_indices(n, k=1)
    off = t[:, rows, cols] + np.conjugate(t[:, cols, rows])
    values = np.concatenate([2.0 * np.diagonal(t, axis1=1, axis2=2).real,
                             2.0 * off.real, 2.0 * off.imag], axis=1)
    if normalized:
        base_off = base[rows, cols]
        pairings = np.concatenate([np.diagonal(base).real, 2.0 * base_off.real,
                                   2.0 * base_off.imag])
        values -= (2.0 * np.trace(t, axis1=1, axis2=2).real)[:, None] * pairings
    return float(np.abs(values).max())


def residual_bound_reference(blocks, w, base, p, normalized):
    """The certified bound on the membership residuals of the rotated blocks at
    ``base``, formed block by block from the blocks' fields.

    With y = h w (h = b + b†, b = base / 2), F~ = |y - w p| / (1 - u) + u |w| p and
    per column a, f, ym (nu, phi, eta) the maxima (2-norms) of |w|, F~ and |y|,
    each block's bound is 4 (d a_j1 a_l1 + |c1| a_j1 z_l1 + |c2| a_j2 z_l2), z =
    f + gamma_5 ym, with d = gamma_10 |c1| p_l1 off the diagonal and 0 on it; the
    normalized action adds beta tau, tau the same sum over (nu, phi + gamma_5 eta)
    doubled, and beta the largest pairing of base (its diagonal, then 2 Re and 2 Im
    of each upper entry).  The largest bound, at least 0, times 1 + gamma_(4n+64).
    """

    def gamma(k):
        u = 2.0 ** -53
        return k * u / (1.0 - k * u)

    n = w.shape[0]
    half = base / 2.0
    y = (half + dag(half)) @ w
    aw, ay = np.abs(w), np.abs(y)
    fb = np.abs(y - w * p) / (1.0 - gamma(1)) + gamma(1) * aw * p
    c1, c2 = np.abs(blocks.c1), np.abs(blocks.c2)

    def units(x, z):
        return c1 * x[blocks.j1] * z[blocks.l1] + c2 * x[blocks.j2] * z[blocks.l2]

    d = np.where(blocks.j1 != blocks.l1, gamma(10) * c1 * p[blocks.l1], 0.0)
    a = aw.max(axis=0)
    z = fb.max(axis=0) + gamma(5) * ay.max(axis=0)
    bound = 4.0 * (d * a[blocks.j1] * a[blocks.l1] + units(a, z))
    if normalized:
        nu, phi, eta = (np.sqrt(np.sum(m * m, axis=0)) for m in (aw, fb, ay))
        tau = 2.0 * (d * nu[blocks.j1] * nu[blocks.l1] + units(nu, phi + gamma(5) * eta))
        rows, cols = np.triu_indices(n, k=1)
        upper = base[rows, cols]
        pairings = np.concatenate([np.diagonal(base).real, 2.0 * upper.real, 2.0 * upper.imag])
        bound += float(np.max(np.abs(pairings))) * tau
    return float(np.max(bound, initial=0.0)) * (1.0 + gamma(4 * n + 64))


def null_space_dimension(m, rel_tol=1e-8):
    """Number of singular values below rel_tol times max(largest, 1).

    The unit floor keeps an all-round-off matrix (a map that vanishes
    identically) from being read as rank one; the inputs here are built from
    unit-trace states, so their nonzero singular values are O(1).
    """
    s = np.linalg.svd(m, compute_uv=False)
    cut = rel_tol * max(float(s[0]), 1.0)
    return int(m.shape[1] - np.sum(s > cut))


def commutant_dimension_dense(rep, n):
    """Complex dimension of the commutant of a representation of M_n.

    A cyclic shift and a diagonal with distinct entries generate M_n, so the
    commutant is the null space of X -> ([pi(s), X], [pi(d), X]), assembled
    densely as kron(r, I) - kron(I, r^T) for r = rep(s), rep(d).
    """
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    diag = np.diag(np.arange(n, dtype=complex))
    rows = []
    for gen in (shift, diag):
        r = rep(gen)
        eye = np.eye(r.shape[0], dtype=complex)
        rows.append(np.kron(r, eye) - np.kron(eye, r.T))
    return null_space_dimension(np.vstack(rows))


def eig_count(h, tol):
    """Signature by brute-force eigenvalue counting."""
    w = np.linalg.eigvalsh((h + dag(h)) / 2.0)
    return int(np.sum(w > tol)), int(np.sum(np.abs(w) <= tol)), int(np.sum(w < -tol))


def expm_series(a, terms=20):
    """Truncated exponential series sum_{k<=terms} a^k / k!."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def central_difference(curve, h):
    """(curve(h) - curve(-h)) / 2h for a matrix-valued curve."""
    return (curve(h) - curve(-h)) / (2.0 * h)


def matrix_text(m, kind="operator"):
    """A matrix file written with json alone: {"n", "kind", "entries"} with the
    [re, im] pairs in row-major order, compact separators and a newline."""
    m = np.asarray(m, dtype=complex)
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return json.dumps({"n": m.shape[0], "kind": kind, "entries": entries},
                      separators=(",", ":")) + "\n"


def matrix_of(obj):
    """The matrix of a matrix JSON object, read with numpy alone."""
    n = obj["n"]
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(n, n)


def frobenius_reference(a):
    """||a||_F as np.linalg.norm gives it, and where that overflows, the norm
    of a divided by a power of two above max|a| (exact), scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.linalg.norm(a))
        if np.isinf(value):
            e = np.frexp(np.max(np.abs(a)))[1]
            value = float(np.ldexp(np.linalg.norm(a * np.ldexp(1.0, -e)), e))
    return value


def hermitian_components_reference(t):
    """Pairings of t (or of each matrix of a stack) against the Hermitian basis,
    read entry by entry at np.triu_indices: the real diagonal, then 2 Re and
    2 Im of each upper entry in row-major order."""
    n = t.shape[-1]
    columns = [t[..., j, j].real for j in range(n)]
    for j, k in zip(*np.triu_indices(n, k=1)):
        columns += [2.0 * t[..., j, k].real, 2.0 * t[..., j, k].imag]
    return np.stack(columns, axis=-1)


FLOAT_FIELD = "%.17g"


def csv_reference(header, template, rows):
    """CSV text with a row template: the header, then each row formatted by one
    ``%`` template, entries by Python's own formatter (CSV floats are
    ``FLOAT_FIELD``)."""
    return "\n".join([header] + [template % tuple(row) for row in rows]) + "\n"


def float_rows_reference(table):
    """The rows of a float table as CSV text, each entry ``"%.17g" % x``."""
    table = np.asarray(table, dtype=float)
    return csv_reference("", ",".join([FLOAT_FIELD] * table.shape[1]), table.tolist())[1:]
