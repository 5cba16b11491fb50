"""Seeded workload inputs, built from numpy alone.

Nothing here imports stategeom (not even ``stategeom.sampling``), so a change
to the program cannot move the inputs: the program only ever receives the
arrays and files made here.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Separate streams per consumer, so adding a case to one workload leaves the
# inputs of the others unchanged.
_STREAM = {"lib_small": 1, "lib_large": 2, "cli_cold": 3}

# lib_small: n in {2, 3, 4, 8, 16} at ranks full, 1 and n/2 (deduplicated).
SMALL_SIZES = (2, 3, 4, 8, 16)
GNS_SMALL_MAX_N = 3

# The truncation config of the README: gibbs spectra, dims up to 64.
README_TRUNCATION = {
    "dims": [2, 4, 8, 16, 32, 64],
    "spec0": {"kind": "gibbs", "ratio": 0.25},
    "spec1": {"kind": "gibbs", "ratio": 0.5},
    "ceiling": 1e6,
    "action": "phi",
}


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[workload]])


def dag(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a.T)


def ginibre(rng, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Exactly Hermitian part: entry (j, i) is the bitwise conjugate of (i, j)."""
    return (a + dag(a)) / 2.0


def random_state(rng, n: int, rank: int) -> np.ndarray:
    """Density matrix of the given rank with a generic spectrum."""
    x = ginibre(rng, n, rank)
    rho = hermitize(x @ dag(x))
    return hermitize(rho / np.trace(rho).real)


def random_invertible(rng, n: int) -> np.ndarray:
    """Well-conditioned invertible element: 1.5 I plus a unit-scale Ginibre part."""
    return 1.5 * np.eye(n) + ginibre(rng, n) / np.sqrt(n)


def random_generator(rng, n: int, norm: float) -> np.ndarray:
    """Algebra element of Frobenius norm ``norm``."""
    a = ginibre(rng, n)
    return a * (norm / np.linalg.norm(a))


def random_hermitian(rng, n: int) -> np.ndarray:
    return hermitize(ginibre(rng, n))


def adapted_basis(rho: np.ndarray) -> np.ndarray:
    """Eigenvectors of rho, largest eigenvalue first (support before kernel)."""
    _, v = np.linalg.eigh(hermitize(rho))
    return v[:, ::-1]


def isotropy_member_alpha(rng, rho: np.ndarray, rank: int) -> np.ndarray:
    """An element a with a rho + rho a† = 0, built from the support/kernel split.

    In the adapted basis: i times a real diagonal on the support block, free
    support-to-kernel and kernel-kernel blocks, and a zero kernel-to-support
    block.
    """
    n = rho.shape[0]
    b = np.zeros((n, n), dtype=complex)
    b[:rank, :rank] = 1j * np.diag(rng.standard_normal(rank))
    b[:rank, rank:] = ginibre(rng, rank, n - rank)
    b[rank:, rank:] = ginibre(rng, n - rank, n - rank)
    w = adapted_basis(rho)
    return w @ b @ dag(w)


def small_cases(rng) -> list[dict]:
    """One case per (n, rank) of lib_small."""
    cases = []
    for n in SMALL_SIZES:
        for rank in sorted({n, 1, max(1, n // 2)}, reverse=True):
            rho = random_state(rng, n, rank)
            member = isotropy_member_alpha(rng, rho, rank)
            p = rng.random(n) + 0.05
            cases.append({
                "n": n,
                "rank": rank,
                "rho": rho,
                "rho_same_rank": random_state(rng, n, rank),
                "rho_other_rank": random_state(rng, n, n if rank < n else max(1, n - 1)),
                "g": random_invertible(rng, n),
                "h": random_hermitian(rng, n),
                "gen": random_generator(rng, n, 1.0),
                "iso_member": member,
                "iso_member_phi": member + rng.standard_normal() * np.eye(n),
                "iso_generic": random_generator(rng, n, 1.0),
                "prob": p / p.sum(),
                "weights": (rng.random(n) + 0.2) * np.exp(2j * np.pi * rng.random(n)),
                "gns": n <= GNS_SMALL_MAX_N,
            })
    return cases


def lib_small_inputs(seed: int) -> dict:
    return {"cases": small_cases(rng_for(seed, "lib_small"))}


def lib_large_inputs(seed: int) -> dict:
    rng = rng_for(seed, "lib_large")
    iso = [(n, rank, random_state(rng, n, rank))
           for n in (16, 24, 32) for rank in (n, n // 4)]
    gns = [(n, random_state(rng, n, n), random_generator(rng, n, float(n)),
            random_invertible(rng, n)) for n in (16, 24, 32)]
    purity = [(n, random_state(rng, n, n)) for n in (4, 5)]
    recombine = [(n, random_invertible(rng, n), random_invertible(rng, n),
                  float(rng.uniform(0.1, 0.9))) for n in (32, 64)]
    t_grid = np.linspace(0.0, 1.0, 200)
    return {
        "iso": iso,
        "gns": gns,
        "purity": purity,
        "recombine": recombine,
        "rho64": random_state(rng, 64, 64),
        "rho64_b": random_state(rng, 64, 64),
        "gen64": random_generator(rng, 64, 1.0),
        "herm64": random_hermitian(rng, 64),
        "rho16": random_state(rng, 16, 8),
        "op64": ginibre(rng, 64),
        "trajectory_t": t_grid,
        "trajectory": [random_state(rng, 16, 16) for _ in t_grid],
    }


def matrix_json(m: np.ndarray, kind: str) -> str:
    """Matrix file text in the documented format, written without the program."""
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]
    return json.dumps({"n": int(m.shape[0]), "kind": kind, "entries": entries},
                      separators=(",", ":")) + "\n"


def cli_inputs(seed: int, directory: Path) -> dict:
    """Write the n=4 input files of cli_cold and return their paths and arrays."""
    rng = rng_for(seed, "cli_cold")
    n = 4
    arrays = {
        "state": (random_state(rng, n, n), "state"),
        "state_b": (random_state(rng, n, n), "state"),
        "state_r3": (random_state(rng, n, 3), "state"),
        "g": (random_invertible(rng, n), "operator"),
        "g2": (random_invertible(rng, n), "operator"),
        "gen": (random_generator(rng, n, 1.0), "operator"),
        "tau": (np.eye(n, dtype=complex) / n, "state"),
    }
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (m, kind) in arrays.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(matrix_json(m, kind))
    paths["truncate"] = directory / "truncate.json"
    paths["truncate"].write_text(json.dumps(README_TRUNCATION))
    return {
        "paths": {k: str(v) for k, v in paths.items()},
        "arrays": {k: m for k, (m, _) in arrays.items()},
        "lam": float(rng.uniform(0.1, 0.9)),
        "truncation": README_TRUNCATION,
    }
