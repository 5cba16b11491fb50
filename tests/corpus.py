"""A seeded corpus of library and CLI calls, reduced to bytes: one sha256 per function.

    python tests/corpus.py [--src PATH]
    python tests/corpus.py --compare PATH

runs every call of ``calls()`` on the package under PATH (a directory holding
``stategeom``; by default this checkout's ``src``) and prints one line per
function, ``<name> <sha256> <calls>``, then the numpy version and the OpenBLAS
kernel, read as ``tests/conftest.py`` reads it.  Two checkouts on one machine
and kernel give the same line for a function exactly when every call of it
returned the same bits, or raised the same error with the same text, and
emitted the same warnings.  Digests move with the BLAS kernel, so a plain run
compares nothing.  ``--compare PATH`` runs this corpus twice, in fresh
interpreters, on the package under PATH (a checkout, or a directory holding
``stategeom``) and on this checkout's, prints only the lines that differ
(``differing``: ``-`` for PATH's, ``+`` for this checkout's) and exits 1 if any do.

The calls cover n = 1 to 16 (every rank up to n = 6; ranks 1, 2, n/2, n - 1
and n above) and a few at n = 64; functionals, group elements and Hermitian
operands at scales from 1e-150 to 1e150; generators of norm 1e-3 to 8 in
general, Hermitian and skew-Hermitian form; tolerance scales 1e-5, 1 and 10;
bare and validated inputs; and the refusals that each function's docstring
names (``refusals``, with the error class each one expects).  Every public
function of ``stategeom`` has a line, the ones the cases above leave out from
``_public_calls``, and triangular exponentials have their own line,
``matrix_exp triangular``, apart from ``matrix_exp``.  Every CLI command runs in
process through click's ``CliRunner`` on files written to a temporary directory.
It uses numpy, click, the standard library and the package alone.
"""

from __future__ import annotations

import argparse
import contextvars
import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys
import tempfile
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np

SCALES = (1e-150, 1e-100, 1e-50, 1e-5, 1.0, 1e5, 1e50, 1e100, 1e150)
TOLERANCES = (1e-5, 1.0, 10.0)
NORMS = (1e-3, 0.3, 2.0, 8.0)


@dataclasses.dataclass(frozen=True)
class Record:
    """One call: the function's name, the call's label, the tolerance scale it
    ran at, the result or the exception it raised, and the warnings it emitted."""

    function: str
    label: str
    tol: float
    value: object
    warned: tuple


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitian(m):
    return (m + np.conjugate(m.T)) / 2.0


def _state(rng, n, k):
    """A bare density matrix of rank k, exactly Hermitian, eigenvalues floored."""
    w = np.zeros(n)
    w[:k] = np.sort(0.2 + rng.uniform(size=k))[::-1]
    u = _unitary(rng, n)
    m = _hermitian((u * (w / w.sum())) @ np.conjugate(u.T))
    return _hermitian(m / np.trace(m).real)


def _ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0 * n)


def _generator(rng, n, i):
    """A generator of norm NORMS[i % 4], general, Hermitian or skew-Hermitian by i % 3."""
    m = _ginibre(rng, n)
    m = (m, _hermitian(m), m - np.conjugate(m.T))[i % 3]
    return m * (NORMS[i % 4] / np.linalg.norm(m))


def _ranks(n):
    return range(1, n + 1) if n <= 6 else sorted({1, 2, n // 2, n - 1, n})


def _case_calls(sg, iso, n, k, i, rng):
    """The calls of one case: dimension n, rank k, index i."""
    scale = SCALES[i % len(SCALES)]
    rho_m, rho_b_m = _state(rng, n, k), _state(rng, n, k)
    rho_o_m = _state(rng, n, k % n + 1)
    rho, rho_b = sg.validate_state(rho_m), sg.validate_state(rho_b_m)
    xi_m, xi_b_m = scale * rho_m, scale * rho_b_m

    def xi():  # validated in the call: a functional at 1e-150 is refused as zero
        return sg.validate_positive(xi_m)

    g = scale * (1.5 * np.eye(n) + _ginibre(rng, n))
    h = scale * _hermitian(_ginibre(rng, n))
    h2 = _hermitian(_ginibre(rng, n))
    a = _generator(rng, n, i)
    u = _unitary(rng, n)
    p = rng.dirichlet(np.ones(n))
    w = rng.uniform(0.5, 2.0, n) * scale
    grid = np.linspace(-1.0, 2.0, 4)
    calls = [
        ("hermitian_eig", lambda: sg.hermitian_eig(h)),
        ("inertia", lambda: sg.inertia(h, 1e-9 * scale)),
        ("inertia", lambda: sg.inertia(xi_m, 0.0)),
        ("matrix_sqrt_psd", lambda: sg.matrix_sqrt_psd(xi_m)),
        ("matrix_exp", lambda: sg.matrix_exp(a)),
        ("matrix_exp", lambda: sg.matrix_exp(np.diag(np.diagonal(a)))),
        ("matrix_exp triangular", lambda: sg.matrix_exp(np.triu(a, 1))),  # scaled powers
        ("polar", lambda: sg.polar(g)),
        ("validate_positive", lambda: sg.validate_positive(xi_m)),
        ("validate_positive", lambda: sg.validate_positive(xi())),
        ("validate_state", lambda: sg.validate_state(rho_m)),
        ("validate_state", lambda: sg.validate_state(xi())),
        ("validate_probability", lambda: sg.validate_probability(p)),
        ("spectral_split", lambda: sg.spectral_split(xi_m)),
        ("classify_orbit", lambda: sg.classify_orbit(rho)),
        ("group_element", lambda: sg.group_element(g)),
        ("alpha", lambda: sg.alpha(g, xi())),
        ("alpha", lambda: sg.alpha(g, h)),
        ("phi", lambda: sg.phi(g, rho)),
        ("phi", lambda: sg.phi(g, rho_m)),
        ("denominator", lambda: sg.denominator(g, rho)),
        ("unitary_phi", lambda: sg.unitary_phi(u, rho)),
        ("classical_phi", lambda: sg.classical_phi(w, p)),
        ("mix_states", lambda: sg.mix_states(rho, rho_b, 0.3)),
        ("nonconvexity_witness", lambda: sg.nonconvexity_witness(g, rho, rho_b, 0.3)),
        ("connect_alpha", lambda: sg.connect_alpha(xi(), xi_b_m)),
        ("connect_phi", lambda: sg.connect_phi(rho, rho_b)),
        ("connect_phi", lambda: sg.connect_phi(rho_m, rho_b_m)),
        ("bound_constant", lambda: sg.bound_constant(rho, rho_b)),
        ("same_orbit_alpha", lambda: sg.same_orbit_alpha(xi_m, rho_b_m)),
        ("same_orbit_alpha", lambda: sg.same_orbit_alpha(xi_m, rho_o_m)),
        ("tracial_orbit_point", lambda: sg.tracial_orbit_point(g, n)),
        ("tangent_alpha", lambda: sg.tangent_alpha(xi(), a)),
        ("tangent_phi", lambda: sg.tangent_phi(rho, a)),
        ("covariance", lambda: sg.covariance(rho, h2, _hermitian(a))),
        ("flow", lambda: sg.flow(rho, a, grid)),
        ("fd_tangent_check", lambda: sg.fd_tangent_check(rho, a)),
        ("fd_tangent_check", lambda: sg.fd_tangent_check(rho_m, a, 1e-3)),
        ("tangent_map_rank", lambda: sg.tangent_map_rank(rho)),
        ("isotropy_membership_alpha", lambda: sg.isotropy_membership_alpha(a, xi())),
        ("isotropy_membership_alpha", lambda: sg.isotropy_membership_alpha(1j * xi_m, xi())),
        ("isotropy_membership_phi", lambda: sg.isotropy_membership_phi(a, rho)),
        ("isotropy_membership_phi", lambda: sg.isotropy_membership_phi(np.eye(n) + 1j * rho_m,
                                                                      rho_m)),
        ("isotropy_report", lambda: sg.isotropy_report(xi())),
        ("hermitian_components", lambda: iso.hermitian_components(h)),
    ]
    if n <= 8:
        calls.append(("convex_recombine",
                      lambda: sg.convex_recombine(sg.maximally_mixed(n), g, g @ u, 0.25)))
    return calls


def _large_calls(sg, rng):
    """A few calls at n = 64."""
    n = 64
    rho_m, rho_b_m = _state(rng, n, n), _state(rng, n, n)
    rho, rho_b = sg.validate_state(rho_m), sg.validate_state(rho_b_m)
    g = 1.5 * np.eye(n) + _ginibre(rng, n)
    a = _generator(rng, n, 1)
    return [
        ("validate_state", lambda: sg.validate_state(rho_m)),
        ("hermitian_eig", lambda: sg.hermitian_eig(rho_m)),
        ("matrix_exp", lambda: sg.matrix_exp(a)),
        ("phi", lambda: sg.phi(g, rho)),
        ("connect_phi", lambda: sg.connect_phi(rho, rho_b)),
        ("flow", lambda: sg.flow(rho, a, [0.0, 0.5, 1.0])),
        ("fd_tangent_check", lambda: sg.fd_tangent_check(rho, a)),
        ("isotropy_membership_phi", lambda: sg.isotropy_membership_phi(a, rho)),
        ("isotropy_report", lambda: sg.isotropy_report(rho)),
    ]


def _public_calls(sg, rng):
    """Calls of the public functions that the cases leave out, at n = 1 to 5, and
    triangular exponentials whose off-diagonal entries reach 1e300."""
    out = []
    for n in (1, 2, 3, 5):
        k = max(1, n // 2)
        rho = sg.validate_state(_state(rng, n, k))
        g = 1.5 * np.eye(n) + _ginibre(rng, n)
        p = rng.dirichlet(np.ones(n))
        w1, w2 = rng.uniform(0.5, 2.0, (2, n))
        tri = np.triu(_ginibre(rng, n)) + np.diag(rng.uniform(-2.0, 2.0, n))
        tri[0, 1:] *= 10.0 ** rng.uniform(0.0, 300.0, n - 1)

        def triple(rho=rho):
            return sg.gns_construct(rho)

        out += [
            ("maximally_mixed", lambda n=n: sg.maximally_mixed(n)),
            ("gibbs_spectrum", lambda n=n: sg.gibbs_spectrum(n, 0.5)),
            ("gibbs_family", lambda n=n: sg.gibbs_family(n, 0.25)),
            ("embed_classical", lambda p=p: sg.embed_classical(p)),
            ("gns_construct", triple),
            ("gns_construct_abelian", lambda p=p: sg.gns_construct_abelian(p)),
            ("gns_transform", lambda rho=rho, g=g, t=triple: sg.gns_transform(t(), g, rho)),
            ("commutant_dimension", lambda t=triple: sg.commutant_dimension(t())),
            ("purity_check", lambda rho=rho: sg.purity_check(rho)),
            ("hermitian_basis", lambda n=n: sg.hermitian_basis(n)),
            ("isotropy_basis_alpha",
             lambda rho=rho: sg.isotropy_basis_alpha(sg.spectral_split(rho))),
            ("isotropy_basis_phi", lambda rho=rho: sg.isotropy_basis_phi(sg.spectral_split(rho))),
            ("complement_basis_alpha",
             lambda rho=rho: sg.complement_basis_alpha(sg.spectral_split(rho))),
            ("isotropy_dimension_alpha", lambda n=n, k=k: sg.isotropy_dimension_alpha(k, n)),
            ("orbit_dimension", lambda rho=rho: sg.orbit_dimension(sg.spectral_split(rho), "phi")),
            ("orbit_dimension",
             lambda rho=rho: sg.orbit_dimension(sg.spectral_split(rho), "alpha")),
            ("convex_recombine_classical",
             lambda p=p, w1=w1, w2=w2: sg.convex_recombine_classical(p, w1, w2, 0.3)),
            ("matrix_exp triangular", lambda tri=tri: sg.matrix_exp(tri)),
            ("matrix_exp triangular", lambda tri=tri: sg.matrix_exp(tri.T)),
        ]
    spec = {"kind": "gibbs", "ratio": 0.25}, {"kind": "power", "exponent": 1.5}
    out += [
        ("make_spectrum_generator", lambda: sg.make_spectrum_generator(spec[0])),
        ("truncation_sweep", lambda: sg.truncation_sweep(
            sg.make_spectrum_generator(spec[0]), sg.make_spectrum_generator(spec[1]),
            [1, 2, 4, 8, 16, 64])),
        ("truncation_sweep", lambda: sg.truncation_sweep(
            sg.make_spectrum_generator(spec[1]), sg.make_spectrum_generator(spec[0]),
            [2, 3, 5], ceiling=10.0, action="alpha")),
    ]
    return out


def _refusals(sg):
    """(function, expected error class name, call): the refusals the docstrings name."""
    rho = sg.validate_state(np.diag([0.75, 0.25]))
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    edge = 709.9 * np.ones((2, 2)) / 2  # exp(t edge) has finite entries, sigma_max overflows
    huge = 1.7e308 * skew
    return [
        ("validate_positive", "ValidationError", lambda: sg.validate_positive(np.ones((2, 3)))),
        ("validate_positive", "ValidationError",
         lambda: sg.validate_positive(np.diag([1.0, np.nan]))),
        ("validate_positive", "NotHermitian", lambda: sg.validate_positive(skew)),
        ("validate_positive", "NotPSD", lambda: sg.validate_positive(np.diag([1.0, -1.0]))),
        ("validate_positive", "ZeroFunctional", lambda: sg.validate_positive(np.zeros((2, 2)))),
        ("validate_state", "TraceError", lambda: sg.validate_state(np.eye(2))),
        ("validate_probability", "NotPSD", lambda: sg.validate_probability([1.5, -0.5])),
        ("validate_probability", "TraceError", lambda: sg.validate_probability([1.0, 1.0])),
        ("hermitian_eig", "NotHermitian", lambda: sg.hermitian_eig(skew)),
        ("inertia", "ValidationError", lambda: sg.inertia(np.eye(2), -1.0)),
        ("matrix_sqrt_psd", "NotPSD", lambda: sg.matrix_sqrt_psd(np.diag([1.0, -1.0]))),
        ("matrix_exp", "NumericalError", lambda: sg.matrix_exp(800.0 * np.eye(2))),
        ("matrix_exp", "ValidationError", lambda: sg.matrix_exp(np.diag([1.0, np.inf]))),
        ("polar", "Singular", lambda: sg.polar(np.diag([1.0, 0.0]))),
        ("polar", "NumericalError", lambda: sg.polar(huge)),
        ("group_element", "Singular", lambda: sg.group_element(np.diag([1.0, 0.0]))),
        ("group_element", "NumericalError", lambda: sg.group_element(huge)),
        ("group_element", "ValidationError", lambda: sg.group_element(np.eye(3), 2)),
        ("alpha", "NumericalError",
         lambda: sg.alpha(1e200 * np.eye(2), sg.validate_positive(np.diag([1e200, 1.0])))),
        ("phi", "NumericallySingular", lambda: sg.phi(1e-8 * np.eye(2), rho)),
        ("phi", "ValidationError", lambda: sg.phi(np.eye(3), rho)),
        ("denominator", "NumericallySingular", lambda: sg.denominator(1e-8 * np.eye(2), rho)),
        ("denominator", "NumericalError", lambda: sg.denominator(1e200 * np.eye(2), rho)),
        ("unitary_phi", "NotUnitary", lambda: sg.unitary_phi(2.0 * np.eye(2), rho)),
        ("classical_phi", "ZeroWeight", lambda: sg.classical_phi([1.0, 0.0], [0.5, 0.5])),
        ("classical_phi", "ValidationError", lambda: sg.classical_phi([1.0], [0.5, 0.5])),
        ("mix_states", "ValidationError", lambda: sg.mix_states(rho, rho, 2.0)),
        ("connect_alpha", "RankMismatch",
         lambda: sg.connect_alpha(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))),
        ("connect_alpha", "NumericalError",
         lambda: sg.connect_alpha(1.7e308 * np.ones((2, 2)), np.diag([1.0, 0.0]))),
        ("connect_phi", "RankMismatch", lambda: sg.connect_phi(rho, np.diag([1.0, 0.0]))),
        ("bound_constant", "RankMismatch",
         lambda: sg.bound_constant(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))),
        ("same_orbit_alpha", "NotHermitian", lambda: sg.same_orbit_alpha(skew, np.eye(2))),
        ("tangent_phi", "ValidationError", lambda: sg.tangent_phi(rho, np.eye(3))),
        ("tangent_alpha", "NumericalError",
         lambda: sg.tangent_alpha(sg.validate_positive(np.diag([1e300, 1.0])),
                                  1e300 * np.ones((2, 2)))),
        ("covariance", "NotHermitian", lambda: sg.covariance(rho, skew, np.eye(2))),
        ("flow", "ValidationError", lambda: sg.flow(rho, np.eye(2), [])),
        ("flow", "NumericalError", lambda: sg.flow(sg.maximally_mixed(2), edge, [0.0, 1.0])),
        ("flow", "NumericalError", lambda: sg.flow(rho, np.diag([40.0, -40.0]), [0.0, 1.0])),
        ("flow", "NumericallySingular", lambda: sg.flow(rho, -20.0 * np.eye(2), [0.0, 1.0])),
        ("fd_tangent_check", "ValidationError", lambda: sg.fd_tangent_check(rho, skew, 0.0)),
        ("fd_tangent_check", "NumericalError",
         lambda: sg.fd_tangent_check(rho, skew, 1e-300)),
        ("fd_tangent_check", "ValidationError",  # a tangent vector of another dimension
         lambda: sg.fd_tangent_check(sg.maximally_mixed(3), sg.tangent_phi(rho, skew))),
        ("isotropy_membership_alpha", "NumericalError",
         lambda: sg.isotropy_membership_alpha(1e300 * np.ones((2, 2)),
                                              sg.validate_positive(np.diag([1e300, 1.0])))),
        ("isotropy_membership_phi", "TraceError",
         lambda: sg.isotropy_membership_phi(np.eye(2), np.eye(2))),
        ("isotropy_report", "NumericalError",
         lambda: sg.isotropy_report(1.7e308 * np.ones((2, 2)))),
    ]


def _matrix_file(path: Path, m: np.ndarray, kind: str) -> str:
    m = np.asarray(m, dtype=complex)
    entries = [[float(x.real), float(x.imag)] for x in m.ravel()]
    path.write_text(json.dumps({"n": m.shape[0], "kind": kind, "entries": entries}))
    return str(path)


def _cli_calls(rng, tmp: Path):
    """(command, label, call) of every CLI call of the corpus, on files written to tmp."""
    from click.testing import CliRunner

    from stategeom.cli import main

    files = {}
    for n in (2, 4):
        for name, m, kind in ((f"rho{n}", _state(rng, n, n), "state"),
                              (f"low{n}", _state(rng, n, n // 2), "state"),
                              (f"alt{n}", _state(rng, n, n), "state"),
                              (f"g{n}", 1.5 * np.eye(n) + _ginibre(rng, n), "operator"),
                              (f"gen{n}", _generator(rng, n, n), "operator")):
            files[name] = _matrix_file(tmp / f"{name}.json", m, kind)
    files["skew"] = _matrix_file(tmp / "skew.json", [[1.0, 1.0], [0.0, 1.0]], "operator")
    files["edge"] = _matrix_file(tmp / "edge.json", 709.9 * np.ones((2, 2)) / 2, "operator")
    runner = CliRunner()
    out = []
    for n in (2, 4):
        rho, low, rho_b, g, gen = (files[f"{key}{n}"] for key in ("rho", "low", "alt", "g", "gen"))
        out += [
            ("cli validate", ["validate", rho]),
            ("cli validate", ["validate", low]),
            ("cli act", ["act", "alpha", g, rho]),
            ("cli act", ["act", "phi", g, low]),
            ("cli connect", ["connect", "alpha", rho, rho_b]),
            ("cli connect", ["connect", "phi", rho, rho_b]),
            ("cli isotropy", ["isotropy", low]),
            ("cli tangent", ["tangent", rho, gen]),
            ("cli tangent", ["--tol", "10", "tangent", low, gen, "--action", "alpha"]),
            ("cli flow", ["flow", rho, gen, "--t0", "0", "--t1", "1", "--steps", "4"]),
            ("cli flow", ["--format", "json", "flow", low, gen, "--t0", "-1", "--t1", "1",
                          "--steps", "3"]),
        ]
    out += [
        ("cli validate", ["validate", files["skew"]]),
        ("cli flow", ["flow", files["rho2"], files["edge"], "--t0", "0", "--t1", "1",
                      "--steps", "3"]),
    ]
    files["tau"] = _matrix_file(tmp / "tau.json", np.eye(4) / 4.0, "state")
    (tmp / "truncate.json").write_text(json.dumps(
        {"dims": [2, 4, 8], "spec0": {"kind": "gibbs", "ratio": 0.25},
         "spec1": {"kind": "gibbs", "ratio": 0.5}}))
    out += [
        ("cli gns", ["gns", files["rho2"]]),
        ("cli gns", ["gns", files["low4"]]),
        ("cli truncate", ["truncate", str(tmp / "truncate.json")]),
        ("cli truncate", ["--format", "json", "truncate", str(tmp / "truncate.json")]),
        ("cli recombine", ["recombine", files["tau"], files["g4"], files["g4"], "0.25"]),
    ]
    return [(name, " ".join(Path(a).name if a.endswith(".json") else a for a in argv),
             lambda argv=argv: runner.invoke(main, argv)) for name, argv in out]


def calls(rng=None):
    """Every (function, label, tolerance scale, call) of the corpus, in a fixed order.
    The CLI calls need a directory for their files: see ``run``."""
    import stategeom as sg
    from stategeom import isotropy as iso

    rng = np.random.default_rng(20190) if rng is None else rng
    out = []
    cases = itertools.count()
    for n in range(1, 17):
        for k in _ranks(n):
            i = next(cases)
            tol = TOLERANCES[(i // len(SCALES)) % len(TOLERANCES)]
            out += [(name, f"n={n} k={k} i={i}", tol, call)
                    for name, call in _case_calls(sg, iso, n, k, i, rng)]
    out += [(name, "n=64", 1.0, call) for name, call in _large_calls(sg, rng)]
    out += [(name, f"refusal {expected}", 1.0, call)
            for name, expected, call in _refusals(sg)]
    # a stream of their own, so the calls above keep their inputs
    out += [(name, f"public {i}", 1.0, call)
            for i, (name, call) in enumerate(_public_calls(sg, np.random.default_rng(20191)))]
    return out


def refusals() -> list[tuple[str, str]]:
    """(function, expected error class name) of every refusal, in corpus order."""
    import stategeom as sg

    return [(name, expected) for name, expected, _ in _refusals(sg)]


def _invoke(call, tol: float):
    """call() at tolerance scale ``tol`` in a copied context: (value or exception,
    warnings as (category, text))."""
    from stategeom import config
    from stategeom.errors import StateGeomError

    def run():
        config.set_tolerance_scale(tol)
        try:
            return call()
        except (StateGeomError, np.linalg.LinAlgError, ValueError, TypeError) as exc:
            return exc

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = contextvars.copy_context().run(run)
    return value, tuple((w.category.__name__, str(w.message)) for w in caught)


def run() -> list[Record]:
    """Every call of the corpus, library and CLI, as records in a fixed order."""
    rng = np.random.default_rng(20190)
    records = [Record(name, label, tol, *_invoke(call, tol))
               for name, label, tol, call in calls(rng)]
    with tempfile.TemporaryDirectory() as tmp:
        records += [Record(name, label, 1.0, *_invoke(call, 1.0))
                    for name, label, call in _cli_calls(rng, Path(tmp))]
    return records


def reduce(value) -> bytes:
    """The bytes of a result: arrays by dtype, shape and buffer, floats by
    ``float.hex()``, dataclasses field by field, an exception by class and text,
    a CLI result by exit code, stdout and stderr."""
    if isinstance(value, BaseException):
        return f"!{type(value).__name__}: {value}".encode()
    if isinstance(value, np.ndarray):
        return f"<{value.dtype.str}{value.shape}>".encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (bool, np.bool_)):
        return b"T" if value else b"F"
    if isinstance(value, (int, np.integer)):
        return b"i" + str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, Mapping):
        items = sorted(value.items())
        return b"{" + b",".join(reduce(k) + b":" + reduce(v) for k, v in items) + b"}"
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(reduce(v) for v in value) + b")"
    if dataclasses.is_dataclass(value):
        return (type(value).__name__.encode() + b"{"
                + b";".join(reduce(getattr(value, f.name)) for f in dataclasses.fields(value))
                + b"}")
    if hasattr(value, "exit_code") and hasattr(value, "stdout_bytes"):  # click's Result
        return (b"exit %d|" % value.exit_code + value.stdout_bytes + b"|"
                + value.stderr_bytes)
    raise TypeError(f"corpus cannot reduce {type(value).__name__}")


def digests(records: list[Record]) -> dict[str, tuple[str, int]]:
    """function -> (sha256 over its records in order, number of calls)."""
    hashes, counts = {}, {}
    for r in records:
        h = hashes.setdefault(r.function, hashlib.sha256())
        h.update(f"{r.label}|{r.tol!r}|".encode() + reduce(r.value)
                 + repr(r.warned).encode() + b"\n")
        counts[r.function] = counts.get(r.function, 0) + 1
    return {name: (hashes[name].hexdigest(), counts[name]) for name in sorted(hashes)}


def _name(line: str) -> str:
    """The function a line of the corpus is about; the whole line for its footer."""
    parts = line.rsplit(" ", 2)
    return parts[0] if len(parts) == 3 and len(parts[1]) == 64 else line


def differing(base: list[str], change: list[str]) -> list[str]:
    """The lines of two runs' output that the other run does not print as they
    are, in name order: ``- <line>`` for the base run's, ``+ <line>`` for the
    change's; a name that only one run prints counts as differing."""
    old = {_name(line): line for line in base if line.strip()}
    new = {_name(line): line for line in change if line.strip()}
    out = []
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            out += [f"{sign} {lines[name]}" for sign, lines in (("-", old), ("+", new))
                    if name in lines]
    return out


def _run_on(src: Path) -> list[str]:
    """This corpus's output on the package under ``src``, from a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, "--src", str(src)], capture_output=True,
                          text=True, check=True)
    return done.stdout.splitlines()


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1] / "src"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=here,
                        help="directory holding the stategeom package (default: this "
                             "checkout's src)")
    parser.add_argument("--compare", type=Path, metavar="PATH",
                        help="a checkout, or a directory holding stategeom, to compare with "
                             "this checkout's package")
    args = parser.parse_args(argv)
    if args.compare is not None:
        base = args.compare / "src" if (args.compare / "src" / "stategeom").is_dir() \
            else args.compare
        lines = differing(_run_on(base.resolve()), _run_on(here))
        print("\n".join(lines) if lines else "no line differs")
        return 1 if lines else 0
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from conftest import _openblas_kernel

    for name, (digest, count) in digests(run()).items():
        print(f"{name} {digest} {count}")
    print(f"numpy {np.__version__}, OpenBLAS kernel {_openblas_kernel()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
