"""Inputs at the top of double range are served or refused with one error and no
numpy warning.

The trace and sum tests take an overflowing total as inf and refuse it
themselves, so the CLI holds no overflow logic of its own; the Hermitian gate
decides on a power-of-two rescale where a - a† or the scale overflows; and
every command, run on such files with warnings as errors, exits 0, 2 or 3 with
one stderr line.
"""

import ast
import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import matrix_text
from stategeom import config, errors
from stategeom.actions import alpha, group_element, unitary_phi
from stategeom.cli import main
from stategeom.errors import NotHermitian, NotPSD, NotUnitary, NumericalError, TraceError
from stategeom.isotropy import (complement_basis_alpha, isotropy_basis_alpha, isotropy_basis_phi,
                                isotropy_report)
from stategeom.linalg import (frobenius, hermitian_eig, inertia, matrix_sqrt_psd, polar,
                              require_hermitian)
from stategeom.orbits import bound_constant, connect_alpha, same_orbit_alpha
from stategeom.states import (maximally_mixed, validate_positive, validate_probability,
                              validate_state)

PACKAGE = Path(config.__file__).resolve().parent
# positive, with a finite norm (1.6e308) and a trace (2.28e308) that overflows
OVERFLOW = np.diag([1.2e308, 1.08e308]).astype(complex)
# anti-Hermitian with a finite norm of 1.27e308: m - m† overflows
ANTI = np.array([[0.0, 0.9e308], [-0.9e308, 0.0]], dtype=complex)
# not Hermitian, with a norm of 2e308 that overflows
WIDE = np.array([[1e308, 1e308], [-1e308, 1e308]], dtype=complex)
# positive and indefinite, each with a norm of 2.1e308 that overflows
HUGE_PSD = np.diag([1.5e308, 1.5e308]).astype(complex)
HUGE_INDEFINITE = np.diag([1.5e308, -1.5e308]).astype(complex)
# finite entries whose largest eigenvalue (2e308) overflows: rank 1, spectrum [inf]
HUGE_SPECTRUM = 1e308 * np.ones((2, 2), dtype=complex)


def _functions(module):
    return [func for func in ast.walk(ast.parse((PACKAGE / module).read_text()))
            if isinstance(func, ast.FunctionDef)]


def test_the_cli_enters_no_errstate():
    # overflow is decided by the library functions the commands call
    entered = {func.name for func in _functions("cli.py") for node in ast.walk(func)
               if isinstance(node, ast.Attribute) and node.attr == "errstate"}
    assert entered == set()


def test_only_entry_parsing_catches_overflow_error():
    # a value that leaves double range is refused through linalg.in_range
    catchers = {(path.name, func.name) for path in sorted(PACKAGE.glob("*.py"))
                for func in _functions(path.name) for node in ast.walk(func)
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "OverflowError" in {sub.id for sub in ast.walk(node.type)
                                        if isinstance(sub, ast.Name)}}
    assert catchers == {("serialize.py", "_decode_matrix")}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: validate_state(OVERFLOW),
    lambda: validate_probability([1e308, 1e308]),
    lambda: validate_probability(np.full(5, 0.5e308)),
], ids=["trace", "sum-of-two", "sum-of-five"])
def test_a_total_that_overflows_is_a_trace_error(call):
    with pytest.raises(TraceError, match=r"^\|(trace|sum) - 1\| inf exceeds "):
        call()


def test_a_huge_probability_vector_that_sums_finitely_reports_its_sum():
    with pytest.raises(TraceError, match=r"^\|sum - 1\| 1\.000e\+308 exceeds "):
        validate_probability([1e308, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [ANTI, WIDE], ids=["anti-hermitian", "norm-overflows"])
@pytest.mark.parametrize("call", [
    require_hermitian,
    validate_positive,
    validate_state,
    hermitian_eig,
    matrix_sqrt_psd,
    lambda m: inertia(m, 0.0),
    lambda m: alpha(np.eye(2), m),
], ids=["require_hermitian", "validate_positive", "validate_state", "hermitian_eig",
        "matrix_sqrt_psd", "inertia", "alpha"])
def test_a_non_hermitian_matrix_is_refused_at_every_scale(call, matrix):
    with pytest.raises(NotHermitian, match=r"^Hermitian defect of [a-z ]+ / 2\^3, "):
        call(matrix)


@pytest.mark.filterwarnings("error")
def test_a_positive_functional_whose_norm_overflows_validates():
    assert np.array_equal(validate_positive(HUGE_PSD).matrix, HUGE_PSD)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [validate_positive, matrix_sqrt_psd],
                         ids=["validate_positive", "matrix_sqrt_psd"])
def test_an_indefinite_matrix_whose_norm_overflows_is_not_psd(call):
    with pytest.raises(NotPSD, match=r"^-\(smallest eigenvalue\) 1\.500e\+308 exceeds "
                                     r"1\.798e\+298$"):
        call(HUGE_INDEFINITE)


@pytest.mark.filterwarnings("error")
def test_congruence_orbits_whose_norms_overflow_follow_inertia():
    partial = np.diag([1.5e308, 1.5e308, 0.0]).astype(complex)
    full = np.diag([1.5e308, 1.5e308, 1.5e308]).astype(complex)
    assert (inertia(partial, 0.0), inertia(full, 0.0)) == ((2, 1, 0), (3, 0, 0))
    assert not same_orbit_alpha(partial, full)
    assert same_orbit_alpha(full, full)


@pytest.mark.parametrize("entry", [np.inf, complex(np.inf, 0.0), complex(-np.inf, 1.0),
                                   complex(0.0, np.inf), complex(np.inf, -np.inf)])
def test_frobenius_of_an_infinite_entry_is_inf(entry):
    assert frobenius(np.array([[entry, 1.0]])) == np.inf


@pytest.mark.filterwarnings("error")
def test_a_unitary_candidate_whose_square_overflows_is_not_unitary():
    with pytest.raises(NotUnitary, match=r"^\|\|u†u - I\|\|_F inf exceeds 1\.000e-10$"):
        unitary_phi(1e200 * np.eye(2), maximally_mixed(2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [OVERFLOW, np.diag(np.full(9, 5.9e307)).astype(complex)],
                         ids=["n2", "n9-half-trace-overflows"])
def test_isotropy_report_normalizes_a_trace_that_overflows(matrix):
    n = matrix.shape[0]
    report = isotropy_report(validate_positive(matrix))
    scaled = isotropy_report(validate_positive(matrix / 2.0 ** 600))
    assert (report.support_dim, report.dim_alpha, report.dim_phi) == (n, n * n, n * n + 1)
    # rho = xi / Tr xi is the same state at both scales; only the raw bound scales
    assert np.isfinite(report.max_residual)
    assert report.max_residual >= scaled.max_residual


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [connect_alpha, bound_constant],
                         ids=["connect_alpha", "bound_constant"])
def test_an_eigenvalue_ratio_that_overflows_is_a_numerical_error(call):
    small, huge = validate_positive(np.diag([0.75, 0.25])), validate_positive(OVERFLOW)
    with pytest.raises(NumericalError, match="^eigenvalue ratio overflows double precision$"):
        call(small, huge)


# rank 1 with spectrum [inf], and rank 2 with spectrum [inf, 1e307]
OVERFLOWING_SPECTRA = {
    **{f"{c:g}-ones-n{n}": c * np.ones((n, n)) for c in (1e308, 1.7e308) for n in (2, 3, 4)},
    "5e+307-ones-n4": 5e307 * np.ones((4, 4)),
    "rank-2": np.array([[1e308, 0.9e308], [0.9e308, 1e308]]),
}
BASES = [isotropy_basis_alpha, complement_basis_alpha, isotropy_basis_phi]


def _against_partner(connect, rank, n):
    """``connect`` from its argument to diag(1, ..., 1, 0, ...) of the given rank and dimension."""
    partner = np.diag([1.0] * rank + [0.0] * (n - rank))

    def call(xi):
        return connect(xi, validate_positive(partner))

    call.__name__ = connect.__name__
    return call


def _overflowing_spectrum_calls():
    for name, matrix in OVERFLOWING_SPECTRA.items():
        # a rank-1 basis reads no eigenvalue, so only the rank-2 one overflows
        calls = [isotropy_report, matrix_sqrt_psd] + (BASES if name == "rank-2" else [])
        # the ratio to a finite partner of the same rank is finite (1 / inf is 0)
        rank = 2 if name == "rank-2" else 1
        calls += [_against_partner(connect, rank, len(matrix))
                  for connect in (connect_alpha, bound_constant)]
        yield from (pytest.param(call, matrix, id=f"{call.__name__}-{name}") for call in calls)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, matrix", _overflowing_spectrum_calls())
def test_an_eigenvalue_that_overflows_is_a_numerical_error(call, matrix):
    xi = validate_positive(matrix)
    assert not np.isfinite(hermitian_eig(xi.matrix).eigenvalues).all()
    with pytest.raises(NumericalError, match="^eigenvalue overflows double precision$"):
        call(xi)


@pytest.mark.filterwarnings("error")
def test_a_trace_that_overflows_is_a_numerical_error():
    # entries of 1.08e308, trace 2.16e308
    xi = validate_positive(1.2e308 * np.diag([0.9, 0.9]))
    with pytest.raises(NumericalError, match="^trace overflows double precision$"):
        xi.trace


# singular values 2.74e308 (overflows) and 1.05e308: condition 2.618
HUGE_ELEMENT = 1.7e308 * np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [group_element, polar], ids=["group_element", "polar"])
def test_a_singular_value_that_overflows_is_a_numerical_error(call):
    with pytest.raises(NumericalError, match="^singular value overflows double precision$"):
        call(HUGE_ELEMENT)


# sha256 of the bases of the rank-1 OVERFLOWING_SPECTRA, then of the bases, the square
# root and the report's max_residual of the SERVED inputs, pinned from the code without
# the eigenvalue-overflow refusal, which must change none of them (a different LAPACK
# build may change the bits)
SERVED = [5e307 * np.ones((2, 2)), np.diag([1.5e308, 1.5e308])]
SERVED_PIN = "ec50c626b23f6d285992cff846a0711f532327987bf8752c9726a769c966f051"


@pytest.mark.filterwarnings("error")
def test_a_finite_spectrum_and_a_rank_1_basis_keep_their_bits():
    rank_1 = [m for name, m in OVERFLOWING_SPECTRA.items() if name != "rank-2"]
    digest = hashlib.sha256()
    for matrix in rank_1 + SERVED:
        for basis in (build(validate_positive(matrix)) for build in BASES):
            digest.update(np.array(basis.vectors).tobytes())
            digest.update(np.float64(basis.gram_floor).tobytes())
    for matrix in SERVED:
        xi = validate_positive(matrix)
        digest.update(matrix_sqrt_psd(xi).tobytes())
        digest.update(np.float64(isotropy_report(xi).max_residual).tobytes())
    assert digest.hexdigest() == SERVED_PIN


@pytest.fixture
def sweep_files(tmp_path):
    def write(name, matrix, kind="operator"):
        path = tmp_path / f"{name}.json"
        path.write_text(matrix_text(matrix, kind))
        return str(path)

    return {
        "overflow": write("overflow", OVERFLOW),
        "overflow-positive": write("overflow-positive", OVERFLOW, "positive"),
        "anti-hermitian": write("anti", ANTI),
        "norm-overflows": write("wide", WIDE),
        "psd-norm-overflows": write("huge-psd", HUGE_PSD),
        "indefinite-norm-overflows": write("huge-indefinite", HUGE_INDEFINITE),
        "spectrum-overflows": write("huge-spectrum", HUGE_SPECTRUM, "positive"),
        "g": write("g", np.diag([1.5, 0.5])),
        "identity": write("identity", np.eye(2)),
        "state": write("state", np.diag([0.75, 0.25]), "state"),
        "gen": write("gen", np.array([[0.2, 0.1 + 0.3j], [0.4 - 0.1j, -0.2]])),
    }


COMMANDS = {
    "validate": ["validate", "{x}"],
    "act-alpha": ["act", "alpha", "{g}", "{x}"],
    "act-phi": ["act", "phi", "{g}", "{x}"],
    "connect-alpha": ["connect", "alpha", "{x}", "{state}"],
    "connect-alpha-to": ["connect", "alpha", "{state}", "{x}"],
    "connect-phi": ["connect", "phi", "{x}", "{state}"],
    "connect-phi-to": ["connect", "phi", "{state}", "{x}"],
    "isotropy": ["isotropy", "{x}"],
    "tangent-alpha": ["tangent", "--action", "alpha", "{x}", "{gen}"],
    "tangent-phi": ["tangent", "--action", "phi", "{x}", "{gen}"],
    "flow": ["flow", "{x}", "{gen}", "--t0", "0", "--t1", "1", "--steps", "3"],
    "gns": ["gns", "{x}"],
    "recombine": ["recombine", "{x}", "{identity}", "{g}", "0.5"],
}
FILES = ["overflow", "overflow-positive", "anti-hermitian", "norm-overflows",
         "psd-norm-overflows", "indefinite-norm-overflows", "spectrum-overflows"]
TAXONOMY = {name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, Exception)}


def _invoke(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CliRunner().invoke(main, args)


@pytest.mark.parametrize("file", FILES)
@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_every_command_serves_or_refuses_with_one_line(sweep_files, command, file):
    files = {**sweep_files, "x": sweep_files[file]}
    result = _invoke([arg.format(**files) for arg in command])
    assert result.exit_code in (0, 2, 3), (result.exception, result.output)
    if result.exit_code == 0:
        assert result.stdout and result.stderr == ""
        return
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].split(":")[0] in TAXONOMY, result.stderr
    if file in ("anti-hermitian", "norm-overflows"):
        assert lines[0].startswith("NotHermitian: "), lines


@pytest.mark.parametrize("command", ["act-phi", "connect-phi", "gns", "flow", "tangent-phi",
                                     "recombine"])
def test_a_state_whose_trace_overflows_exits_2_with_one_trace_error(sweep_files, command):
    files = {**sweep_files, "x": sweep_files["overflow"]}
    result = _invoke([arg.format(**files) for arg in COMMANDS[command]])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "TraceError: |trace - 1| inf exceeds 1.000e-10\n"


@pytest.mark.parametrize("command, message", [
    (["connect", "alpha", "{x}", "{pure}"], "eigenvalue"),
    (["connect", "alpha", "{pure}", "{x}"], "eigenvalue"),
    (["act", "alpha", "{huge_g}", "{state}"], "singular value"),
    (["act", "phi", "{huge_g}", "{state}"], "singular value"),
], ids=["connect-alpha", "connect-alpha-to", "act-alpha", "act-phi"])
def test_an_overflowed_eigenvalue_or_singular_value_exits_3(sweep_files, tmp_path, command,
                                                            message):
    # the value is a finite invertible element or functional; only a double cannot
    # hold its norm, so it is not Singular
    pure = tmp_path / "pure.json"
    pure.write_text(matrix_text(np.diag([1.0, 0.0]), "positive"))
    huge_g = tmp_path / "huge-g.json"
    huge_g.write_text(matrix_text(HUGE_ELEMENT))
    files = {**sweep_files, "x": sweep_files["spectrum-overflows"], "pure": str(pure),
             "huge_g": str(huge_g)}
    result = _invoke([arg.format(**files) for arg in command])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"NumericalError: {message} overflows double precision\n"
