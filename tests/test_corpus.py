"""The same-bits corpus (``tests/corpus.py``) runs, and every record means what its
function's docstring says: results of the documented types carrying certificates
that hold, refusals of the expected class, errors only from the package's
taxonomy, no warnings.  No digest is pinned: digests move with the BLAS kernel."""

import inspect
import json
import math

import numpy as np
import pytest

import corpus
import stategeom
from stategeom import config
from stategeom.cli import main
from stategeom.errors import NumericalError, StateGeomError, ValidationError
from stategeom.gns import AbelianGnsTriple, GnsTriple
from stategeom.isotropy import RealBasis
from stategeom.orbits import SpectrumGenerator, TruncationReport
from stategeom.states import PositiveFunctional, ProbabilityVector, StateDensity
from test_api import PUBLIC_NAMES

# the functions whose code the small-n work touches, each of which must be covered
TOUCHED = {
    "hermitian_eig", "inertia", "matrix_sqrt_psd", "matrix_exp", "polar",
    "validate_positive", "validate_state", "spectral_split", "classify_orbit",
    "group_element", "alpha", "phi", "denominator", "nonconvexity_witness",
    "connect_alpha", "connect_phi", "same_orbit_alpha", "bound_constant",
    "tangent_phi", "tangent_alpha", "flow", "fd_tangent_check",
    "isotropy_membership_alpha", "isotropy_membership_phi", "isotropy_report",
    "hermitian_components",
    "cli validate", "cli act", "cli connect", "cli isotropy", "cli tangent", "cli flow",
}


@pytest.fixture(scope="module")
def records():
    return corpus.run()


def hermitian_defect_ok(m, tol):
    """||m - m†||_F within HERMITIAN_RTOL (1 + ||m||_F) (and 1% for rounding), taken on
    m / max|m|, so neither norm overflows."""
    top = float(np.max(np.abs(m)))
    m = np.asarray(m) / top
    bound = 1.01 * config.HERMITIAN_RTOL * tol * (1.0 / top + np.linalg.norm(m))
    return np.linalg.norm(m - m.conj().T) <= bound


def state_ok(s, tol):
    m = s.matrix
    slack = (m.shape[0] + 1) * 2.0 ** -52
    return (type(s) is StateDensity and not m.flags.writeable and hermitian_defect_ok(m, tol)
            and abs(np.trace(m).real - 1.0) <= config.TRACE_ATOL * tol + slack)


def functional_ok(f, tol):
    return isinstance(f, PositiveFunctional) and hermitian_defect_ok(f.matrix, tol)


def exactly_hermitian(m):
    return isinstance(m, np.ndarray) and np.array_equal(m, m.conj().T)


def unitary_ok(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-9


def certificate_ok(c, tol, target_norm=math.inf):
    """sqrt(C + 1) bounds ||g||_op, and the residual is finite, below its guard's bound
    CONNECT_RESIDUAL_RTOL (1 + ||target||_F) where the target's norm is known."""
    return (c.norm_bound == math.sqrt(c.bound_constant + 1.0)
            and c.g.sigma_max - c.norm_bound <= config.NORM_BOUND_SLACK * tol * c.norm_bound
            and 0.0 <= c.achieved_residual
            <= config.CONNECT_RESIDUAL_RTOL * tol * (1.0 + target_norm))


def isotropy_dimension(report):
    """k^2 + 2(n - k)^2 + 2k(n - k) at support dimension k of n."""
    n, k = math.isqrt(report.ambient_dim // 2), report.support_dim
    return k * k + 2 * (n - k) ** 2 + 2 * k * (n - k)


CHECKS = {
    "hermitian_eig": lambda r, t: (np.all(np.diff(r.eigenvalues) <= 0.0)
                                   and unitary_ok(r.eigenvectors)),
    "inertia": lambda r, t: isinstance(r, tuple) and len(r) == 3 and min(r) >= 0,
    "matrix_sqrt_psd": lambda r, t: exactly_hermitian(r),
    "matrix_exp": lambda r, t: r.dtype == complex and np.all(np.isfinite(r)),
    "polar": lambda r, t: unitary_ok(r[0]) and exactly_hermitian(r[1]),
    "validate_positive": lambda r, t: functional_ok(r, t) and not r.matrix.flags.writeable,
    "validate_state": state_ok,
    "validate_probability": lambda r, t: (isinstance(r, ProbabilityVector)
                                          and abs(r.p.sum() - 1.0) <= 1e-12 * t + 1e-15),
    "spectral_split": lambda r, t: unitary_ok(r.full_basis()) and np.all(r.eigenvalues > 0.0),
    "classify_orbit": lambda r, t: r.tag == f"FiniteRank({r.rank})",
    "group_element": lambda r, t: 0.0 < r.sigma_min <= r.sigma_max,
    "alpha": lambda r, t: functional_ok(r, t) or exactly_hermitian(r),
    "phi": state_ok,
    "denominator": lambda r, t: isinstance(r, float) and r > 0.0,
    "unitary_phi": state_ok,
    "classical_phi": lambda r, t: isinstance(r, ProbabilityVector),
    "mix_states": state_ok,
    "nonconvexity_witness": lambda r, t: isinstance(r, float) and r >= 0.0,
    "connect_alpha": certificate_ok,
    "connect_phi": lambda r, t: certificate_ok(r, t, 1.0),  # a state has ||rho||_F <= 1
    "bound_constant": lambda r, t: isinstance(r, float) and r > 0.0,
    "same_orbit_alpha": lambda r, t: isinstance(r, bool),
    "tracial_orbit_point": state_ok,
    "convex_recombine": lambda r, t: 0.0 < r[0].sigma_min and r[1] >= 0.0,
    "tangent_alpha": lambda r, t: exactly_hermitian(r.value),
    "tangent_phi": lambda r, t: (abs(np.trace(r.value)) <= 1e-12 * (1.0 + np.linalg.norm(r.value))
                                 and not r.value.flags.writeable),
    "covariance": lambda r, t: isinstance(r, float) and math.isfinite(r),
    "flow": lambda r, t: len(r) in (3, 4) and all(state_ok(s, t) for s in r),
    "fd_tangent_check": lambda r, t: isinstance(r, float) and 0.0 <= r < 1.0,
    "tangent_map_rank": lambda r, t: isinstance(r, int) and r >= 0,
    "isotropy_membership_alpha": lambda r, t: isinstance(r[0], bool) and r[1] >= 0.0,
    "isotropy_membership_phi": lambda r, t: isinstance(r[0], bool) and r[1] >= 0.0,
    "isotropy_report": lambda r, t: (r.dim_phi == r.dim_alpha + 1
                                     and r.dim_alpha + r.dim_complement == r.ambient_dim
                                     and r.dim_alpha == isotropy_dimension(r)
                                     and 0.0 <= r.max_residual < math.inf),
    "hermitian_components": lambda r, t: r.dtype == float and r.ndim == 1,
    "matrix_exp triangular": lambda r, t: r.dtype == complex and np.all(np.isfinite(r)),
    "maximally_mixed": state_ok,
    "gibbs_spectrum": lambda r, t: (r.ndim == 1 and abs(r.sum() - 1.0) <= 1e-12
                                    and np.all(np.diff(r) < 0.0)),
    "gibbs_family": state_ok,
    "embed_classical": state_ok,
    "gns_construct": lambda r, t: (isinstance(r, GnsTriple)
                                   and abs(np.linalg.norm(r.cyclic) - 1.0) <= 1e-12),
    "gns_transform": lambda r, t: (isinstance(r, GnsTriple)
                                   and abs(np.linalg.norm(r.cyclic) - 1.0) <= 1e-12),
    "gns_construct_abelian": lambda r, t: (isinstance(r, AbelianGnsTriple)
                                           and r.dim == r.support.size
                                           and abs(np.linalg.norm(r.cyclic) - 1.0) <= 1e-12),
    "commutant_dimension": lambda r, t: isinstance(r, int) and r >= 1,
    "purity_check": lambda r, t: isinstance(r, bool),
    "hermitian_basis": lambda r, t: (len(r) == r[0].shape[0] ** 2
                                     and all(exactly_hermitian(m) for m in r)),
    "isotropy_basis_alpha": lambda r, t: isinstance(r, RealBasis) and r.gram_floor > 0.0,
    "isotropy_basis_phi": lambda r, t: isinstance(r, RealBasis) and r.gram_floor > 0.0,
    "complement_basis_alpha": lambda r, t: isinstance(r, RealBasis) and r.gram_floor > 0.0,
    "isotropy_dimension_alpha": lambda r, t: isinstance(r, int) and r >= 0,
    "orbit_dimension": lambda r, t: isinstance(r, int) and r >= 0,
    "convex_recombine_classical": lambda r, t: np.all(r[0] > 0.0) and 0.0 <= r[1] <= 1e-12,
    "make_spectrum_generator": lambda r, t: isinstance(r, SpectrumGenerator),
    "truncation_sweep": lambda r, t: (isinstance(r, TruncationReport)
                                      and len(r.dims) == len(r.bound_constants)),
}


def test_the_corpus_covers_every_touched_function(records):
    assert TOUCHED <= {r.function for r in records}
    assert {r.function for r in records if not r.function.startswith("cli")} <= set(CHECKS)


def test_the_corpus_covers_every_public_function_and_command(records):
    # a line for each public function of stategeom and one for each CLI command,
    # read off the records this module's tests share
    functions = {name for name in PUBLIC_NAMES if inspect.isfunction(getattr(stategeom, name))}
    commands = {f"cli {name}" for name in main.commands}
    covered = {r.function for r in records}
    assert functions - covered == set()
    assert commands - covered == set()


def test_differing_prints_only_the_lines_that_differ():
    digest = {c: c * 64 for c in "abcde"}
    base = [f"alpha {digest['a']} 3", f"matrix_exp {digest['b']} 5",
            f"cli act {digest['c']} 2", f"gone {digest['d']} 1",
            "numpy 2.0, OpenBLAS kernel X", ""]
    change = [f"alpha {digest['a']} 3", f"matrix_exp {digest['e']} 5",
              f"cli act {digest['c']} 3", f"matrix_exp triangular {digest['d']} 1",
              "numpy 2.0, OpenBLAS kernel X"]
    assert corpus.differing(base, change) == [
        f"- cli act {digest['c']} 2", f"+ cli act {digest['c']} 3",
        f"- gone {digest['d']} 1",
        f"- matrix_exp {digest['b']} 5", f"+ matrix_exp {digest['e']} 5",
        f"+ matrix_exp triangular {digest['d']} 1",
    ]
    assert corpus.differing(base, base) == []
    assert corpus.differing(change, list(reversed(change))) == []


def test_each_refusal_raises_the_class_its_docstring_names(records):
    raised = [r for r in records if r.label.startswith("refusal")]
    assert [(r.function, type(r.value).__name__) for r in raised] == corpus.refusals()


def test_every_error_is_the_packages_and_nothing_warns(records):
    for r in records:
        assert r.warned == (), (r.function, r.label, r.warned)
        if isinstance(r.value, BaseException):
            assert isinstance(r.value, StateGeomError), (r.function, r.label, r.value)
            assert isinstance(r.value, (ValidationError, NumericalError))


def test_every_result_carries_its_certificate(records):
    for r in records:
        if r.function.startswith("cli") or isinstance(r.value, BaseException):
            continue
        assert CHECKS[r.function](r.value, r.tol), (r.function, r.label)


def test_members_are_members(records):
    # the second membership call of each case asks i xi at xi, or I + i rho at rho:
    # generators in the isotropy algebras
    for name in ("isotropy_membership_alpha", "isotropy_membership_phi"):
        found = [r for r in records if r.function == name and " k=" in r.label]
        members = [r.value for r in found[1::2] if not isinstance(r.value, BaseException)]
        assert members and all(member for member, _ in members)


def test_cli_exits_0_2_or_3_with_one_line_of_taxonomy(records):
    for r in (r for r in records if r.function.startswith("cli")):
        result = r.value
        assert result.exit_code in (0, 2, 3), (r.label, result.output)
        assert b"Traceback" not in result.stdout_bytes + result.stderr_bytes
        if result.exit_code:
            lines = result.stderr_bytes.decode().splitlines()
            assert len(lines) == 1 and lines[0].split(":")[0] in {
                cls.__name__ for cls in StateGeomError.__subclasses__()
                + ValidationError.__subclasses__() + NumericalError.__subclasses__()}
        elif r.function == "cli flow" and "--format json" not in r.label:
            assert result.stdout.startswith("t,")
        elif r.function == "cli truncate" and "--format json" not in r.label:
            assert result.stdout.startswith("n,C,")
        else:
            json.loads(result.stdout)


def test_digests_are_one_line_per_function(records):
    lines = corpus.digests(records)
    assert set(lines) == {r.function for r in records}
    assert all(len(digest) == 64 and count > 0 for digest, count in lines.values())
