"""The package's own Python calls per call at n = 4, pinned as upper bounds, as
``SOLVER_COUNTS`` in ``tests/test_cli.py`` pins eigensolver calls.

Each function is called on seeded inputs, twice before it is counted, so a validated
value's eigen-record exists as it does in a benchmark pass; the count is the calls
cProfile records, in one more call, of functions whose code lies in the package.
numpy's own frames (its linalg wrappers, ``np.errstate``, array-function dispatchers)
and builtins are left out: they change with the numpy release, and the package does
not control them.  The package's frames do not, so the bounds are the counts read at
numpy 2.4.6, with no margin.  Before the shared helpers formed each norm, scale,
reduction and per-flow bound once, ``flow`` took 353 such calls here,
``fd_tangent_check`` 106, ``isotropy_report`` 83 and ``connect_phi`` 56.  cProfile's
total, numpy's frames included, is recorded in CHANGES.md by each change that moves it.
"""

import cProfile
from pathlib import Path

import numpy as np
import pytest

import stategeom as sg
from sampling import random_direction, random_hermitian, random_invertible, random_state
from stategeom.isotropy import hermitian_components

PACKAGE = Path(sg.__file__).parent


def _inputs():
    rng = np.random.default_rng(2019)
    rho, rho_b, rho_o = random_state(rng, 4), random_state(rng, 4), random_state(rng, 4, 2)
    return {"rho": rho, "rho_b": rho_b, "rho_o": rho_o, "g": random_invertible(rng, 4),
            "a": random_direction(rng, 4, 0.5), "h": random_hermitian(rng, 4),
            "p": rng.dirichlet(np.ones(4)), "w": rng.uniform(0.5, 2.0, 4)}


# function -> (call on the inputs, the package's Python calls per call at most)
CALLS = {
    "phi": (lambda x: sg.phi(x["g"], x["rho"]), 37),
    "alpha": (lambda x: sg.alpha(x["g"], x["rho"]), 27),
    "group_element": (lambda x: sg.group_element(x["g"]), 7),
    "validate_state": (lambda x: sg.validate_state(x["rho"].matrix), 22),
    "hermitian_eig": (lambda x: sg.hermitian_eig(x["h"]), 13),
    "matrix_exp": (lambda x: sg.matrix_exp(x["a"]), 9),
    "connect_phi": (lambda x: sg.connect_phi(x["rho"], x["rho_b"]), 49),
    "connect_alpha": (lambda x: sg.connect_alpha(x["rho"], x["rho_b"]), 45),
    "same_orbit_alpha": (lambda x: sg.same_orbit_alpha(x["rho"].matrix, x["rho_o"].matrix), 32),
    "spectral_split": (lambda x: sg.spectral_split(x["rho"]), 7),
    "classical_phi": (lambda x: sg.classical_phi(x["w"], x["p"]), 13),
    "tangent_phi": (lambda x: sg.tangent_phi(x["rho"], x["a"]), 14),
    "fd_tangent_check": (lambda x: sg.fd_tangent_check(x["rho"], x["a"]), 93),
    "flow": (lambda x: sg.flow(x["rho"], x["a"], np.linspace(0.0, 1.0, 10)), 295),
    "isotropy_membership_alpha": (lambda x: sg.isotropy_membership_alpha(x["a"], x["rho"]), 17),
    "isotropy_membership_phi": (lambda x: sg.isotropy_membership_phi(x["a"], x["rho"]), 18),
    "hermitian_components": (lambda x: hermitian_components(x["h"]), 1),
    "isotropy_report": (lambda x: sg.isotropy_report(x["rho"]), 55),
}


def python_calls(call) -> int:
    """The calls cProfile records in one call of ``call``, after two warm-up calls, of
    functions whose code file lies in the package, summed over its raw entries."""
    call()
    call()
    profile = cProfile.Profile()
    profile.enable()
    call()
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()
               if Path(getattr(entry.code, "co_filename", "")).is_relative_to(PACKAGE))


@pytest.mark.parametrize("name", CALLS)
def test_python_calls_per_call_at_n4(name):
    call, bound = CALLS[name]
    x = _inputs()
    assert python_calls(lambda: call(x)) <= bound
