"""The tolerance policy: every knob in ``stategeom.config`` is read somewhere,
every raising threshold goes through ``config.check``, ``--tol`` moves each
module's decisions, and the scale belongs to the calling context, not the
process."""

import ast
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from stategeom import config
from stategeom.errors import NotTracial, NumericallySingular, Singular, TraceError
from stategeom.errors import ValidationError
from stategeom.states import StateDensity, validate_state


def test_every_config_constant_is_read_outside_config():
    package = Path(config.__file__).resolve().parent
    sources = "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                        if path.name != "config.py")
    constants = [name for name in vars(config) if name.isupper()]
    assert constants
    unread = [name for name in constants if not re.search(rf"\b{name}\b", sources)]
    assert not unread, f"config constants read by no module: {unread}"


# The counting decisions: they compare against a scaled tolerance and count,
# never raise.  Every raising threshold goes through config.check.
COUNTING_DECISIONS = {
    ("states.py", "default_rank_tol"),    # the rank cut, also the abelian support
    ("isotropy.py", "_membership"),       # isotropy membership
    ("tangent.py", "tangent_map_rank"),   # the tangent rank
    ("orbits.py", "same_orbit_alpha"),    # the PSD clamp as a zero band in the signature
    ("linalg.py", "matrix_sqrt_psd"),     # the PSD clamp's near-bound test, which picks the solver
}


def _scaled_call_sites():
    package = Path(config.__file__).resolve().parent
    sites = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "scaled"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "config"):
                    sites.add((path.name, func.name))
    return sites


def test_scaled_is_read_only_by_the_counting_decisions():
    assert _scaled_call_sites() == COUNTING_DECISIONS


class TestCheck:
    def test_ceiling_passes_at_equality_and_returns_the_value(self):
        assert config.check("x", 2.0, 1.0, 2.0, ValueError) == 2.0
        assert config.check("x", -5.0, 1.0, 2.0, ValueError) == -5.0

    def test_ceiling_raises_above_the_bound_with_both_numbers(self):
        with pytest.raises(TraceError, match=r"^defect 2\.500e\+00 exceeds 2\.000e\+00$"):
            config.check("defect", 2.5, 1.0, 2.0, TraceError)

    def test_floor_raises_at_equality(self):
        with pytest.raises(Singular, match=r"^sigma 2\.000e\+00 at or below 2\.000e\+00$"):
            config.check("sigma", 2.0, 1.0, 2.0, Singular, floor=True)
        assert config.check("sigma", 2.5, 1.0, 2.0, Singular, floor=True) == 2.5

    def test_the_tolerance_scale_multiplies_the_bound(self):
        assert config.check("x", 3.0, 1.0, 2.0, ValueError, floor=True) == 3.0
        config.set_tolerance_scale(2.0)
        with pytest.raises(ValueError, match=r"3\.000e\+00 at or below 4\.000e\+00"):
            config.check("x", 3.0, 1.0, 2.0, ValueError, floor=True)
        assert config.check("x", 3.0, 1.0, 2.0, ValueError) == 3.0

    def test_exp2_compares_scaled_and_reports_unscaled(self):
        # the value arrives prescaled by 2^-20, as phi's trace does
        scaled_value = math.ldexp(1e-16, -20)
        with pytest.raises(ValueError, match=r"^t 1\.000e-16 at or below 1\.000e-14$"):
            config.check("t", scaled_value, 1e-14, 1.0, ValueError, floor=True, exp2=20)
        assert config.check("t", math.ldexp(1.0, -20), 1e-14, 1.0, ValueError,
                            floor=True, exp2=20) == math.ldexp(1.0, -20)

    def test_nan_passes_like_the_comparisons_it_replaces(self):
        assert math.isnan(config.check("x", math.nan, 1.0, 1.0, ValueError))
        assert math.isnan(config.check("x", math.nan, 1.0, 1.0, ValueError, floor=True))


def test_no_function_keeps_process_global_state():
    package = Path(config.__file__).resolve().parent
    writers = {(path.name, func.name) for path in sorted(package.glob("*.py"))
               for func in ast.walk(ast.parse(path.read_text()))
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Global)}
    assert writers == set()


def test_each_thread_decides_at_its_own_scale():
    # |trace - 1| = 1.5e-10 fails the trace test at scale 1 and passes at scale 2
    near = np.diag([0.5, 0.5 + 1.5e-10]).astype(complex)
    both_set = threading.Barrier(2, timeout=30)
    outcomes = {}

    def decide(scale):
        config.set_tolerance_scale(scale)
        both_set.wait()
        try:
            outcomes[scale] = validate_state(near)
        except TraceError as exc:
            outcomes[scale] = exc

    threads = [threading.Thread(target=decide, args=(scale,)) for scale in (1.0, 2.0)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert isinstance(outcomes[1.0], TraceError)
    assert isinstance(outcomes[2.0], StateDensity)


def test_a_new_thread_starts_at_scale_one():
    config.set_tolerance_scale(5.0)
    seen = []
    thread = threading.Thread(target=lambda: seen.append(config.scaled(1.0)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and seen == [1.0] and config.scaled(1.0) == 5.0


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_tolerance_scale_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="finite and positive"):
        config.set_tolerance_scale(value)
    assert config.scaled(1.0) == 1.0


def _linalg_polar():
    from stategeom.linalg import polar

    # sigma_min 4e-12 is twice the bound 1e-12 * (1 + sigma_max)
    polar(np.diag([1.0, 4e-12]).astype(complex))


def _states_trace():
    from stategeom.states import validate_state

    validate_state(np.diag([0.5 + 2e-10, 0.5]).astype(complex))


def _actions_denominator():
    from stategeom.actions import denominator
    from stategeom.states import validate_state

    g = np.diag([np.sqrt(2e-14), 1.0]).astype(complex)
    denominator(g, validate_state(np.diag([1.0, 0.0]).astype(complex)))


def _orbits_tracial():
    from stategeom.orbits import require_tracial
    from stategeom.states import validate_state

    require_tracial(validate_state(np.diag([0.5 + 1e-10, 0.5 - 1e-10]).astype(complex)))


def _gns_consistency():
    from stategeom.gns import gns_construct, gns_transform
    from stategeom.states import validate_state

    # rho(g†g) = 3.25 and other(g†g) = 3.25 + 3 delta; 3 delta = 2e-8 * (4.25 + 3 delta)
    delta = 8.5e-8 / (3.0 - 6e-8)
    rho = validate_state(np.diag([0.75, 0.25]).astype(complex))
    other = validate_state(np.diag([0.75 + delta, 0.25 - delta]).astype(complex))
    gns_transform(gns_construct(rho), np.diag([2.0, 1.0]).astype(complex), other)


def _isotropy_gram():
    from stategeom.isotropy import isotropy_basis_alpha
    from stategeom.states import SpectralSplit

    # w = diag(1, x) rotates an orthonormal block basis: Gram bound x^4 = 2e-10
    x = 2e-10 ** 0.25
    split = SpectralSplit(eigenvalues=np.array([1.0]),
                          support_basis=np.array([[1.0], [0.0]], dtype=complex),
                          kernel_basis=np.array([[0.0], [x]], dtype=complex))
    isotropy_basis_alpha(split)


# (decision, exception, whether it fails at the default scale): each input sits
# at twice the default bound, so the decision flips between scales 1 and 10.
@pytest.mark.parametrize("decide, exc, fails_at_default", [
    (_linalg_polar, Singular, False),
    (_states_trace, TraceError, True),
    (_actions_denominator, NumericallySingular, False),
    (_orbits_tracial, NotTracial, True),
    (_gns_consistency, ValidationError, True),
    (_isotropy_gram, ValidationError, False),
], ids=["linalg", "states", "actions", "orbits", "gns", "isotropy"])
def test_tolerance_scale_flips_each_module_decision(decide, exc, fails_at_default):
    for scale, fails in ((1.0, fails_at_default), (10.0, not fails_at_default)):
        config.set_tolerance_scale(scale)
        if fails:
            with pytest.raises(exc, match="exceeds|at or below"):
                decide()
        else:
            decide()
