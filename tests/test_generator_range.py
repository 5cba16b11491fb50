"""Generators whose powers leave double range while t a stays in it.

A flow shares the powers of its generator across its points, so they must stay
finite however large or small a is: each flow below returns the point of the
unit generator X at t = 1, to the forward bound of the exponential, or raises
the NumericalError that names t, and through the CLI that error exits 3 with
one stderr line.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import matrix_text
from stategeom import flow, validate_state
from stategeom.cli import main
from stategeom.errors import NumericalError
from stategeom.linalg import gamma
from stategeom.tangent import fd_tangent_check

X = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
RHO = validate_state(np.diag([0.75, 0.25]).astype(complex))


def _tolerance(x):
    """Four times the exponential's forward bound at n = 2, x = |t| ||a||_F."""
    return 4.0 * gamma(16) * (2.0 + (1.0 + math.sqrt(2.0)) * x) * math.exp(x)


@pytest.mark.parametrize("scale, t", [(1e200, 1e-200), (1e160, 1e-160), (1e-200, 1e200)])
def test_huge_or_tiny_generator_gives_the_unit_point(scale, t):
    unit = flow(RHO, X, [1.0])[0].matrix
    point = flow(RHO, scale * X, [t])[0].matrix
    assert np.linalg.norm(point - unit) <= _tolerance(np.linalg.norm(X))


def test_zero_generator_stays_at_rho():
    for point in flow(RHO, np.zeros((2, 2)), [0.0, 1.0]):
        assert np.linalg.norm(point.matrix - RHO.matrix) <= _tolerance(0.0)


def test_generator_at_the_top_of_range_names_t():
    unusable = r"^exp\(t a\) is not numerically usable at t = "
    with pytest.raises(NumericalError, match=unusable + r"1e-05: "):
        fd_tangent_check(RHO, 1e308 * X)
    with pytest.raises(NumericalError, match=unusable + r"1\.0: "):
        flow(RHO, 1e308 * X, [0.0, 1.0])


@pytest.mark.parametrize("args", [
    ["tangent", "--action", "phi", "{state}", "{gen}"],
    ["flow", "{state}", "{gen}", "--t0", "1", "--t1", "1", "--steps", "1"],
], ids=["tangent", "flow"])
def test_cli_exits_3_with_one_line(tmp_path, args):
    state = tmp_path / "state.json"
    state.write_text(matrix_text(RHO.matrix, "state"))
    gen = tmp_path / "gen.json"
    gen.write_text(matrix_text(1e308 * X, "operator"))
    result = CliRunner().invoke(main, [arg.format(state=state, gen=gen) for arg in args])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("NumericalError: exp(t a) is not numerically usable at t = ")
