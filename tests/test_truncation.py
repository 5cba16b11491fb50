"""The truncation sweep from its diagonal closed form.

The bound constants and operator norms of fixed grids are pinned to the bits
the dense connection (validate, eigh, SVD, phi) gave; the pins live in
``truncation_pins.json`` and ``python tests/test_truncation.py`` prints the
current values in the same format.  The rest covers what only the closed
form reaches: rows past the conditioning limit, a bound constant that
overflows, and dimensions up to 10^6.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stategeom.cli import main
from stategeom.errors import ValidationError
from stategeom.orbits import make_spectrum_generator, truncation_sweep

PINS = Path(__file__).with_name("truncation_pins.json")

_GIBBS_LOW = {"kind": "gibbs", "ratio": 0.25}
_GIBBS_HALF = {"kind": "gibbs", "ratio": 0.5}
_UNIFORM = {"kind": "uniform"}
_POWER = {f"power{e:g}": {"kind": "power", "exponent": e} for e in (1.0, 2.0)}
_DOUBLING = [2, 4, 8, 16, 32, 64]


def _cases():
    """(name, spec0, spec1, dims, seed) for every pinned grid; each runs under
    both actions."""
    cases = [
        ("readme", _GIBBS_LOW, _GIBBS_HALF, _DOUBLING, None),
        ("criterion10-same", _GIBBS_HALF, _GIBBS_HALF, _DOUBLING, None),
        ("decaying", _GIBBS_HALF, _GIBBS_LOW, _DOUBLING, None),
    ]
    kinds = {"uniform": _UNIFORM, **_POWER}
    for name0, spec0 in kinds.items():
        for name1, spec1 in kinds.items():
            cases.append((f"{name0}-{name1}", spec0, spec1, [1, 2, 3, 8, 16, 33, 64], None))
    for a in (1.0, 0.3):
        dirichlet = {"kind": "dirichlet", "alpha": a}
        for seed in (0, 7):
            cases.append((f"dirichlet{a:g}-dirichlet{a:g}-seed{seed}", dirichlet, dirichlet,
                          _DOUBLING, seed))
            cases.append((f"dirichlet{a:g}-uniform-seed{seed}", dirichlet, _UNIFORM,
                          _DOUBLING, seed))
            cases.append((f"power1-dirichlet{a:g}-seed{seed}", _POWER["power1"], dirichlet,
                          _DOUBLING, seed))
    return [(f"{name}-{action}", spec0, spec1, dims, seed, action)
            for name, spec0, spec1, dims, seed in cases for action in ("phi", "alpha")]


CASES = _cases()


def _sweep(spec0, spec1, dims, seed, action):
    rng = None if seed is None else np.random.default_rng(seed)
    return truncation_sweep(make_spectrum_generator(spec0), make_spectrum_generator(spec1),
                            dims, action=action, rng=rng)


def _hex(report) -> dict:
    return {"C": [c.hex() for c in report.bound_constants],
            "opnorm": [x.hex() for x in report.opnorms],
            "flag": list(report.flags)}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


# Rows where the dense SVD's sigma_max (LAPACK's 2x2 formula, dlas2) sat one ulp
# below the exact norm sqrt(C) of the very diagonal element it was given.
_SVD_ULP_BELOW = {("dirichlet1-uniform-seed0-phi", 2), ("dirichlet1-uniform-seed0-alpha", 2),
                  ("power1-dirichlet1-seed0-phi", 2), ("power1-dirichlet1-seed0-alpha", 2)}


@pytest.mark.parametrize("name, spec0, spec1, dims, seed, action", CASES,
                         ids=[case[0] for case in CASES])
def test_bound_constants_and_opnorms_keep_their_bits(pins, name, spec0, spec1, dims, seed,
                                                     action):
    report = _sweep(spec0, spec1, dims, seed, action)
    # Python floats and bools: the JSON encoder refuses numpy's bool
    assert {type(x) for x in report.bound_constants + report.opnorms + report.residuals} == {float}
    assert {type(x) for x in report.flags} == {bool}
    got, pinned = _hex(report), pins[name]
    assert got["C"] == pinned["C"]
    assert got["flag"] == pinned["flag"]
    for n, c, norm, old in zip(dims, report.bound_constants, report.opnorms, pinned["opnorm"]):
        assert norm == math.sqrt(c)
        if (name, n) in _SVD_ULP_BELOW:
            assert float.fromhex(old) == norm - math.ulp(norm)
        else:
            assert norm.hex() == old


@pytest.fixture
def run_config(tmp_path):
    def run(cfg, *options):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return CliRunner().invoke(main, [*options, "truncate", str(path)])
    return run


_ACTIONS = pytest.mark.parametrize("action", ["phi", "alpha"])


@_ACTIONS
@pytest.mark.parametrize("dims", [[2, 4, 8, 16, 32, 64, 128], [100]], ids=["to128", "at100"])
def test_rows_past_the_conditioning_limit_are_flagged_not_refused(run_config, action, dims):
    # the connecting element's condition number passes 1e12 from n = 100 on,
    # which the dense path refused with exit 2 (Singular)
    cfg = {"dims": dims, "spec0": _GIBBS_LOW, "spec1": _GIBBS_HALF, "action": action}
    result = run_config(cfg, "--format", "json")
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    payload = json.loads(result.stdout)
    assert payload["dims"] == dims
    assert payload["flag"] == [n >= 32 for n in dims]  # C passes 1e6 between n = 16 and 32
    assert all(c > 1e6 for c, flag in zip(payload["C"], payload["flag"]) if flag)


@_ACTIONS
def test_an_overflowing_bound_constant_is_encoded_as_pinned(run_config, action):
    # gibbs 0.25 at n = 520 is positive, but its last entry is subnormal and
    # p1/p0 there overflows
    cfg = {"dims": [520], "spec0": _GIBBS_LOW, "spec1": _UNIFORM, "action": action}
    csv = run_config(cfg)
    assert (csv.exit_code, csv.stderr) == (0, "")
    assert csv.stdout == "n,C,opnorm,residual,flag\n520,inf,inf,inf,true\n"
    js = run_config(cfg, "--format", "json")
    assert (js.exit_code, js.stderr) == (0, "")
    assert js.stdout == ('{"dims":[520],"C":[null],"opnorm":[null],"residual":[null],'
                         '"flag":[true],"orbit_class":["FiniteRank(520) (declared limit: '
                         'FullSupport)"],"ceiling":1000000.0,"diverged":true}\n')


def test_underflowing_spectra_are_refused(run_config):
    # gibbs 0.25 reaches 0.0 past n = 538; handling it needs log-space spectra
    result = run_config({"dims": [540], "spec0": _GIBBS_LOW, "spec1": _UNIFORM})
    assert result.exit_code == 2
    assert result.stderr == ("ValidationError: generators must produce positive "
                             "length-540 spectra\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_infinite_ceiling_is_refused(tmp_path, fmt):
    # 1e400 parses as inf, under which no row would be flagged, not even one
    # whose C overflows (inf > inf is false)
    path = tmp_path / "cfg.json"
    path.write_text('{"dims": [2, 520], "spec0": {"kind": "gibbs", "ratio": 0.25}, '
                    '"spec1": {"kind": "uniform"}, "ceiling": 1e400}')
    result = CliRunner().invoke(main, ["--format", fmt, "truncate", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "ValidationError: ceiling must be a finite positive number, got inf\n"


def test_an_infinite_ceiling_is_refused_by_the_library():
    gen = make_spectrum_generator(_UNIFORM)
    with pytest.raises(ValidationError, match="finite positive number"):
        truncation_sweep(gen, gen, [2], ceiling=math.inf)


@_ACTIONS
def test_dimensions_up_to_a_million(action):
    dims = [10, 100, 1000, 10**4, 10**5, 10**6]
    flat = _sweep(_POWER["power1"], _UNIFORM, dims, None, action)
    # both spectra come normalised; p1/p0 peaks at the last entry, (1/n) / (1/(n H_n))
    harmonic = [float(np.sum(1.0 / np.arange(1, n + 1))) for n in dims]
    np.testing.assert_allclose(flat.bound_constants, harmonic, rtol=1e-12)
    steep = _sweep(_UNIFORM, _POWER["power2"], dims, None, action)
    assert not any(flat.flags) and all(r <= 1e-15 for r in flat.residuals + steep.residuals)
    assert steep.dims == tuple(dims) and np.all(np.isfinite(steep.bound_constants))


def test_a_sweep_runs_no_dense_eigensolver_or_svd(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for case in CASES:
        _sweep(*case[1:])
    assert calls == []


def test_rank_tol_is_no_longer_an_option():
    import inspect

    from stategeom.orbits import bound_constant, connect_alpha, connect_phi
    from stategeom.states import spectral_split

    for f in (spectral_split, bound_constant, connect_alpha, connect_phi):
        assert "rank_tol" not in inspect.signature(f).parameters


if __name__ == "__main__":
    rows = [f"{json.dumps(case[0])}: {json.dumps(_hex(_sweep(*case[1:])))}" for case in CASES]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("config", [_GIBBS_HALF, _UNIFORM, _POWER["power1"],
                                    {"kind": "dirichlet", "alpha": 1.0}],
                         ids=["gibbs", "uniform", "power", "dirichlet"])
def test_a_spectrum_of_dimension_below_one_is_refused_alike(config, n):
    gen = make_spectrum_generator(config)
    with pytest.raises(ValidationError, match=f"^dimension must be >= 1, got {n}$"):
        gen.spectrum(n, np.random.default_rng(0))
