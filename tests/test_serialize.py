"""Byte pins and working-memory bounds for the text encoders.

The digests are sha256 sums of the exact bytes written.  The ``flow_csv``
inputs are built with exact dyadic and correctly rounded arithmetic, so
their pins depend on the encoder alone.  The CLI pins also cover the
numerics behind each payload (eigendecompositions, matrix exponentials), so
a different LAPACK build may change their last digits.  Input files are
written by a local encoder, independent of the library's.  The CSV float
encoder is also compared byte for byte with Python's own formatter, through
the row-template reference in ``oracles``, on seeded families of hard values.
"""

import hashlib
import json
import math
import os
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import FLOAT_FIELD, csv_reference, float_rows_reference
from test_matrix_exp import MULTIPLE, _bound, _scipy_expm
from stategeom import linalg, serialize
from stategeom.cli import main
from stategeom.errors import ValidationError
from stategeom.serialize import flow_csv, truncation_csv
from stategeom.states import validate_state


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def matrix_text(m, kind="operator") -> str:
    m = np.asarray(m, dtype=complex)
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return json.dumps({"n": m.shape[0], "kind": kind, "entries": entries},
                      separators=(",", ":")) + "\n"


def write(path, m, kind="operator") -> str:
    path.write_text(matrix_text(m, kind))
    return str(path)


def exact_state(n: int, step: int) -> np.ndarray:
    """A diagonally dominant density matrix from correctly rounded quotients."""
    i, j = np.indices((n, n))
    re = ((5 * i + 3 * j + step) % 7 - 3) / (97.0 * n * n)
    im = ((3 * i + 7 * j + 2 * step) % 5 - 2) / (89.0 * n * n)
    upper = np.triu(re + 1j * im, 1)
    diag = np.arange(1, n + 1) / (n * (n + 1) / 2.0)
    return upper + upper.conj().T + np.diag(diag.astype(complex))


def trajectory(n: int, rows: int):
    ts = [k / (rows - 1.0) - 0.25 for k in range(rows)]
    return ts, [validate_state(exact_state(n, k)) for k in range(rows)]


def random_state(rng, n: int, rank: int) -> np.ndarray:
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_generator(rng, n: int) -> np.ndarray:
    return 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


FLOW_CSV_PINS = {
    (2, 50): "9fcd42a8b0a4814def4d5adfc7d38ecaedc1efe774b738d3ae7af1e6f0621ae5",
    (4, 50): "f82b45d7da86331fd0b5945c4294f62c62dd80801252f456b470e820a0571c58",
    (16, 200): "e91e66c1622bea61b0dbbcdbdd44df4218726dcca2fe4af902eefbecee4a68ea",
}


@pytest.mark.parametrize("n, rows", FLOW_CSV_PINS, ids=[f"n{n}" for n, _ in FLOW_CSV_PINS])
def test_flow_csv_bytes(n, rows):
    assert sha256(flow_csv(*trajectory(n, rows))) == FLOW_CSV_PINS[n, rows]


def test_flow_csv_refuses_a_grid_of_another_length():
    ts, states = trajectory(2, 5)
    for grid in (ts[:-1], ts + [1.0]):
        with pytest.raises(ValidationError, match="grid points"):
            flow_csv(grid, states)


def test_flow_csv_refuses_states_of_mixed_dimension():
    ts, states = trajectory(2, 3)
    states[1] = validate_state(exact_state(3, 1))
    with pytest.raises(ValidationError, match="dimension"):
        flow_csv(ts, states)


def ulps(values, k):
    """Each value and its neighbours up to k units in the last place away."""
    bits = np.asarray(values, dtype=float)[:, None].view(np.int64)
    return (bits + np.arange(-k, k + 1)).view(float).ravel()


def float_families(rng):
    """Seeded values for the CSV float encoder, with their negatives."""
    odd = 2 ** 53 - 2 * rng.integers(0, 2 ** 40, 20000) - 1
    families = {
        "log10-uniform": 10.0 ** rng.uniform(-320, 308, 40000),
        "powers-of-ten": ulps([float(f"1e{e}") for e in range(-300, 301)], 4),
        # m/4 has 16 integer digits and ends in .25 or .75: an exact tie at 17 digits
        "ties": odd / 4.0,
        "integers": np.ldexp(rng.integers(2 ** 52, 2 ** 53, 10000).astype(float),
                             rng.integers(1, 120, 10000)),
        "switch-points": ulps([1e-5, 1e-4, 1e16, 1e17], 8),
        # 17 nines round up to the next power of ten: 9.9999999999999999e-05 is 0.0001
        "round-up": np.array([float(f"9.9999999999999999{d}e{e}") for e in range(-300, 301)
                              for d in (0, 5, 9)]),
        "signed-specials": np.array([0.0, np.inf, np.nan]),
    }
    return {name: np.concatenate([v, -v]) for name, v in families.items()}


FAMILIES = float_families(np.random.default_rng(2024))


def csv_floats(values, cols):
    """The values as a table of ``cols`` columns, padded with ones."""
    values = np.concatenate([values, np.ones(-len(values) % cols)])
    table = values.reshape(-1, cols)
    return serialize._float_text(table), float_rows_reference(table)


def first_mismatch(got, want):
    """None when the texts agree, else the first field that differs as
    (index, got, want); a cheap report where a full text diff is not."""
    if got == want:
        return None
    fields = zip(got.replace("\n", ",\n").split(","), want.replace("\n", ",\n").split(","))
    return next(((i, a, b) for i, (a, b) in enumerate(fields) if a != b), ("lengths", len(got),
                                                                         len(want)))


@pytest.mark.parametrize("name", FAMILIES)
def test_csv_floats_are_pythons_text(name):
    assert first_mismatch(*csv_floats(FAMILIES[name], 7)) is None


@pytest.mark.parametrize("cols", [513, 10007])  # a flow row at n = 16; a row wider than a block
def test_csv_floats_of_mixed_families_are_pythons_text(cols):
    values = np.concatenate(list(FAMILIES.values()))
    assert values.size >= 10 ** 5
    np.random.default_rng(5).shuffle(values)
    assert first_mismatch(*csv_floats(values, cols)) is None


def test_the_round_up_family_crosses_a_power_of_ten():
    assert "%.17g" % 9.9999999999999999e-05 == "0.0001"
    assert csv_floats(np.array([9.9999999999999999e-05]), 1)[0] == "0.0001\n"


def test_an_exponent_estimate_one_too_low_carries(monkeypatch):
    """With log10 nudged one unit down, an exact power of ten gets the
    exponent below its own, and its 17 digits round up to 10**17: the
    carry makes that 10**16 with the exponent one up."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    values = ulps([float(f"1e{e}") for e in range(-280, 281)], 1)
    n, k, sure = serialize._significands(values)
    assert np.count_nonzero(sure & (k == np.floor(np.log10(values)) + 1)) > 0  # carried
    assert first_mismatch(*csv_floats(values, 3)) is None


@pytest.fixture
def fallbacks(monkeypatch):
    """The values each call of the per-entry fallback formatted."""
    values = []

    def counted(x, inner=serialize._g17):
        values.append(x)
        return inner(x)

    monkeypatch.setattr(serialize, "_g17", counted)
    return values


def seeded_trajectory(seed=16, n=16, rows=200):
    """A trajectory of seeded Hermitian states, as ``lib_large`` writes: the
    imaginary parts of the diagonal are exact zeros."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, rows)
    states = []
    for _ in grid:
        rho = random_state(rng, n, n)
        states.append(validate_state((rho + rho.conj().T) / 2))
    return grid, states


def flow_reference(ts, states):
    n = states[0].n
    header = ",".join(["t"] + [f"{part}_{i}_{j}" for i in range(n) for j in range(n)
                               for part in ("re", "im")])
    rows = [[t] + np.asarray(rho.matrix, dtype=complex).ravel().view(float).tolist()
            for t, rho in zip(ts, states)]
    return csv_reference(header, ",".join([FLOAT_FIELD] * len(rows[0])), rows)


def test_a_trajectory_needs_no_fallback(fallbacks):
    ts, states = seeded_trajectory()
    entries = np.stack([rho.matrix for rho in states])
    assert np.count_nonzero(entries.imag == 0.0) == 16 * 200  # the diagonal's exact zeros
    assert first_mismatch(flow_csv(ts, states), flow_reference(ts, states)) is None
    assert fallbacks == []


def is_decimal_tie(x):
    """Whether x lies exactly halfway between two 17-digit decimals."""
    d = Decimal(x)
    return d.scaleb(16 - d.adjusted()) % 1 == Decimal("0.5")


def test_powers_of_ten_and_their_neighbours_need_no_fallback(fallbacks):
    # np.log10 rounds most doubles just below a power of ten up to it; the
    # encoder takes those again one exponent down instead of falling back.
    # Only the entries it leaves by design fall back: those outside
    # [1e-280, 1e280] and exact decimal ties (here the double below 1e15)
    table = ulps([float(f"1e{e}") for e in range(-280, 281)], 1).reshape(-1, 3)
    assert table.shape == (561, 3)
    text = serialize._float_text(table)
    assert text == "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())
    assert fallbacks == [x for x in table.ravel().tolist()
                         if not 1e-280 <= x <= 1e280 or is_decimal_tie(x)]
    assert len(fallbacks) == 3


@pytest.mark.parametrize("values", [
    FAMILIES["ties"][:2000],
    np.concatenate([5e-324 * np.arange(1.0, 9.0), ulps([1e-310, 2.2250738585072014e-308,
                                                             1e-300, 9e-281], 3)]),
    np.array([np.inf, -np.inf, np.nan, np.inf, np.nan]),
], ids=["ties", "subnormal-and-tiny", "non-finite"])
def test_undecided_entries_fall_back_one_at_a_time(fallbacks, values):
    assert first_mismatch(*csv_floats(values, 3)) is None
    assert len(fallbacks) == values.size  # padding ones are certified
    assert (np.array(fallbacks).view(np.int64) == values.view(np.int64)).all()


def test_truncation_csv_shares_the_float_encoder(fallbacks):
    report = SimpleNamespace(dims=(2, 3, 520), bound_constants=(0.5, 2251799813685247.75, np.inf),
                             opnorms=(1e-5, 1.0, np.inf), residuals=(0.0, -0.0, np.inf),
                             flags=(False, True, True))
    want = csv_reference("n,C,opnorm,residual,flag", f"%d,{FLOAT_FIELD},{FLOAT_FIELD},"
                         f"{FLOAT_FIELD},%s", zip(report.dims, report.bound_constants,
                                                   report.opnorms, report.residuals,
                                                   ("false", "true", "true")))
    assert truncation_csv(report) == want
    assert fallbacks == [2251799813685247.75, np.inf, np.inf, np.inf]


def test_flow_csv_working_memory():
    """The 200-row n = 16 trajectory is 102,600 floats and 2.0 MB of text.
    Formatted a row at a time, the traced peak was 8.9 MiB (a list of Python
    floats and the row strings beside the text); encoded in blocks of 8192
    entries it is about 5.4 MiB: the table, one output buffer of 25 bytes an
    entry, its decoded text and the text with the header."""
    ts, states = seeded_trajectory()
    tracemalloc.start()
    try:
        flow_csv(ts, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2 ** 20


@pytest.fixture
def runner():
    return CliRunner()


def cli(runner, args) -> bytes:
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def flow_files(tmp_path, n):
    rng = np.random.default_rng(100 + n)
    rank = max(1, n - 1)
    return (write(tmp_path / "rho.json", random_state(rng, n, rank), "state"),
            write(tmp_path / "gen.json", random_generator(rng, n)))


FLOW_ARGS = ["--t0", "-0.5", "--t1", "1.25", "--steps", "7"]
FLOW_PINS = {
    ("csv", 2): "adf311f3cc9b1b1e2ad0dba2e127c3fd948cb50bd1eb2247f3be7b3b972df730",
    ("csv", 3): "dc828763dd1005e68c9af10223ae15ebc563ca24cfd3416a25814190c23ea507",
    ("csv", 4): "d5b5406dc43d06a17c8e59b0be294de1e2ac27fd8e1df70bc9f17912ed847740",
    ("json", 2): "d307d021ca51ab336a8690a8cede0b69dab52a708f1d61c1c01c24e89e070c72",
    ("json", 3): "969cb8e5ac1aa4dddea4bca5296948e760d52efa69f138af0d18b4a0a7ee983b",
    ("json", 4): "214ad3ad6ca469f3381ebcdf85bead926cc22a7669636b5f0f850c324306593e",
}


@pytest.mark.parametrize("fmt, n", FLOW_PINS, ids=[f"{f}-n{n}" for f, n in FLOW_PINS])
def test_cli_flow_bytes(runner, tmp_path, fmt, n):
    state, gen = flow_files(tmp_path, n)
    out = cli(runner, ["--format", fmt, "flow", state, gen, *FLOW_ARGS])
    assert sha256(out) == FLOW_PINS[fmt, n]


def _flow_points(out: bytes, fmt: str, n: int):
    """(t, state) pairs decoded from a ``flow`` payload, with Python's own parsers."""
    if fmt == "json":
        payload = json.loads(out)
        states = [np.array([complex(*z) for z in s["entries"]]).reshape(n, n)
                  for s in payload["states"]]
        return list(zip(payload["t"], states))
    rows = out.decode().splitlines()[1:]
    values = [[float(x) for x in row.split(",")] for row in rows]
    return [(v[0], (np.array(v[1::2]) + 1j * np.array(v[2::2])).reshape(n, n)) for v in values]


@pytest.mark.parametrize("fmt, n", FLOW_PINS, ids=[f"{f}-n{n}" for f, n in FLOW_PINS])
def test_cli_flow_points_match_scipy(runner, tmp_path, fmt, n):
    """Each pinned flow point is phi(expm(t a), rho) within the exponential's bound,
    so a re-pin of ``FLOW_PINS`` cannot hide a wrong point."""
    state, gen = flow_files(tmp_path, n)
    rho, a = (np.array([complex(*z) for z in json.loads(Path(path).read_text())["entries"]])
              .reshape(n, n) for path in (state, gen))
    points = _flow_points(cli(runner, ["--format", fmt, "flow", state, gen, *FLOW_ARGS]), fmt, n)
    assert len(points) == 7
    for t, out in points:
        g = _scipy_expm(t * a)
        image = g @ rho @ g.conj().T
        expected = image / np.trace(image).real
        bound = _bound(n, abs(t) * np.linalg.norm(a))
        assert np.linalg.norm(out - expected) <= MULTIPLE * bound, t


def gns_file(tmp_path, n, rank):
    rng = np.random.default_rng(10 * n + rank)
    return write(tmp_path / "rho.json", random_state(rng, n, rank), "state")


GNS_PINS = {
    (2, 1): "a109dd0285090805d8135abd83dd9eb96608bd36597fe0f1afa059483eb1a164",
    (2, 2): "27c84898dab824f0d60bc902ec8c37806f62e33dec11f9290fe2c4c0480c532c",
    (3, 1): "7b99c4f7102982602d9e760f146c525a429bba21fde15aa57912c6ab6d1edc34",
    (3, 3): "d40524e1f411ad15a3533ebd701bf68b3df362a1998318999ca22eb2000bf9fb",
    (4, 1): "58c22879454998d3d3540c53e0d7beef5f5ba02f51d39103601a4c2a965725b5",
    (4, 2): "a2e54e2ae6e16c2d97494a2d3fb1a1b17aa1469fe4717ed67abebad673421891",
    (4, 4): "a552edc07dceadc21dd2e361a310942df4afa95ac73a55dd88e7b6fe678818af",
    (5, 1): "dbf97da47cd6c09ceb233141cdf86ec4bbb963bf8d4d938a34e5b00e7050a647",
    (5, 2): "7076785164884120d725543933f610201a88cbee073159ceca9ddcee5deee585",
    (5, 5): "487e1fa3fd6bd7c5cdcdaf7aa70e8b48722fe490a2d26c623fa9832cbfd18d46",
    (6, 1): "11e76d038bef8d7fb73c285fa69246d507c9ad4f63dc3753dc2a2af7d1667616",
    (6, 3): "a4be2bcdfd0e398230f6c2d190149955a9699cfe062ea7ef8919f604c13a1088",
    (6, 6): "a77b3dfb4bb88b2df376c5d78229f297fd0e1167d52ffb848803bd0766e272c2",
    (7, 1): "cc472674706b5d6ec27e033c3f24e7a231f9c5b23ffc1ee7d627002a52dbeb63",
    (7, 3): "9de4a6f01d3b05e34c3236c56a3f73f00359d5d1a763475d1f45accfed2b6158",
    (7, 7): "3b7b73abb6060095bc4410dd4636f2fcd5dcc03b4f02cd44551aa333a20ad2ee",
    (8, 1): "043c0c50745b7cbdf8238ce5c28e9b05abdbe0388a18729667716ca3a262be4b",
    (8, 4): "e61f9f2e32943d992062e70e7dd22276cd5d35f3b9d3a40131e5c1f93b9f14f6",
    (8, 8): "627bfaa2e161666979464438565df4e84bc5d233cbc838a94a26bc55b962a602",
}


@pytest.mark.parametrize("n, rank", GNS_PINS, ids=[f"n{n}-k{k}" for n, k in GNS_PINS])
def test_cli_gns_bytes(runner, tmp_path, n, rank):
    assert sha256(cli(runner, ["gns", gns_file(tmp_path, n, rank)])) == GNS_PINS[n, rank]


def _pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


GNS_CASES = [(1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 4)]


@pytest.mark.parametrize("n, rank", GNS_CASES, ids=[f"n{n}-k{k}" for n, k in GNS_CASES])
def test_cli_gns_payload_represents_the_matrix_units(runner, tmp_path, n, rank):
    # item k is pi(E_ij) = E_ij kron I_k for (i, j) = divmod(k, n), and the cyclic
    # vector reproduces the state: <psi|pi(E_ij)|psi> = rho(E_ij) = rho_ji
    path = gns_file(tmp_path, n, rank)
    rho = _pairs(json.loads(Path(path).read_text())["entries"]).reshape(n, n)
    payload = json.loads(cli(runner, ["gns", path]))
    dim, psi = payload["dim"], _pairs(payload["cyclic"])
    assert (payload["n"], dim, len(payload["rep"])) == (n, n * rank, n * n)
    for k, item in enumerate(payload["rep"]):
        i, j = divmod(k, n)
        assert item["unit"] == [i, j]
        unit = np.zeros((n, n))
        unit[i, j] = 1.0
        image = _pairs(item["entries"]).reshape(dim, dim)
        assert np.array_equal(image, np.kron(unit, np.eye(dim // n)))
        assert abs(np.vdot(psi, image @ psi) - rho[j, i]) <= 1e-12, (i, j)


def pair_files(tmp_path):
    rng = np.random.default_rng(7)
    return (write(tmp_path / "a.json", random_state(rng, 3, 2), "state"),
            write(tmp_path / "b.json", random_state(rng, 3, 2), "state"),
            write(tmp_path / "g.json", np.eye(3) + random_generator(rng, 3)))


PAYLOAD_PINS = {
    "connect-phi": "f85e4e1d34b020d99cf7a4c7889669b7cb6003a72aa080548eee1a552ad5b9ba",
    "connect-alpha": "169d6a645a6044bd025ab86b76562a5595cbcb6066fb2584211c74f7a89223d9",
    "act-phi": "e849f803b13705d425044ac8b20029bd98dfc9aa8b19b359f1df7b2475ce53c1",
    "act-alpha": "48afc6a7bac0844275cbd5435dced5b39125d8418f7f8d72ca3ef645cb792bfc",
}


@pytest.mark.parametrize("name", PAYLOAD_PINS)
def test_cli_payload_bytes(runner, tmp_path, name):
    a, b, g = pair_files(tmp_path)
    command, action = name.split("-")
    args = [command, action, a, b] if command == "connect" else [command, action, g, a]
    assert sha256(cli(runner, args)) == PAYLOAD_PINS[name]


OUT_CASES = {
    "gns": lambda tmp_path: ["gns", gns_file(tmp_path, 4, 2)],
    "flow-csv": lambda tmp_path: ["flow", *flow_files(tmp_path, 3), *FLOW_ARGS],
    "flow-json": lambda tmp_path: ["--format", "json", "flow", *flow_files(tmp_path, 3),
                                   *FLOW_ARGS],
}


@pytest.mark.parametrize("name", OUT_CASES)
def test_out_file_matches_stdout(runner, tmp_path, name):
    args = OUT_CASES[name](tmp_path)
    path = tmp_path / "out.txt"
    assert cli(runner, ["--out", str(path), *args]) == b""
    assert path.read_bytes() == cli(runner, args)


def test_gns_output_working_memory(runner, tmp_path):
    """The payload of n^2 dense (nk)x(nk) matrices is written in blocks of
    matrix units, at most ``serialize._UNITS`` = 4096 floats (2048 complex
    entries) each and one unit at least.  At n = 6, full rank, its 0.47 MB of
    text take 8.5 MiB as one list-of-lists payload and 0.93 MiB as one string;
    streamed, the traced peak is about 0.45 MiB."""
    path = gns_file(tmp_path, 6, 6)
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["--out", os.devnull, "gns", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak < 0.75 * 2**20


@pytest.fixture
def count_calls(monkeypatch):
    counts = {"eigvalsh": 0, "frobenius": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(linalg, "frobenius", counted("frobenius", linalg.frobenius))
    return counts


# a state file is validated once, when it is decoded; validate's min_eigenvalue
# reads the eigh that classify_orbit kept on the value; the rank cut reads the norm
# that validation took, and phi's image is certified positive from the input's
# gate record
CALL_COUNTS = {
    "validate": (lambda files: ["validate", files["rho"]], 1, 2),
    "act-phi": (lambda files: ["act", "phi", files["g"], files["rho"]], 1, 4),
    "gns": (lambda files: ["gns", files["rho"]], 1, 2),
}


@pytest.mark.parametrize("args, eigvalsh, frobenius", CALL_COUNTS.values(), ids=CALL_COUNTS)
def test_state_file_is_validated_once(runner, tmp_path, count_calls, args, eigvalsh, frobenius):
    files = {"rho": write(tmp_path / "rho.json", np.diag([0.75, 0.25]), "state"),
             "g": write(tmp_path / "g.json", np.diag([2.0, 1.0]))}
    cli(runner, args(files))
    assert (count_calls["eigvalsh"], count_calls["frobenius"]) == (eigvalsh, frobenius)


# a positive file read as a state is validated when it is decoded, then only
# its trace is tested; connect phi's image is not validated, its residual is
# guarded; each state's rank cut and the residual's scale read the norm that
# validation took
POSITIVE_CALL_COUNTS = {
    "connect-phi": (lambda files: ["connect", "phi", files["rho"], files["rho"]], 2, 4),
    "gns": (lambda files: ["gns", files["rho"]], 1, 2),
}


@pytest.mark.parametrize("args, eigvalsh, frobenius", POSITIVE_CALL_COUNTS.values(),
                         ids=POSITIVE_CALL_COUNTS)
def test_positive_file_is_validated_once(runner, tmp_path, count_calls, args, eigvalsh,
                                         frobenius):
    files = {"rho": write(tmp_path / "rho.json", np.diag([0.75, 0.25]), "positive")}
    cli(runner, args(files))
    assert (count_calls["eigvalsh"], count_calls["frobenius"]) == (eigvalsh, frobenius)


# Matrix JSON: every float64 array is written by the block encoder, byte for
# byte what json.dumps writes for its tolist(), which formats each float with
# float.__repr__.

def json_oracle(arrays) -> str:
    return json.dumps([a.tolist() for a in arrays], separators=(",", ":")) + "\n"


def dyadics(rng, size):
    return rng.integers(1, 2 ** 20, size) / 2.0 ** rng.integers(1, 60, size)


def decimals_of_each_length(rng):
    """Decimals of 1 to 17 significant digits (last digit nonzero) at
    exponents -20..20; each reads back as a double whose shortest text has
    at most that many digits."""
    out = []
    for length in range(1, 18):
        m = (rng.integers(10 ** (length - 1), 10 ** length, 300) // 10 * 10
             + rng.integers(1, 10, 300))
        m[m >= 10 ** length] -= 10
        out += [float(f"{d}e{e}") for d, e in zip(m.tolist(), rng.integers(-20, 21, 300).tolist())]
    return np.array(out)


def finite(values):
    """The values that are finite and not negative (ulps below 5e-324 are nan bit patterns)."""
    return values[np.isfinite(values) & ~np.signbit(values)]


def json_families(rng):
    """Seeded values for the JSON float encoder, with their negatives."""
    families = {
        "log10-uniform": 10.0 ** rng.uniform(-320, 308, 10000),
        "lengths": np.concatenate([0.1 * np.arange(1, 1001), dyadics(rng, 2000),
                                   np.arange(1, 301) / 3.0, np.arange(1, 301) / 7.0,
                                   decimals_of_each_length(rng)]),
        "powers-of-two": finite(ulps(np.ldexp(1.0, np.arange(-1074, 1024)), 4)),
        "powers-of-ten": ulps([float(f"1e{e}") for e in range(-300, 301)], 4),
        "switch-points": ulps([1e-5, 1e-4, 1e15, 1e16], 8),
        "integers": np.concatenate([
            np.ldexp(rng.integers(2 ** 52, 2 ** 53, 3000).astype(float),
                     rng.integers(1, 120, 3000)),
            (2 ** 53 + rng.integers(0, 2 ** 56, 3000)).astype(float)]),
        "specials": np.array([0.0, 5e-324, 1.7976931348623157e308]),
    }
    return {name: np.concatenate([v, -v]) for name, v in families.items()}


JSON_FAMILIES = json_families(np.random.default_rng(43))


def test_the_length_family_covers_every_shortest_length():
    lengths = {len(repr(x).split("e")[0].replace("-", "").replace(".", "").strip("0"))
               for x in JSON_FAMILIES["lengths"].tolist()}
    assert lengths == set(range(1, 18))


def pair_arrays(values, n):
    """The values cycled into as many (n^2, 2) arrays as hold them all."""
    count = -(-values.size // (2 * n * n))
    return [block.reshape(n * n, 2) for block in np.split(np.resize(values, count * 2 * n * n),
                                                           count)]


@pytest.mark.parametrize("n", [1, 4, 64])
@pytest.mark.parametrize("name", JSON_FAMILIES)
def test_json_arrays_are_json_dumps_text(name, n):
    arrays = pair_arrays(JSON_FAMILIES[name], n)
    assert first_mismatch(serialize.dumps_canonical(arrays), json_oracle(arrays)) is None


def test_json_array_of_every_family_at_n256_is_json_dumps_text():
    """One (65536, 2) array, more than a block, of all families shuffled."""
    values = np.concatenate(list(JSON_FAMILIES.values()))
    np.random.default_rng(256).shuffle(values)
    assert 2 ** 16 < values.size <= 2 ** 17
    arrays = pair_arrays(values, 256)
    assert len(arrays) == 1
    assert first_mismatch(serialize.dumps_canonical(arrays), json_oracle(arrays)) is None


def test_json_arrays_of_one_axis_and_in_objects():
    rng = np.random.default_rng(44)
    values = np.concatenate(list(JSON_FAMILIES.values()))
    rng.shuffle(values)
    payload = {"n": 3, "t": values[:7], "rows": [values[7:9], {"x": values[9:10]}, "text"],
               "entries": serialize.complex_pairs(values[10:28].view(complex)), "last": 0.1}
    want = json.dumps({"n": 3, "t": values[:7].tolist(),
                       "rows": [values[7:9].tolist(), {"x": values[9:10].tolist()}, "text"],
                       "entries": values[10:28].reshape(9, 2).tolist(), "last": 0.1},
                      separators=(",", ":")) + "\n"
    assert serialize.dumps_canonical(payload) == want


def test_a_string_that_reads_as_the_placeholder_keeps_its_text():
    payload = {"\0": serialize.complex_pairs(np.eye(2)), "b": ["\0", np.arange(3.0)]}
    want = json.dumps({"\0": np.eye(2, dtype=complex).reshape(-1).view(float).reshape(4, 2)
                      .tolist(), "b": ["\0", [0.0, 1.0, 2.0]]}, separators=(",", ":"))
    assert serialize.dumps_canonical(payload) == want + "\n"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_array_raises_jsons_own_error(bad):
    entries = np.array([[0.5, 0.0], [bad, 1.0]])
    with pytest.raises(ValueError) as want:
        json.dumps(entries.tolist(), separators=(",", ":"), allow_nan=False)
    with pytest.raises(ValueError) as got:
        serialize.dumps_canonical({"entries": entries})
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_other_arrays_stay_refused_by_json():
    for value in (np.arange(3), np.ones(2, dtype=complex), np.float32([1.5])):
        with pytest.raises(TypeError, match="not JSON serializable"):
            serialize.dumps_canonical({"x": value})


def test_complex_pairs_is_a_read_only_float_view():
    m = np.arange(4.0).reshape(2, 2) + 1j
    pairs = serialize.matrix_to_jsonable(m)["entries"]
    assert pairs.dtype == np.float64 and pairs.shape == (4, 2) and np.shares_memory(pairs, m)
    with pytest.raises(ValueError, match="read-only"):
        pairs[0, 0] = 1.0


def test_cli_flow_json_is_json_dumps_of_its_list_form(runner, tmp_path):
    from stategeom.tangent import flow

    state, gen = flow_files(tmp_path, 16)
    args = ["--t0", "-0.5", "--t1", "1.25", "--steps", "50"]
    out = cli(runner, ["--format", "json", "flow", state, gen, *args])
    rho, a = (serialize.load_matrix_file(path)[0] for path in (state, gen))
    grid = np.linspace(-0.5, 1.25, 50)
    states = [{"n": 16, "kind": "state", "entries": s.matrix.reshape(-1).view(float)
               .reshape(-1, 2).tolist()} for s in flow(rho, a, grid)]
    want = json.dumps({"t": grid.tolist(), "states": states}, separators=(",", ":")) + "\n"
    assert out.decode() == want


@pytest.fixture
def reprs(monkeypatch):
    """The values each call of the JSON encoder's per-entry fallback formatted."""
    values = []

    def counted(x, inner=serialize._repr):
        values.append(x)
        return inner(x)

    monkeypatch.setattr(serialize, "_repr", counted)
    return values


def shortest_digits(x: float) -> int:
    return len(repr(abs(x)).split("e")[0].replace(".", "").strip("0"))


def undecidable(x: float) -> bool:
    """Whether x is an exact tie between the two decimals of its shortest
    length d nearest it, or a decimal of d or d - 1 digits lies exactly half
    a gap from it, on the edge of the interval that reads back as x: the
    cases the certificate leaves to ``repr``."""
    d, lead = shortest_digits(x), abs(Decimal(x)).adjusted()
    for digits in (d - 1, d):
        scale = Fraction(10) ** (digits - 1 - lead)
        v = abs(Fraction(x)) * scale
        below = v - math.floor(v)
        if min(below, 1 - below) == Fraction(math.ulp(x)) / 2 * scale:
            return True
    return below == Fraction(1, 2)


def test_entries_of_16_and_17_digits_need_no_fallback(reprs):
    """Only exact ties and edges fall back: 14 of the 7509 seeded values
    here, between 2e12 and 4e17, where few bits of x lie below its last
    decimal digit."""
    rng = np.random.default_rng(45)
    values = 10.0 ** rng.uniform(-250, 250, 8000) * rng.choice([-1.0, 1.0], 8000)
    values = np.array([x for x in values.tolist()
                       if shortest_digits(x) >= 16 and not undecidable(x)] + [0.0, -0.0])
    assert values.size > 7000
    assert serialize.dumps_canonical(values) == json.dumps(values.tolist()).replace(" ", "") + "\n"
    assert reprs == []


def power_of_two_significands():
    """Powers of two in [1e-280, 1e280] whose shortest text has 15 to 17 digits."""
    values = np.ldexp(1.0, np.arange(-930, 931))
    return np.array([x for x in values.tolist() if shortest_digits(x) >= 15])


def undecided_integers():
    """Multiples of 4 in [2^54, 2^55) that end in 2 or 8: half the gap to
    their neighbours (2) equals the distance to the nearest multiple of 10,
    so the certificate cannot tell whether 16 digits read back."""
    m = 2 ** 54 + 4 * np.arange(0, 2000, dtype=np.int64)
    return m[np.isin(m % 10, (2, 8))].astype(float)


FALLBACK_CASES = {
    "short": np.array([0.5, 1.0, 0.1, 1e22, 1234567890123.4, 1 / 64, 3e-5]),
    "power-of-two": power_of_two_significands(),
    "out-of-range": np.concatenate([5e-324 * np.arange(1.0, 5.0), finite(ulps([
        2.2250738585072014e-308, 1e-300, 9e-281, 2e280, 1e300, 1.7976931348623157e308], 2))]),
    "undecided": undecided_integers(),
}


@pytest.mark.parametrize("name", FALLBACK_CASES)
def test_each_documented_case_falls_back_once(reprs, name):
    values = np.concatenate([FALLBACK_CASES[name], -FALLBACK_CASES[name]])
    assert values.size >= 14
    pairs = values.reshape(-1, 2)
    assert serialize.dumps_canonical(pairs) == json_oracle([pairs])[1:-2] + "\n"
    assert len(reprs) == values.size
    assert (np.array(reprs).view(np.int64) == values.view(np.int64)).all()
