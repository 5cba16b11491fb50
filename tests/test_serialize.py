"""Byte pins and working-memory bounds for the text encoders.

The digests are sha256 sums of the exact bytes written.  The ``flow_csv``
inputs are built with exact dyadic and correctly rounded arithmetic, so
their pins depend on the encoder alone.  The CLI pins also cover the
numerics behind each payload (eigendecompositions, matrix exponentials), so
a different LAPACK build may change their last digits.  Input files are
written by a local encoder, independent of the library's.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from stategeom import linalg
from stategeom.cli import main
from stategeom.errors import ValidationError
from stategeom.serialize import flow_csv
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
    ("csv", 2): "5c8625f0f6b462000835bccf48f80a1a5138adde7f004f6d59183ec73bbc9fb5",
    ("csv", 3): "e7f1f894edaff7378c7308f03237bc528c5da682ea8193d63c5d17c7a1113960",
    ("csv", 4): "cb27e18920635d0dabbd6e511f4badb09a97a2986704a84a8d3f8e0bdc50e876",
    ("json", 2): "7a7503078ed591f5dbdaf8ac52defe91a1669f0a0937356e9f2fbc87c8e0427b",
    ("json", 3): "52e8da1eed08f4b0c2bae153d3a7a34170d001025164722c5cabf16842cf57d3",
    ("json", 4): "30e0d10c51519a2d57ed5cc21bdb34c54f4273568b29b209d76159a92ef4f945",
}


@pytest.mark.parametrize("fmt, n", FLOW_PINS, ids=[f"{f}-n{n}" for f, n in FLOW_PINS])
def test_cli_flow_bytes(runner, tmp_path, fmt, n):
    state, gen = flow_files(tmp_path, n)
    out = cli(runner, ["--format", fmt, "flow", state, gen, *FLOW_ARGS])
    assert sha256(out) == FLOW_PINS[fmt, n]


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


def pair_files(tmp_path):
    rng = np.random.default_rng(7)
    return (write(tmp_path / "a.json", random_state(rng, 3, 2), "state"),
            write(tmp_path / "b.json", random_state(rng, 3, 2), "state"),
            write(tmp_path / "g.json", np.eye(3) + random_generator(rng, 3)))


PAYLOAD_PINS = {
    "connect-phi": "f85e4e1d34b020d99cf7a4c7889669b7cb6003a72aa080548eee1a552ad5b9ba",
    "connect-alpha": "169d6a645a6044bd025ab86b76562a5595cbcb6066fb2584211c74f7a89223d9",
    "act-phi": "e849f803b13705d425044ac8b20029bd98dfc9aa8b19b359f1df7b2475ce53c1",
    "act-alpha": "c190474fdee2b3f61d50a864b0c2bdb304719bb40323b6c9be3bcbf9dc72214c",
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
    """The payload of n^2 dense (nk)x(nk) matrices is written one unit at a
    time.  At n = 6, full rank, its 0.47 MB of text take 8.5 MiB as one
    list-of-lists payload and 0.93 MiB as one string; streamed, the traced
    peak is about 0.45 MiB."""
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


# a state file is validated once, when it is decoded
CALL_COUNTS = {
    "validate": (lambda files: ["validate", files["rho"]], 2, 3),
    "act-phi": (lambda files: ["act", "phi", files["g"], files["rho"]], 2, 4),
    "gns": (lambda files: ["gns", files["rho"]], 1, 3),
}


@pytest.mark.parametrize("args, eigvalsh, frobenius", CALL_COUNTS.values(), ids=CALL_COUNTS)
def test_state_file_is_validated_once(runner, tmp_path, count_calls, args, eigvalsh, frobenius):
    files = {"rho": write(tmp_path / "rho.json", np.diag([0.75, 0.25]), "state"),
             "g": write(tmp_path / "g.json", np.diag([2.0, 1.0]))}
    cli(runner, args(files))
    assert (count_calls["eigvalsh"], count_calls["frobenius"]) == (eigvalsh, frobenius)


# a positive file read as a state is validated when it is decoded, then only
# its trace is tested
POSITIVE_CALL_COUNTS = {
    "connect-phi": (lambda files: ["connect", "phi", files["rho"], files["rho"]], 3, 9),
    "gns": (lambda files: ["gns", files["rho"]], 1, 3),
}


@pytest.mark.parametrize("args, eigvalsh, frobenius", POSITIVE_CALL_COUNTS.values(),
                         ids=POSITIVE_CALL_COUNTS)
def test_positive_file_is_validated_once(runner, tmp_path, count_calls, args, eigvalsh,
                                         frobenius):
    files = {"rho": write(tmp_path / "rho.json", np.diag([0.75, 0.25]), "positive")}
    cli(runner, args(files))
    assert (count_calls["eigvalsh"], count_calls["frobenius"]) == (eigvalsh, frobenius)
