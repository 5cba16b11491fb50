"""A validated value decomposes its spectrum once: the eigen-record.

``spectral_split`` and every orbit question built on it read the record that
the first of them leaves on a frozen value, so a value asked many questions
runs one ``eigh``.  The record carries no tolerance, is kept only on buffers
the package froze, and gives every reader the bits of a fresh ``sorted_eigh``.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from sampling import random_state, random_unitary
from stategeom import (
    PositiveFunctional,
    StateDensity,
    bound_constant,
    classify_orbit,
    config,
    connect_alpha,
    connect_phi,
    gns_construct,
    isotropy_report,
    purity_check,
    spectral_split,
    validate_positive,
    validate_state,
)
from stategeom.linalg import sorted_eigh
from stategeom.tangent import tangent_map_rank


def same_bits(x, y):
    """Whether two results agree field by field, arrays byte for byte."""
    if is_dataclass(x):
        return type(x) is type(y) and all(same_bits(getattr(x, f.name), getattr(y, f.name))
                                          for f in fields(x))
    if isinstance(x, np.ndarray):
        return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    if isinstance(x, float):
        return np.float64(x).tobytes() == np.float64(y).tobytes()
    return x == y


@pytest.fixture
def eigh_calls(monkeypatch):
    """The argument of every np.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def questions(rho, other):
    """Every orbit question that reads the spectrum of ``rho``."""
    return {
        "spectral_split": spectral_split,
        "classify_orbit": classify_orbit,
        "bound_constant": lambda r: bound_constant(r, other),
        "connect_alpha": lambda r: connect_alpha(r, other),
        "connect_phi": lambda r: connect_phi(r, other),
        "gns_construct": gns_construct,
        "purity_check": purity_check,
        "isotropy_report": isotropy_report,
        "tangent_map_rank": tangent_map_rank,
    }


@pytest.mark.parametrize("n, rank", [(1, 1), (4, 1), (4, 2), (6, 6), (9, 4)])
def test_one_eigh_per_value(eigh_calls, n, rank):
    rng = np.random.default_rng(10 * n + rank)
    rho = validate_state(random_state(rng, n, rank).matrix)
    other = validate_state(random_state(rng, n, rank).matrix)
    spectral_split(other)
    eigh_calls.clear()
    asked = {name: ask(rho) for name, ask in questions(rho, other).items()}
    # the one eigh is of rho's Hermitian part
    assert len(eigh_calls) == 1
    m = rho.matrix
    assert eigh_calls[0].tobytes() == ((m + m.conj().T) / 2.0).tobytes()
    # without a record: a class-built value on a writable copy decomposes on every call
    for name, ask in questions(rho, other).items():
        assert same_bits(asked[name], ask(StateDensity(matrix=np.array(m)))), name
    fresh = sorted_eigh(m)
    split = asked["spectral_split"]
    assert split.eigenvalues.tobytes() == fresh.eigenvalues[:rank].tobytes()
    assert same_bits(split.full_basis(), fresh.eigenvectors)


def test_record_is_tolerance_free():
    # eigenvalue 1e-10 lies above the rank cut at scale 1 (about 2e-12) and below
    # it at scale 1e3 (about 2e-9)
    u = random_unitary(np.random.default_rng(3), 3)
    m = (u * np.array([0.5, 0.5 - 1e-10, 1e-10])) @ u.conj().T
    rho = validate_state(m)
    try:
        for scale, rank in [(1.0, 3), (1e3, 2), (1.0, 3)]:
            config.set_tolerance_scale(scale)
            assert spectral_split(rho).support_dim == rank
            assert same_bits(spectral_split(rho), spectral_split(validate_state(m)))
            assert classify_orbit(rho).rank == rank
    finally:
        config.set_tolerance_scale(1.0)


def two_states(seed=5, n=4):
    rng = np.random.default_rng(seed)
    return random_state(rng, n, n).matrix, random_state(rng, n, 2).matrix


def test_writable_matrix_is_decomposed_on_every_call():
    first, second = two_states()
    a = np.array(first)
    value = PositiveFunctional(matrix=a)
    assert spectral_split(value).support_dim == 4
    a[...] = second
    assert same_bits(spectral_split(value), spectral_split(validate_positive(second)))


def test_read_only_view_of_writable_memory_is_decomposed_on_every_call():
    first, second = two_states()
    memory = np.array(first)
    view = memory.view()
    view.flags.writeable = False
    value = PositiveFunctional(matrix=view)
    assert spectral_split(value).support_dim == 4
    memory[...] = second
    assert same_bits(spectral_split(value), spectral_split(validate_positive(second)))


def test_validated_value_keeps_its_record(eigh_calls):
    rho = validate_state(two_states()[1])
    first = spectral_split(rho)
    assert len(eigh_calls) == 1
    assert same_bits(spectral_split(rho), first)
    assert classify_orbit(rho).rank == 2
    assert len(eigh_calls) == 1


def test_two_threads_share_one_record():
    rng = np.random.default_rng(8)
    for rank in (1, 3, 6):
        m = random_state(rng, 6, rank).matrix
        expected = {ask: ask(validate_state(m)) for ask in (spectral_split, classify_orbit)}
        rho = validate_state(m)
        asks = list(expected) * 100
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda ask: ask(rho), asks))
        for ask, result in zip(asks, got):
            assert same_bits(result, expected[ask])
