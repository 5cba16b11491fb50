import ctypes
import glob
import os
import sys
from pathlib import Path

import numpy
import pytest

# Make the shared oracles importable regardless of how pytest is invoked.
sys.path.insert(0, str(Path(__file__).parent))

from stategeom import config


@pytest.fixture(autouse=True)
def _reset_tolerance_scale():
    """Keep the global tolerance multiplier at 1 between tests."""
    config.set_tolerance_scale(1.0)
    yield
    config.set_tolerance_scale(1.0)


def _openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS loaded for this CPU, or "unknown"."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_terminal_summary(terminalreporter):
    """End every run with the numpy version and the OpenBLAS kernel, which decide
    the bits of the exact-bit pins (README, on determinism)."""
    try:
        kernel = _openblas_kernel()
    except Exception:  # a report line must never fail the run
        kernel = "unknown"
    terminalreporter.write_line(f"numpy {numpy.__version__}, OpenBLAS kernel {kernel}")
