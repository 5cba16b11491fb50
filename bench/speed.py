"""Machine-speed references for scaling measured times.

A shared 2-vCPU Xeon virtual machine changes its effective CPU speed
by up to 2x within minutes while nothing in the program changes; thread CPU
time moves with wall time, so it is no way out.  Where a fixed reference
workload tracks that drift, a run samples it between its operations as a
slowness (reference time over its nominal time) and reports times divided by
the slowness, i.e. at the nominal speed.  Throughputs are multiplied by it.

- lib_small: ``sample()``, small-matrix numpy calls like the workload's own,
  at most every 0.2 s between calls.
- lib_large: ``sample_large()``, a dense Hermitian eigensolve and product at
  n=384, at most every 0.2 s between calls.  Large LAPACK calls slow far
  less than small ones in the same slow spells, so the small reference
  does not track them.
- cli_cold: ``process_sample()``, the start-up of a bare interpreter, after
  every invocation; it tracks process start-up far better.

Each call or invocation is divided by the median of the five samples around
it.  The host's speed switches between levels that last seconds, so one
factor per phase would be the median of a two-level mix and would jump
between the levels from run to run.
Neither reference touches stategeom, so a change to the program cannot move
it.  The scale factors go into the run record and the report lines.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Reference times at the nominal speed (a quiet 2-vCPU Xeon, BLAS on one thread).
NOMINAL_S = 0.002
NOMINAL_LARGE_S = 0.08
NOMINAL_PROCESS_S = 0.06
INTERVAL_NS = 200_000_000
LOCAL_HALF_WIDTH = 2

_rng = np.random.default_rng(0)
_MATS = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
         for n in (4, 4, 16, 16)]
_BIG = _rng.standard_normal((384, 384)) + 1j * _rng.standard_normal((384, 384))
_BIG_H = (_BIG + _BIG.conj().T) / 2.0


def sample() -> float:
    """Slowness of a fixed mix of small-matrix numpy calls (1 = nominal speed)."""
    t0 = time.perf_counter()
    for _ in range(3):
        for a in _MATS:
            h = (a + a.conj().T) / 2.0
            np.linalg.eigh(h)
            np.linalg.svd(a, compute_uv=False)
            b = a @ h @ a.conj().T
            float(np.trace(b).real)
            float(np.linalg.norm(b))
            float(np.abs(b).max())
    return (time.perf_counter() - t0) / NOMINAL_S


def sample_large() -> float:
    """Slowness of a dense complex eigensolve and product at n=384."""
    t0 = time.perf_counter()
    np.linalg.eigh(_BIG_H)
    _BIG @ _BIG
    return (time.perf_counter() - t0) / NOMINAL_LARGE_S


SAMPLERS = {"small": sample, "large": sample_large}


def process_sample() -> float:
    """Slowness of starting and stopping a bare interpreter (``python -c pass``).

    It runs without PYTHONPATH, so nothing of the checkout is imported.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - t0) / NOMINAL_PROCESS_S


def factor(slowness: list[float]) -> float:
    """Scale for times measured alongside these samples; 1 when there are none."""
    return 1.0 / statistics.median(slowness) if slowness else 1.0


def local_slowness(slowness: list[float]) -> list[float]:
    """For each sample, the median of the five samples around it."""
    w = LOCAL_HALF_WIDTH
    return [statistics.median(slowness[max(0, i - w):i + w + 1])
            for i in range(len(slowness))]
