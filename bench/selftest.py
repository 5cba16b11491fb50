#!/usr/bin/env python3
"""Self-test of the benchmark's checks and of a clean run.

    python3 bench/selftest.py [--trace]

1. The first operation of every kind in lib_small and lib_large passes its
   check on the real result and fails it once the result is corrupted.
2. Every subcommand of the cli_cold rotation passes its check on the real
   output and fails on corrupted output; a non-zero exit counts as failed.
3. The per-layer names in BENCHMARK.json are the ones a traced run prints.
4. ``run.py`` on each workload (one pass, seed 1) reports no failed
   operation, so error_rate is 0; with ``--trace`` the traced runs too.

Prints every disagreement and exits with 1 if there is any.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run  # pins BLAS threads before numpy does any work

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402
import lib_ops  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def corrupt_text(text: str) -> str:
    """Replace the last number in the text by 1.5 x + 1."""
    last = list(NUMBER.finditer(text))[-1]
    value = repr(float(last.group()) * 1.5 + 1.0)
    return text[:last.start()] + value + text[last.end():]


def corrupt(x):
    """The same value with every number in it moved (None and the like stay)."""
    if isinstance(x, (bool, np.bool_)):
        return not x
    if isinstance(x, (int, np.integer)):
        return x + 1
    if isinstance(x, float):
        return x * 1.5 + 1.0
    if isinstance(x, np.ndarray):
        y = np.array(x)
        if y.size:
            y.flat[0] += 1e-3 * (1.0 + abs(y.flat[0]))
        return y
    if isinstance(x, str):
        return corrupt_text(x) if NUMBER.search(x) else x
    if isinstance(x, (tuple, list)):
        return type(x)(corrupt(v) for v in x)
    if dataclasses.is_dataclass(x):
        return dataclasses.replace(x, **{f.name: corrupt(getattr(x, f.name))
                                         for f in dataclasses.fields(x) if f.init})
    return x  # nothing numeric in it; an uncorrupted result is caught below


def fails(check, *args) -> bool:
    try:
        check(*args)
    except Exception:  # any raise marks the result as failed, as in the worker
        return True
    return False


def lib_checks(workdir: Path) -> list[str]:
    problems = []
    data = {"lib_small": inputs.lib_small_inputs(1), "lib_large": inputs.lib_large_inputs(1)}
    for name, ops in lib_ops.build(data, workdir).items():
        saved: dict = {}
        for op in lib_ops.warmup_ops(ops):
            _, _, ok, result = worker.execute(op, saved, [])
            if not ok:
                problems.append(f"{name} {op.key}: real result failed its check")
            elif not fails(op.check, corrupt(result), saved):
                problems.append(f"{name} {op.key}: corrupted result passed its check")
    return problems


def cli_checks(tmp: Path) -> list[str]:
    problems = []
    files = inputs.cli_inputs(1, tmp / "cli")
    deadline = run.time.monotonic() + run.RUN_LIMIT_S
    for entry in run.cli_rotation(files):
        sub, _, check = entry
        _, _, ok, msg, _ = run.invoke(entry, tmp, deadline, importtime=False)
        if not ok:
            problems.append(f"cli {sub}: real output failed: {msg}")
        elif not fails(check, corrupt_text((tmp / "cli.out").read_text())):
            problems.append(f"cli {sub}: corrupted output passed its check")
    bad = ("validate", ["validate", files["paths"]["g"]], lambda out: None)
    if run.invoke(bad, tmp, deadline, importtime=False)[2]:
        problems.append("cli: a non-zero exit was not counted as failed")
    return problems


def table_check() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if spec["per_layer"] != spans.per_layer_table():
        return ["BENCHMARK.json per_layer differs from spans.per_layer_table()"]
    return []


def clean_runs(trace_too: bool) -> list[str]:
    problems = []
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1) if trace_too else (0,):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            res = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            if res.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {res.returncode}: "
                                f"{res.stderr.strip()[-300:]}")
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            print(f"{workload} trace {trace}: {result['failed']} failed of "
                  f"{result['attempted']}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed")
    return problems


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as d:
        problems = lib_checks(Path(d)) + cli_checks(Path(d)) + table_check()
    problems += clean_runs("--trace" in sys.argv[1:])
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
