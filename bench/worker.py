"""One lib workload process, spawned by run.py with a JSON job as argv[1].

Job keys: ``workload`` (lib_small, lib_large, or null for a process that
only probes), ``seed``, ``workdir``, ``setup_only``, ``passes`` (untraced),
``trace_passes`` and ``probe_keys`` (both 0 / empty outside a traced run),
and ``reference`` (the name of the speed.py sampler that scales times, or
null).
Probe keys name per-layer rows (``<layer>.<function>.n<N>``) that the traced
passes did not produce; one traced pass over the operations with those keys
fills them in.

The process generates its inputs (numpy only), imports stategeom, wraps the
inputs in the program's types, runs one warm-up call of every operation kind
and then the timed passes.  It prints one JSON object on stdout and nothing
else.  Input generation and wrapping are reported as ``excluded_s`` so the
runner can leave them out of set-up time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np  # counts as set-up: stategeom needs it too

import inputs
import spans
import speed
import summary

FAILURES_KEPT = 5
SETUP_REFS = 5


def execute(op, saved: dict, failures: list) -> tuple[int, int, bool, object]:
    """Time one call; check it outside the timed interval."""
    t0 = time.perf_counter_ns()
    try:
        result = op.call(saved)
        ok = True
    except Exception as exc:  # any raise is a failed operation, recorded below
        result, ok = exc, False
    t1 = time.perf_counter_ns()
    if ok:
        try:
            op.check(result, saved)
        except Exception as exc:  # a broken invariant, or a check that could not run
            result, ok = exc, False
    if ok and op.save:
        saved[op.save] = result
    if not ok and len(failures) < FAILURES_KEPT:
        failures.append(f"{op.key}: {type(result).__name__}: {result}")
    return t0, t1, ok, result


def retained_bytes(triple) -> int:
    """Bytes held by the triple's arrays, computed from their nbytes."""
    return int(sum(v.nbytes for v in vars(triple).values() if isinstance(v, np.ndarray)))


def run_passes(ops, passes: int, rec=None, probe: bool = False, reference=None) -> dict:
    """Run whole passes; with a recorder, add a span per pass and per call.

    With a ``reference`` sampler from speed.py, the reference is sampled
    between calls at most every 0.2 s, and each call's latency is scaled by
    the samples around it; pass rates and the latency summary use the scaled
    values.
    """
    latencies, oks, ref_at, refs, failures = [], [], [], [], []
    retained = None
    next_ref = 0
    for p in range(passes):
        saved: dict = {}
        pass_span = rec.add("probe" if probe else "pass", None, time.perf_counter_ns(), 0) \
            if rec else None
        for op_id, op in enumerate(ops):
            if reference and time.perf_counter_ns() >= next_ref:
                refs.append(reference())
                next_ref = time.perf_counter_ns() + speed.INTERVAL_NS
            t0, t1, ok, result = execute(op, saved, failures)
            latencies.append((t1 - t0) / 1e9)
            oks.append(ok)
            ref_at.append(len(refs) - 1)
            if rec is not None:
                rec.add(op.kind, None if probe else op.layer, t0, t1, parent=pass_span,
                        n=op.n, op=f"{p}.{op_id}", ok=ok)
                if ok and op.key == spans.RETAINED_KEY:
                    retained = retained_bytes(result)
        if rec is not None:
            rec.spans[pass_span]["end"] = time.perf_counter_ns()
    if refs:
        slow = speed.local_slowness(refs)
        scaled = [t / slow[i] for t, i in zip(latencies, ref_at)]
    else:
        scaled = latencies
    out = {"attempted": len(latencies), "failed": oks.count(False),
           "busy_s": sum(latencies), "refs": len(refs), "failures": failures}
    if latencies:
        k = len(ops)
        out["pass_rates"] = [sum(oks[i:i + k]) / sum(scaled[i:i + k])
                             for i in range(0, len(scaled), k)]
        out["factor"] = sum(scaled) / sum(latencies)
        out["latency"] = summary.latency_summary(scaled)
        out["raw_latency"] = summary.latency_summary(latencies)
    if retained is not None:
        out["retained_bytes"] = retained
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    t = time.monotonic()
    data = {"lib_small": inputs.lib_small_inputs(job["seed"]),
            "lib_large": inputs.lib_large_inputs(job["seed"])}
    excluded = time.monotonic() - t

    import stategeom

    import lib_ops

    t = time.monotonic()
    schedules = lib_ops.build(data, Path(job["workdir"]))
    excluded += time.monotonic() - t
    own = schedules[job["workload"]] if job["workload"] else []
    ref = speed.SAMPLERS.get(job["reference"])
    out = {"warmup": run_passes(lib_ops.warmup_ops(own), 1)}
    # Set-up is imports and small warm-up calls, so the small reference
    # scales it on either workload.
    out.update(t_ready=time.monotonic(), excluded_s=excluded,
               stategeom_file=stategeom.__file__,
               setup_factor=speed.factor([speed.sample() for _ in range(SETUP_REFS if ref else 0)]))
    if job["setup_only"]:
        print(json.dumps(out))
        return 0

    out["measure"] = run_passes(own, job["passes"], reference=ref)
    rec = spans.Recorder()
    if job["trace_passes"]:
        out["traced"] = run_passes(own, job["trace_passes"], rec, reference=ref)
    seen = {f"{s['name']}.n{s['n']}" for s in rec.spans if s["n"] is not None}
    missing = set(job["probe_keys"]) - seen
    probe_ops = [op for name in ("lib_small", "lib_large") for op in schedules[name]
                 if op.key in missing]
    if probe_ops:
        out["probe"] = run_passes(probe_ops, 1, rec, probe=True)
    out["spans"] = rec.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
