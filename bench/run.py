#!/usr/bin/env python3
"""The stategeom benchmark: one run of one workload.

Run from the repository root:

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with a single client: the next operation
starts when the previous one has ended.  The program is reached only from
outside, by public library calls in a worker process (``worker.py``) or by
``python -m stategeom.cli`` processes, always on this checkout's ``src/``
with BLAS pinned to one thread.  Inputs are generated from ``--seed`` by
``inputs.py`` (numpy only) and every result is checked by ``checks.py``
outside the timed interval.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
a separate traced run prints the per-layer metrics.  The last line of
stdout is one JSON object; the lines before it repeat the numbers with their
sample counts, bases and the run metadata.  A record of the run (and, when
traced, every span) is written under ``bench/out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)  # before numpy is imported below

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUN_LIMIT_S = 170.0
CLI_N = 4
CLI_FLOW_STEPS = 50


@dataclass(frozen=True)
class Workload:
    # Nominal wall seconds of one pass, checks included, on a 2-vCPU Xeon.  A
    # run makes max(1, round(seconds / pass_s)) whole passes, so the mix of
    # operations and the sample count of a run do not depend on how fast the
    # program is; a tail percentile taken at another sample count would land
    # on another operation of the mix.
    pass_s: float
    # Set-up repetitions per run; setup_s is their median.  For the lib
    # workloads each is a worker process started up to its first timed call.
    # For cli_cold every invocation is a complete set-up, so this counts
    # warm-up rounds of one invocation per subcommand.
    setups: int
    # The reference that scales measured times for the drifting speed of the
    # host: small or large in-process numpy work, or the start-up of a bare
    # interpreter (see speed.py, which says why each workload gets its own).
    reference: str


WORKLOADS = {
    # A CLI user pays for interpreter start, imports, click dispatch and
    # small-file serialize on every call; compute is a few percent of it.
    # This shows import and CLI work (lazy scipy, for instance); rewrites of
    # the compute layers should leave it unchanged.  11 subcommands at n=4.
    "cli_cold": Workload(pass_s=7.0, setups=1, reference="process"),
    # Many cheap certified calls (0.05-2 ms) at n in {2, 3, 4, 8, 16} and
    # ranks full, 1 and n/2, where Python and validation overhead dominate.
    # Diagnostics must cost nothing here when off; GNS and isotropy at tiny
    # n catch asymptotic rewrites that add fixed cost.  Bypasses the
    # expensive gns, isotropy_report and require_tracial paths.
    "lib_small": Workload(pass_s=0.15, setups=3, reference="small"),
    # Structural operations at the sizes where their asymptotic cost
    # dominates: gns, isotropy and orbits.require_tracial own most of the
    # time and the memory here, so a rewrite that helps large n but costs
    # small n shows up against lib_small.
    "lib_large": Workload(pass_s=12.0, setups=3, reference="large"),
}

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    return {**os.environ, **PIN, "PYTHONPATH": str(SRC)}


def spawn(argv: list, out: Path, err: Path, deadline: float) -> tuple[float, int, int, int]:
    """Run one child to its exit: (monotonic spawn time, start ns, end ns, exit code)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t_spawn = time.monotonic()
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        # wait(timeout=...) polls with sleeps of up to 50 ms, which would
        # quantize the measured wall time; block in waitpid and let a timer
        # kill the child at the deadline instead.
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            rc = proc.wait()
            t1 = time.perf_counter_ns()
        finally:
            killer.cancel()
    if rc == -signal.SIGKILL and time.monotonic() >= deadline:
        raise BenchError(f"{argv[1:4]} did not finish within the run limit")
    return t_spawn, t0, t1, rc


def tail(path: Path, lines: int = 3) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


def require_checkout_module(path: str) -> str:
    """The imported stategeom must be this checkout's src/stategeom."""
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"stategeom resolved to {path}, outside {SRC}")
    return path


def run_metadata() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    def command(*argv) -> str | None:
        try:
            res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(PIN["OPENBLAS_NUM_THREADS"]),
        "l3_bytes": command("getconf", "LEVEL3_CACHE_SIZE"),
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        meta["git_sha"] = command("git", "rev-parse", "HEAD")
        status = command("git", "status", "--porcelain", "--untracked-files=no")
        meta["git_dirty"] = None if status is None else bool(status)
    return meta


# --- lib workloads ------------------------------------------------------------


def worker(job: dict, tmp: Path, deadline: float) -> dict:
    out, err = tmp / "worker.out", tmp / "worker.err"
    t_spawn, _, _, rc = spawn([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                              out, err, deadline)
    if rc != 0:
        raise BenchError(f"worker exited with {rc}: {tail(err)}")
    res = json.loads(out.read_text().strip().splitlines()[-1])
    require_checkout_module(res["stategeom_file"])
    res["setup_s"] = (res["t_ready"] - t_spawn - res["excluded_s"]) * res["setup_factor"]
    return res


def lib_job(args, tmp: Path, passes: int) -> dict:
    return {"workload": args.workload, "seed": args.seed, "workdir": str(tmp / "files"),
            "setup_only": False, "passes": passes, "trace_passes": 0, "probe_keys": [],
            "reference": WORKLOADS[args.workload].reference}


def run_lib(args, tmp: Path, deadline: float, passes: int) -> dict:
    w = WORKLOADS[args.workload]
    job = lib_job(args, tmp, passes)
    setups = [worker({**job, "setup_only": True}, tmp, deadline)["setup_s"]
              for _ in range(w.setups - 1)]
    res = worker(job, tmp, deadline)
    setups.append(res["setup_s"])
    return {"measure": res["measure"], "warmup": res["warmup"], "setups": setups,
            "stategeom_file": res["stategeom_file"]}


def trace_lib(args, tmp: Path, deadline: float, passes: int, rec: spans.Recorder) -> dict:
    half = max(1, passes // 2)
    res = worker({**lib_job(args, tmp, half), "trace_passes": half,
                  "probe_keys": list(spans.LIB_ROWS)}, tmp, deadline)
    rec.extend(res["spans"])
    cli = cli_phase(cli_rotation(inputs.cli_inputs(args.seed, tmp / "cli")), 1, tmp, deadline,
                    rec, probe=True)
    lib_phases = [res["traced"], res.get("probe") or {}]
    return {"untraced": res["measure"], "traced": res["traced"],
            "others": [res["warmup"], res.get("probe"), cli],
            "retained_bytes": next((p["retained_bytes"] for p in lib_phases
                                    if "retained_bytes" in p), None),
            "imports": cli["imports"], "stategeom_file": res["stategeom_file"]}


# --- cli_cold -----------------------------------------------------------------


def cli_rotation(files: dict) -> list[tuple]:
    """(subcommand tag, argv, check) for the 11 invocations of one pass."""
    p, a, lam = files["paths"], files["arrays"], files["lam"]
    grid = np.linspace(0.0, 1.0, CLI_FLOW_STEPS)
    return [
        ("validate", ["validate", p["state_r3"]],
         lambda out: checks.cli_validate(out, a["state_r3"], 3)),
        ("act-alpha", ["act", "alpha", p["g"], p["state"]],
         lambda out: checks.cli_act(out, "alpha", a["g"], a["state"])),
        ("act-phi", ["act", "phi", p["g"], p["state"]],
         lambda out: checks.cli_act(out, "phi", a["g"], a["state"])),
        ("connect-alpha", ["connect", "alpha", p["state"], p["state_b"]],
         lambda out: checks.cli_connect(out, "alpha", a["state"], a["state_b"])),
        ("connect-phi", ["connect", "phi", p["state"], p["state_b"]],
         lambda out: checks.cli_connect(out, "phi", a["state"], a["state_b"])),
        ("isotropy", ["isotropy", p["state_r3"]],
         lambda out: checks.cli_isotropy(out, CLI_N, 3)),
        ("tangent", ["tangent", p["state"], p["gen"]],
         lambda out: checks.cli_tangent(out, a["state"], a["gen"])),
        ("flow", ["flow", p["state"], p["gen"], "--t0", "0", "--t1", "1",
                  "--steps", str(CLI_FLOW_STEPS)],
         lambda out: checks.cli_flow(out, a["state"], a["gen"], grid)),
        ("gns", ["gns", p["state"]], lambda out: checks.cli_gns(out, a["state"], CLI_N)),
        ("truncate", ["truncate", p["truncate"]],
         lambda out: checks.cli_truncate(out, files["truncation"])),
        ("recombine", ["recombine", p["tau"], p["g"], p["g2"], repr(lam)],
         lambda out: checks.cli_recombine(out, a["tau"], a["g"], a["g2"], lam)),
    ]


def invoke(entry: tuple, tmp: Path, deadline: float, importtime: bool):
    """One CLI process: (start ns, end ns, ok, failure message, stderr text)."""
    sub, argv, check = entry
    flags = ["-X", "importtime"] if importtime else []
    out, err = tmp / "cli.out", tmp / "cli.err"
    _, t0, t1, rc = spawn([sys.executable, *flags, "-m", "stategeom.cli", *argv],
                          out, err, deadline)
    stderr = err.read_text(errors="replace")
    if rc != 0:
        return t0, t1, False, f"{sub}: exit {rc}: {tail(err)}", stderr
    try:
        check(out.read_text())
    except Exception as exc:  # a broken invariant or unparsable output: a failed operation
        return t0, t1, False, f"{sub}: {type(exc).__name__}: {exc}", stderr
    return t0, t1, True, None, stderr


def cli_phase(rotation: list, passes: int, tmp: Path, deadline: float,
              rec: spans.Recorder | None = None, probe: bool = False) -> dict:
    """Whole passes over the rotation; traced passes run under -X importtime.

    Outside a probe, a process-start reference follows every invocation and
    the reported latencies and pass rates are scaled by it (see speed.py).
    """
    latencies, failures, refs, ok_flags, failed = [], [], [], [], 0
    imports = {m: [] for m in spans.IMPORT_MODULES}
    for p in range(passes):
        pass_span = rec.add("probe" if probe else "pass", None, time.perf_counter_ns(), 0) \
            if rec else None
        for i, entry in enumerate(rotation):
            t0, t1, ok, msg, stderr = invoke(entry, tmp, deadline, importtime=rec is not None)
            if not probe:
                refs.append(speed.process_sample())
            latencies.append((t1 - t0) / 1e9)
            ok_flags.append(ok)
            failed += not ok
            if msg and len(failures) < 5:
                failures.append(msg)
            if rec is not None:
                layer = None if probe else "cli"
                span = rec.add(f"cli.{entry[0]}", layer, t0, t1, parent=pass_span,
                               op=f"{p}.{i}", ok=ok)
                nodes = spans.parse_importtime(stderr)
                start = len(rec.spans)
                spans.add_import_spans(rec, nodes, span, t0)
                if probe:
                    for s in rec.spans[start:]:
                        s["layer"] = None
                for module, value in spans.import_cumulative(nodes).items():
                    imports[module].append(value)
        if rec is not None:
            rec.spans[pass_span]["end"] = time.perf_counter_ns()
    scaled = ([t / s for t, s in zip(latencies, speed.local_slowness(refs))]
              if refs else latencies)
    k = len(rotation)
    pass_rates = [sum(ok_flags[i:i + k]) / sum(scaled[i:i + k])
                  for i in range(0, len(scaled), k)]
    return {"attempted": len(latencies), "failed": failed, "busy_s": sum(latencies),
            "pass_rates": pass_rates, "factor": sum(scaled) / sum(latencies),
            "refs": len(refs), "failures": failures, "latencies": scaled,
            "latency": summary.latency_summary(scaled),
            "raw_latency": summary.latency_summary(latencies), "imports": imports}


def cli_module_file(tmp: Path, deadline: float) -> str:
    out, err = tmp / "probe.out", tmp / "probe.err"
    code = "import stategeom.cli, stategeom; print(stategeom.__file__)"
    _, _, _, rc = spawn([sys.executable, "-c", code], out, err, deadline)
    if rc != 0:
        raise BenchError(f"cannot import stategeom.cli: {tail(err)}")
    return require_checkout_module(out.read_text().strip())


def run_cli(args, tmp: Path, deadline: float, passes: int) -> dict:
    rotation = cli_rotation(inputs.cli_inputs(args.seed, tmp / "cli"))
    module_file = cli_module_file(tmp, deadline)
    warmup = cli_phase(rotation, WORKLOADS["cli_cold"].setups, tmp, deadline)
    return {"measure": cli_phase(rotation, passes, tmp, deadline), "warmup": warmup,
            "setups": warmup["latencies"], "stategeom_file": module_file}


def trace_cli(args, tmp: Path, deadline: float, passes: int, rec: spans.Recorder) -> dict:
    half = max(1, passes // 2)
    rotation = cli_rotation(inputs.cli_inputs(args.seed, tmp / "cli"))
    module_file = cli_module_file(tmp, deadline)
    untraced = cli_phase(rotation, half, tmp, deadline)
    traced = cli_phase(rotation, half, tmp, deadline, rec)
    probe = worker({**lib_job(args, tmp, 0), "workload": None,
                    "probe_keys": list(spans.LIB_ROWS)}, tmp, deadline)
    rec.extend(probe["spans"])
    return {"untraced": untraced, "traced": traced, "others": [probe["probe"]],
            "retained_bytes": probe["probe"].get("retained_bytes"),
            "imports": traced["imports"], "stategeom_file": module_file}


# --- results ------------------------------------------------------------------


def ops_per_s(phase: dict) -> float:
    """Operations completed and checked per second of timed wall time.

    Taken per pass (already scaled for the host's speed) and reported as the
    median over passes, so a burst of contention moves one pass, not the run.
    """
    return statistics.median(phase["pass_rates"])


def end_to_end(res: dict) -> dict:
    m = res["measure"]
    lat = m["latency"]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "ops_per_s": ops_per_s(m),
        "latency_p50_s": lat["p50"],
        "latency_p90_s": lat["tail"],
        "setup_s": statistics.median(res["setups"]),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(res: dict, rec: spans.Recorder) -> dict:
    values = {f"import.{m}_s": statistics.median(v) for m, v in res["imports"].items()}
    cli_walls: dict = {}
    for s in rec.spans:
        if s["name"].startswith("cli."):
            cli_walls.setdefault(s["name"], []).append((s["end"] - s["start"]) / 1e9)
    values.update({f"{name}.p50_s": statistics.median(v) for name, v in cli_walls.items()})
    values.update({f"{key}.p50_s": v for key, v in spans.row_medians(rec.spans).items()})
    values[spans.RETAINED_BYTES] = res["retained_bytes"]
    values.update(spans.layer_counters(rec.spans))
    values[spans.OVERHEAD] = 1.0 - ops_per_s(res["traced"]) / ops_per_s(res["untraced"])
    # Probe rows are scaled like the traced workload's own rows.
    f = res["traced"]["factor"]
    out = {}
    for row in spans.per_layer_table():
        if values.get(row["name"]) is None:
            raise BenchError(f"traced run produced no value for {row['name']}")
        scale = f if row["unit"] == "s" else 1.0
        out[row["name"]] = {"value": values[row["name"]] * scale, "unit": row["unit"]}
    return out


def phases(res: dict) -> list[dict]:
    if "measure" in res:
        return [res["measure"], res.get("warmup")]
    return [res["untraced"], res["traced"], *res["others"]]


def report_lines(args, meta: dict, res: dict, metrics: dict, attempted: int,
                 failed: int) -> list[str]:
    lines = ["meta: " + " ".join(f"{k}={v}" for k, v in meta.items())]
    if not args.trace:
        m = res["measure"]
        lat = m["latency"]
        mv = {k: v["value"] for k, v in metrics.items()}
        raw = m["raw_latency"]
        lines += [
            f"speed scale={m['factor']:.4g} from {m['refs']} reference samples "
            f"(bench/speed.py): times below are measured times x about that; raw "
            f"p50 {raw['p50']:.6g} s, raw tail {raw['tail']:.6g} s",
            f"ops_per_s={mv['ops_per_s']:.6g} (median over {len(m['pass_rates'])} passes; "
            f"{m['attempted'] - m['failed']} checked ops in {m['busy_s']:.4g} s of timed "
            f"wall time)",
            f"latency_p50_s={mv['latency_p50_s']:.6g} (n={lat['count']})",
            f"latency_p90_s={mv['latency_p90_s']:.6g} (p{100 * lat['tail_q']:.0f} of "
            f"n={lat['count']}: the highest percentile up to p90 with >= 10 samples beyond)",
            f"setup_s={mv['setup_s']:.6g} (median of {len(res['setups'])}: "
            + ", ".join(f"{s:.4g}" for s in res["setups"]) + ")",
            f"peak_rss_mb={mv['peak_rss_mb']:.6g} (largest ru_maxrss over child processes)",
        ]
    else:
        lines += [f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"error_rate={failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for p in phases(res):
        lines += [f"failure: {f}" for f in (p or {}).get("failures", [])]
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "stategeom" / "__init__.py").is_file():
        print(f"no stategeom package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    w = WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / w.pass_s))
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    rec = spans.Recorder()
    try:
        meta = run_metadata()
        cli = args.workload == "cli_cold"
        if args.trace:
            res = (trace_cli if cli else trace_lib)(args, tmp, deadline, passes, rec)
            metrics = per_layer(res, rec)
        else:
            res = (run_cli if cli else run_lib)(args, tmp, deadline, passes)
            metrics = end_to_end(res)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meta["stategeom_file"] = res["stategeom_file"]
    meta["passes"] = passes
    done = [p for p in phases(res) if p]
    meta["speed_scale"] = res["measure" if "measure" in res else "traced"]["factor"]
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, **result}
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (runs / f"{stem}-spans.json").write_text(json.dumps(rec.spans) + "\n")

    for line in report_lines(args, meta, res, metrics, attempted, failed):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
