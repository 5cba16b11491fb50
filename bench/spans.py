"""Spans of the traced run, their self times, and the per-layer metric table.

A span is a dict with ``id``, ``parent``, ``name``, ``layer``, ``n``, ``op``,
``start``, ``end`` (integer nanoseconds) and ``ok``.  Library spans are
recorded by the benchmark around each public call (``<layer>.<function>``),
with the pass as parent.  CLI spans are one per invocation (``cli.<sub>``);
their children come from the interpreter's own ``-X importtime`` report,
one span per imported module.  Spans stay in memory and are written once,
when the run ends.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("linalg", "states", "actions", "orbits", "isotropy", "tangent", "gns",
          "serialize", "cli")

CLI_SUBCOMMANDS = ("validate", "act-alpha", "act-phi", "connect-alpha", "connect-phi",
                   "isotropy", "tangent", "flow", "gns", "truncate", "recombine")

# Cumulative import time of these modules, from -X importtime.
IMPORT_MODULES = ("stategeom.cli", "scipy.linalg", "click", "numpy")

# Per-size rows of the per-layer table: <layer>.<function>.n<N>.p50_s.
LIB_ROWS = (
    ["serialize.load_matrix_file.n64", "serialize.dumps_canonical.n64", "serialize.flow_csv.n16"]
    + [f"linalg.{f}.n{n}" for f in ("hermitian_eig", "matrix_sqrt_psd", "polar", "inertia",
                                    "matrix_exp") for n in (4, 16)]
    + [f"linalg.{f}.n64" for f in ("hermitian_eig", "matrix_exp")]
    + [f"states.{f}.n{n}" for f in ("validate_state", "spectral_split", "classify_orbit")
       for n in (4, 16)]
    + [f"actions.{f}.n{n}" for f in ("group_element", "phi", "alpha", "classical_phi")
       for n in (4, 16)]
    + [f"orbits.{f}.n{n}" for f in ("connect_phi", "connect_alpha", "same_orbit_alpha")
       for n in (4, 16)]
    + ["orbits.convex_recombine.n32", "orbits.convex_recombine.n64", "orbits.connect_phi.n64"]
    + [f"isotropy.isotropy_report.n{n}" for n in (16, 24, 32)]
    + [f"isotropy.isotropy_membership_{a}.n{n}" for a in ("alpha", "phi") for n in (4, 16)]
    + ["tangent.flow.n64", "tangent.tangent_map_rank.n16"]
    + [f"tangent.{f}.n{n}" for f in ("tangent_phi", "fd_tangent_check") for n in (4, 16)]
    + [f"gns.gns_construct.n{n}" for n in (16, 24, 32)]
    + ["gns.rep.n32", "gns.purity_check.n5"]
    + [f"gns.{f}.n{n}" for f in ("gns_construct", "purity_check") for n in (2, 3)]
)

RETAINED_BYTES = "gns.retained_bytes.n32"
RETAINED_KEY = "gns.gns_construct.n32"
OVERHEAD = "trace.overhead"


def per_layer_table() -> list[dict]:
    """Every per-layer metric a traced run prints, in BENCHMARK.json order."""
    rows = [(f"import.{m}_s", "s", "lower") for m in IMPORT_MODULES]
    rows += [(f"cli.{sub}.p50_s", "s", "lower") for sub in CLI_SUBCOMMANDS]
    rows += [(f"{key}.p50_s", "s", "lower") for key in LIB_ROWS]
    rows.append((RETAINED_BYTES, "bytes", "lower"))
    for layer in LAYERS:
        rows += [(f"{layer}.busy_s", "s", "lower"), (f"{layer}.calls", "count", "higher"),
                 (f"{layer}.failed", "count", "lower")]
    rows.append((OVERHEAD, "fraction", "lower"))
    return [{"name": name, "unit": unit, "better": better} for name, unit, better in rows]


class Recorder:
    """In-memory span list with sequential ids."""

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, name: str, layer: str | None, start: int, end: int, parent=None,
            n=None, op=None, ok=True) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "parent": parent, "name": name, "layer": layer,
                           "n": n, "op": op, "start": start, "end": end, "ok": ok})
        return span_id

    def extend(self, spans: list[dict]) -> None:
        """Append spans recorded elsewhere, renumbering their ids and parents."""
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append({**s, "id": s["id"] + base, "parent": parent})


def self_times(spans: list[dict]) -> dict[int, int]:
    """Duration minus the part of the interval covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_counters(spans: list[dict]) -> dict[str, float]:
    """<layer>.busy_s (sum of self times), .calls and .failed for every layer."""
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        own = [s for s in spans if s["layer"] == layer]
        out[f"{layer}.busy_s"] = sum(selfs[s["id"]] for s in own) / 1e9
        out[f"{layer}.calls"] = len(own)
        out[f"{layer}.failed"] = sum(1 for s in own if not s["ok"])
    return out


def row_medians(spans: list[dict]) -> dict[str, float]:
    """Median duration in seconds of the spans of each <name>.n<N> key."""
    by_key = defaultdict(list)
    for s in spans:
        if s["n"] is not None:
            by_key[f"{s['name']}.n{s['n']}"].append((s["end"] - s["start"]) / 1e9)
    return {key: statistics.median(v) for key, v in by_key.items()}


def parse_importtime(stderr: str) -> list[dict]:
    """Top-level import nodes ({module, self_us, cum_us, children}) in load order.

    ``-X importtime`` prints one line per module when its import finishes,
    children before their parent, nested by two spaces of indentation.
    """
    pending = defaultdict(list)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = {"module": name.strip(), "self_us": int(self_us), "cum_us": int(cum_us),
                "children": pending.pop(depth + 1, [])}
        pending[depth].append(node)
    return pending[0]


def module_layer(module: str) -> str | None:
    parts = module.split(".")
    if parts[0] == "stategeom" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


def add_import_spans(rec: Recorder, nodes: list[dict], parent: int, start: int) -> int:
    """Record import nodes as spans laid back to back from ``start``.

    The interpreter reports durations and nesting, not start times; each
    child is placed after its previous sibling, so self times match the
    report exactly.  Returns the end of the last span.
    """
    t = start
    for node in nodes:
        end = t + node["cum_us"] * 1000
        span = rec.add(f"import.{node['module']}", module_layer(node["module"]), t, end,
                       parent=parent)
        add_import_spans(rec, node["children"], span, t)
        t = end
    return t


def import_cumulative(nodes: list[dict]) -> dict[str, float]:
    """Cumulative seconds of each module in IMPORT_MODULES for one invocation.

    ``python -m stategeom.cli`` runs the module as ``__main__``, so its cost
    is everything imported at top level after ``runpy``: the package and
    every import the CLI module makes, at any depth.  A module the
    interpreter imports only once appears once in the report.
    """
    out = {m: 0.0 for m in IMPORT_MODULES}
    after_runpy = False
    for node in nodes:
        if after_runpy:
            out["stategeom.cli"] += node["cum_us"] / 1e6
        after_runpy = after_runpy or node["module"] == "runpy"

    def walk(ns):
        for node in ns:
            if node["module"] in IMPORT_MODULES[1:]:
                out[node["module"]] = node["cum_us"] / 1e6
            walk(node["children"])

    walk(nodes)
    return out
