#!/usr/bin/env python3
"""Compare two sets of benchmark runs: the parent commit against a change.

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are directories of run records as ``run.py`` writes them to
``bench/out/runs/`` (span files are skipped), or single record files.  Make
at least ten runs per side with the same ``--seconds``, alternating sides.

One row per (workload, metric): each side's median and quartiles with its
run count, the ratio change/base with the base median it is taken of, and a
verdict.  For end-to-end metrics the verdict uses the bound in
BENCHMARK.json: ``unresolved`` when either side's spread (interquartile
distance over median) exceeds the bound, unless every change run beats every
base run; ``worse`` when the change median is worse by more than the bound;
``better`` when it is better by more than the base's own spread;
``no change`` otherwise.  Per-layer metrics have no bound and get no
verdict.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load(path: Path) -> dict:
    """{(workload, metric): [values]} over every record under ``path``."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    out = defaultdict(list)
    for f in files:
        if f.name.endswith("-spans.json"):
            continue
        rec = json.loads(f.read_text())
        for name, m in rec["metrics"].items():
            out[(rec["workload"], name)].append(m["value"])
    return out


def metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m for m in spec["end_to_end"]}
    table.update({m["name"]: {**m, "bound": None} for m in spec["per_layer"]})
    return table


def verdict(base: list, change: list, better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    sign = 1.0 if better == "lower" else -1.0
    beats = all(sign * c < sign * b for c in change for b in base)
    if summary.spread(base) > bound or summary.spread(change) > bound:
        return "better, every run" if beats else "unresolved"
    _, mb, _ = summary.quartiles(base)
    _, mc, _ = summary.quartiles(change)
    worse_by = sign * (mc - mb) / abs(mb)
    if worse_by > bound:
        return "worse"
    if -worse_by > summary.spread(base):
        return "better"
    return "no change"


def fmt(values: list) -> str:
    q1, med, q3 = summary.quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    table = metric_table()
    print("workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\t"
          "ratio change/base (base)\tverdict")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        spec = table.get(name, {"better": "lower", "bound": None})
        b, c = base[key], change[key]
        mb, mc = summary.quartiles(b)[1], summary.quartiles(c)[1]
        ratio = f"{mc / mb:.4f} (of {mb:.5g})" if mb else "n/a (base median 0)"
        print(f"{workload}\t{name}\t{fmt(b)}\t{fmt(c)}\t{ratio}\t"
              f"{verdict(b, c, spec['better'], spec['bound'])}")
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]}\t{key[1]}\tonly on the {'base' if key in base else 'change'} side")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
