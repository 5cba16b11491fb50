"""Canonical file encodings: matrix JSON and CSV reports.

Every encoding the package writes lives here: matrix JSON, the CSV reports,
the truncation JSON payload and the streamed GNS payload.

The matrix format is {"n": ..., "kind": ..., "entries": [[re, im], ...]} in
row-major order with a fixed key order, compact separators and a trailing
newline, so saving a loaded canonical file is byte-identical.  JSON numbers
use Python's shortest round-trip float representation; CSV carries a
mandatory header and 17 significant digits.

Arrays reach the text through ``tolist``: complex entries become their
[re, im] pairs by viewing the buffer as float64, and each CSV report is
formatted a row at a time with one row template, so no entry is converted
or type-tested on its own.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import as_operator
from .states import PositiveFunctional, validate_positive, validate_state

__all__ = [
    "KINDS",
    "complex_pairs",
    "matrix_to_jsonable",
    "dumps_canonical",
    "read_json",
    "read_matrix",
    "load_matrix_file",
    "flow_csv",
    "truncation_csv",
    "truncation_json",
    "gns_chunks",
]

KINDS = ("operator", "state", "positive")
_NUMBERS = {int, float}  # exact entry types: no null, true/false or numeric strings
_FLOAT_FIELD = "%.17g"


def complex_pairs(a) -> list:
    """The [re, im] pairs of an array's entries, in row-major order."""
    return np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def matrix_to_jsonable(m: np.ndarray, kind: str = "operator") -> dict:
    """Encode a matrix as the canonical JSON object."""
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}, expected one of {KINDS}")
    return {"n": np.shape(m)[0], "kind": kind, "entries": complex_pairs(m)}


def _decode_matrix(obj) -> tuple[np.ndarray, str, PositiveFunctional | None]:
    """Decode a matrix object into (matrix, kind, functional).

    A ``state`` or ``positive`` object is validated here, once, and the
    validated value is the third item; it is None for an ``operator``.
    """
    if not isinstance(obj, dict):
        raise ValidationError("matrix file must contain a JSON object")
    n, entries = obj.get("n"), obj.get("entries")
    if type(n) is not int or n < 1 or not isinstance(entries, (list, tuple)):
        raise ValidationError("malformed matrix object: needs a positive integer n and a list "
                              f"of entries, got n = {n!r}")
    kind = obj.get("kind", "operator")
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if len(entries) != n * n:
        raise ValidationError(f"expected {n * n} entries for n = {n}, got {len(entries)}")
    try:
        pairs = np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if (pairs is None or pairs.shape != (n * n, 2)
            or not {type(x) for pair in entries for x in pair} <= _NUMBERS):
        raise ValidationError("matrix entries must be [re, im] pairs of numbers")
    m = as_operator(pairs.view(complex).reshape(n, n), "matrix file")
    check = {"state": validate_state, "positive": validate_positive}.get(kind)
    return m, kind, None if check is None else check(m)


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion key order, compact separators."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def read_json(path):
    """Parse a JSON file; ValidationError when it is not UTF-8 JSON or nests
    deeper than the parser's recursion limit."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def read_matrix(path) -> tuple[np.ndarray, str, PositiveFunctional | None]:
    """(matrix, kind, functional) of a matrix JSON file; a state or positive
    file comes with its validated functional, so it is validated once."""
    return _decode_matrix(read_json(path))


def load_matrix_file(path) -> tuple[np.ndarray, str]:
    """Load and validate a matrix JSON file."""
    return read_matrix(path)[:2]


def _csv(header: str, template: str, rows) -> str:
    """CSV text: the header, then each row formatted by one row template."""
    return "\n".join([header] + [template % tuple(row) for row in rows]) + "\n"


def flow_csv(t_grid, states) -> str:
    """Trajectory CSV: t followed by the flattened state entries (re/im pairs)."""
    if not states:
        raise ValidationError("empty trajectory")
    t = np.asarray(t_grid, dtype=float)
    if t.shape != (len(states),):
        raise ValidationError(f"{t.size} grid points for {len(states)} states")
    n = states[0].n
    dims = sorted({rho.n for rho in states})
    if dims != [n]:
        raise ValidationError(f"trajectory states have dimensions {dims}, expected one")
    entries = np.stack([rho.matrix for rho in states]).astype(complex, copy=False)
    table = np.column_stack([t, entries.reshape(len(states), -1).view(float)])
    header = ",".join(["t"] + [f"{part}_{i}_{j}" for i in range(n) for j in range(n)
                               for part in ("re", "im")])
    return _csv(header, ",".join([_FLOAT_FIELD] * table.shape[1]), table.tolist())


def truncation_csv(report) -> str:
    """Truncation report CSV with columns n, C, opnorm, residual, flag."""
    rows = zip(report.dims, report.bound_constants, report.opnorms, report.residuals,
               ("true" if flag else "false" for flag in report.flags))
    return _csv("n,C,opnorm,residual,flag", f"%d,{_FLOAT_FIELD},{_FLOAT_FIELD},{_FLOAT_FIELD},%s",
                rows)


def truncation_json(report) -> str:
    """Truncation report JSON; a row whose C overflows holds inf, written as null."""
    payload = {"dims": list(report.dims)}
    for key, column in (("C", report.bound_constants), ("opnorm", report.opnorms),
                        ("residual", report.residuals)):
        payload[key] = [x if np.isfinite(x) else None for x in column]
    payload.update(flag=list(report.flags), orbit_class=list(report.orbit_class_tags),
                   ceiling=report.ceiling, diverged=report.diverged)
    return dumps_canonical(payload)


def gns_chunks(triple):
    """The gns payload {"n", "dim", "cyclic", "rep": [...]} as text chunks: the
    header, then one {"unit", "entries"} object per matrix unit, each encoded
    and dropped before the next is built."""
    head = dumps_canonical({"n": triple.n, "dim": triple.dim,
                            "cyclic": complex_pairs(triple.cyclic)})
    yield head[:-2] + ',"rep":['  # reopen the object closed by "}\n"
    for k, mat in enumerate(triple.rep_matrices()):
        unit = {"unit": list(divmod(k, triple.n)), "entries": complex_pairs(mat)}
        yield ("," if k else "") + dumps_canonical(unit)[:-1]
    yield "]}\n"
