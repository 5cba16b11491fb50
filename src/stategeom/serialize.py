"""Canonical file encodings: matrix JSON and CSV reports.

The matrix format is {"n": ..., "kind": ..., "entries": [[re, im], ...]} in
row-major order with a fixed key order, compact separators and a trailing
newline, so saving a loaded canonical file is byte-identical.  JSON numbers
use Python's shortest round-trip float representation; CSV carries a
mandatory header and 17 significant digits.

Arrays reach the text through ``tolist``: complex entries become their
[re, im] pairs by viewing the buffer as float64, and a flow trajectory is
one float table formatted a row at a time with one row template, so no
entry is converted or type-tested on its own.
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
    "matrix_from_jsonable",
    "dumps_canonical",
    "read_json",
    "load_matrix_file",
    "save_matrix_text",
    "format_float",
    "csv_table",
    "flow_csv",
    "truncation_csv",
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
    if kind == "state":
        return m, kind, validate_state(m)
    if kind == "positive":
        return m, kind, validate_positive(m)
    return m, kind, None


def matrix_from_jsonable(obj) -> tuple[np.ndarray, str]:
    """Decode and validate a matrix object; returns (matrix, kind)."""
    m, kind, _ = _decode_matrix(obj)
    return m, kind


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion key order, compact separators."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def read_json(path):
    """Parse a JSON file; ValidationError when it is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def load_matrix_file(path) -> tuple[np.ndarray, str]:
    """Load and validate a matrix JSON file."""
    return matrix_from_jsonable(read_json(path))


def save_matrix_text(m: np.ndarray, kind: str = "operator") -> str:
    """Canonical text for a matrix (the save half of the byte round-trip)."""
    return dumps_canonical(matrix_to_jsonable(m, kind))


def format_float(x: float) -> str:
    """CSV float field with 17 significant digits."""
    return _FLOAT_FIELD % float(x)


def csv_table(header: list[str], rows: list[list]) -> str:
    """Render a CSV text with a mandatory header row."""
    lines = [",".join(header)]
    for row in rows:
        fields = []
        for cell in row:
            if isinstance(cell, bool):
                fields.append("true" if cell else "false")
            elif isinstance(cell, float):
                fields.append(format_float(cell))
            else:
                fields.append(str(cell))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


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
    template = ",".join([_FLOAT_FIELD] * table.shape[1])
    return "\n".join([header] + [template % tuple(row) for row in table.tolist()]) + "\n"


def truncation_csv(report) -> str:
    """Truncation report CSV with columns n, C, opnorm, residual, flag."""
    rows = [
        [n, c, nrm, res, bool(flag)]
        for n, c, nrm, res, flag in zip(
            report.dims, report.bound_constants, report.opnorms,
            report.residuals, report.flags,
        )
    ]
    return csv_table(["n", "C", "opnorm", "residual", "flag"], rows)
