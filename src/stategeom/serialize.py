"""Canonical file encodings: matrix JSON and CSV reports.

The matrix format is {"n": ..., "kind": ..., "entries": [[re, im], ...]} in
row-major order with a fixed key order, compact separators and a trailing
newline, so saving a loaded canonical file is byte-identical.  JSON numbers
use Python's shortest round-trip float representation; CSV carries a
mandatory header and 17 significant digits.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import as_operator
from .states import validate_positive, validate_state

__all__ = [
    "KINDS",
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


def matrix_to_jsonable(m: np.ndarray, kind: str = "operator") -> dict:
    """Encode a matrix as the canonical JSON object."""
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}, expected one of {KINDS}")
    mat = np.asarray(m, dtype=complex)
    entries = [[float(z.real), float(z.imag)] for z in mat.ravel()]
    return {"n": int(mat.shape[0]), "kind": kind, "entries": entries}


def matrix_from_jsonable(obj) -> tuple[np.ndarray, str]:
    """Decode and validate a matrix object; returns (matrix, kind)."""
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
        validate_state(m)
    elif kind == "positive":
        validate_positive(m)
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
    return f"{float(x):.17g}"


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
    n = states[0].n
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header.extend([f"re_{i}_{j}", f"im_{i}_{j}"])
    rows = []
    for t, rho in zip(t_grid, states):
        row = [float(t)]
        for z in rho.matrix.ravel():
            row.extend([float(z.real), float(z.imag)])
        rows.append(row)
    return csv_table(header, rows)


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
