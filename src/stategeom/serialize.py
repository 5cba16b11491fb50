"""Canonical file encodings: matrix JSON and CSV reports.

Every encoding the package writes lives here: matrix JSON, the CSV reports,
the truncation JSON payload and the streamed GNS payload.

The matrix format is {"n": ..., "kind": ..., "entries": [[re, im], ...]} in
row-major order with a fixed key order, compact separators and a trailing
newline, so saving a loaded canonical file is byte-identical.  JSON numbers
use Python's shortest round-trip float representation; CSV carries a
mandatory header and 17 significant digits.

JSON text is byte for byte ``json.dumps``'s.  Complex entries become their
[re, im] pairs by viewing the buffer as float64 (``complex_pairs``), and
``dumps_canonical`` encodes every float64 array of a payload in blocks, all
of them in one pass (``_arrays_text``): each entry's shortest round-trip
digits, those of ``repr``, come from the certificate of ``_shortest`` and are
laid out like the CSV digits below.  Entries it cannot decide (a shortest
text of 14 digits or fewer, a power-of-two significand, magnitudes outside
[1e-280, 1e280], exact ties and interval edges) are formatted by ``repr``
itself, one at a time.  CSV floats are encoded ``_BLOCK`` entries at a time:
each entry's 17 digits come from one certified double-double product
(``_significands``) and are laid out as bytes with numpy, so the text is
byte for byte Python's ``"%.17g" % x``.  The entries the certificate cannot
decide (exact ties, magnitudes outside [1e-280, 1e280], inf and nan) are
formatted by ``"%.17g" % x`` itself, one at a time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import as_operator, matrix_unit
from .states import PositiveFunctional, validate_positive, validate_state

__all__ = [
    "KINDS",
    "complex_pairs",
    "matrix_to_jsonable",
    "dumps_canonical",
    "read_json",
    "load_matrix_file",
    "flow_csv",
    "truncation_csv",
    "truncation_json",
    "gns_chunks",
]

KINDS = ("operator", "state", "positive")
_NUMBERS = {int, float}  # exact entry types: no null, true/false or numeric strings
_BLOCK = 1 << 13  # entries encoded at once: 64 KiB per temporary
_UNITS = _BLOCK // 2  # gns entries encoded at once (one unit at least): about 0.55 MB of work
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_SLACK = 2.0 ** -46  # the rounding certificate's bound, see _significands
_MARGIN = 2.0 ** -40  # the shortest-digit certificate's bound, see _shortest
_ZEROS = 0x3030303030303030  # "0" in each byte of a word
_ROW_BREAK = ord("]") | ord(",") << 8 | ord("[") << 16  # "],[" as a little-endian suffix
_CLOSE = {1: ord("]") | ord("\n") << 8, 2: ord("]") | ord("]") << 8 | ord("\n") << 16}  # "]]\n"
_HOLD = "\0"  # json.dumps writes it as "\u0000": the place of an array in the text


def complex_pairs(a) -> np.ndarray:
    """The [re, im] pairs of an array's entries, in row-major order: a
    read-only (m, 2) float64 view of the complex buffer, which
    ``dumps_canonical`` writes as a list of pairs."""
    pairs = np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float).reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs


def matrix_to_jsonable(m: np.ndarray, kind: str = "operator") -> dict:
    """Encode a matrix as the canonical JSON object for ``dumps_canonical``;
    its "entries" are ``complex_pairs``' read-only float view."""
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}, expected one of {KINDS}")
    return {"n": np.shape(m)[0], "kind": kind, "entries": complex_pairs(m)}


def _decode_matrix(obj) -> tuple[np.ndarray | PositiveFunctional, str]:
    """Decode a matrix object into (value, kind): the matrix of an ``operator``,
    the validated functional of a ``state`` or ``positive`` object, validated
    here, once."""
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
    return m if check is None else check(m), kind


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion key order, compact separators.

    Each float64 ndarray in ``obj`` is written as ``json.dumps`` writes its
    ``tolist()``.  Those of one or two axes with finite entries are encoded
    together by ``_arrays_text``; ``json`` writes a placeholder in their
    place and everything else.  Other float64 arrays reach ``json`` as
    lists, so a non-finite entry raises its ValueError; any other object it
    cannot write raises its TypeError."""
    arrays = []

    def listed(o):
        if isinstance(o, np.ndarray) and o.dtype == np.float64:
            return o.tolist()
        return json.JSONEncoder.default(None, o)

    def hold(o):
        if (type(o) is np.ndarray and o.dtype == np.float64 and o.ndim in (1, 2) and o.size
                and np.isfinite(o).all()):
            arrays.append(o)
            return _HOLD
        return listed(o)

    text = json.dumps(obj, separators=(",", ":"), allow_nan=False, default=hold)
    parts = text.split(json.dumps(_HOLD))
    if len(parts) != len(arrays) + 1:  # a string of the payload reads as the placeholder
        return json.dumps(obj, separators=(",", ":"), allow_nan=False, default=listed) + "\n"
    pieces = _arrays_text(arrays) if arrays else []
    return "".join(part + piece for part, piece in zip(parts, pieces + ["\n"]))


def read_json(path):
    """Parse a JSON file; ValidationError when it is not UTF-8 JSON or nests
    deeper than the parser's recursion limit."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def load_matrix_file(path) -> tuple[np.ndarray | PositiveFunctional, str]:
    """(value, kind) of a matrix JSON file: an ``operator`` file's matrix, or
    the functional of a ``state`` or ``positive`` file, validated once, as it
    is read, and passed on as it is."""
    return _decode_matrix(read_json(path))


def _g17(x: float) -> str:
    """``"%.17g" % x``: the formatter ``_float_bytes`` stands in for, run on
    each entry whose rounding it cannot certify."""
    return "%.17g" % x


def _repr(x: float) -> str:
    """``float.__repr__``, the text of ``json.dumps``: the formatter
    ``_float_bytes`` stands in for where ``shortest``, run on each entry
    whose shortest digits it cannot certify."""
    return float.__repr__(x)


def _pow10(p: int) -> tuple[float, float]:
    """10**p as a double-double hi + lo from exact integer arithmetic: hi is
    10**p correctly rounded, lo the remainder 10**p - hi correctly rounded
    (Python's int-to-float conversion and int true division both round
    correctly)."""
    if p >= 0:
        exact = 10 ** p
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10 ** -p
    hi = 1 / den
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (two * den)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split x = hi + lo into halves of at most 26 bits each, so the
    product of two halves is exact."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _scaled(a: np.ndarray, k: np.ndarray, tens: dict) -> tuple[np.ndarray, np.ndarray]:
    """``_significands``' (t, f) for a at exponents k, with 10**p from ``tens`` or added to it."""
    p = 16 - k
    first = int(p.min())
    at = p - first
    present = np.zeros(int(at.max()) + 1, dtype=bool)
    present[at] = True
    hs, ls = np.zeros((2, present.size))
    for i in np.flatnonzero(present).tolist():
        hs[i], ls[i] = tens[first + i] = tens.get(first + i) or _pow10(first + i)
    h = hs[at]
    ph = a * h
    ah, al = _split(a)
    hh, hl = _split(h)
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl
    r = pl + a * ls[at]
    whole = np.floor(r)
    return ph.astype(np.int64) + whole.astype(np.int64), r - whole


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t, f, k, sure) for non-negative doubles a: where ``sure``, t + f is
    a * 10**(16 - k) within 2^-46, t an integer in [10**16, 10**17] and f in
    [0, 1].  ``_significands`` proves the bound."""
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    tens = {}
    t, f = _scaled(a, k, tens)
    low = np.flatnonzero(t < 10 ** 16)
    if low.size:
        k[low] -= 1
        t[low], f[low] = _scaled(a[low], k[low], tens)
    return t, f, k, fast & (t >= 10 ** 16) & (t <= 10 ** 17)


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, k, sure) for non-negative doubles a: where ``sure``, a rounded to 17
    significant digits is N * 10**(k - 16) with 10**16 <= N < 10**17, the
    digits and exponent of ``"%.17g" % a``.  Elsewhere N and k mean nothing.

    Proof.  Let u = 2^-53, k = floor(log10 a) as computed (less one where
    that gives t < 10**16: np.log10 rounds up), p = 16 - k and v = a 10**p.
    ``_pow10`` gives 10**p = H + L + e with
    |L| <= u (1 + u) 10**p and |e| <= u^2 10**p.  On [1e-280, 1e280], p lies
    in [-264, 297], so H, L, the split halves and every product below are
    normal and finite, and Dekker's product gives a H = ph + pl exactly with
    |pl| <= u ph.  Then r = fl(pl + fl(a L)) differs from v - ph by at most
    u^2 v (from e), u^2 (1 + u) v (the product a L) and 2 u^2 (1 + u)^2 v
    (the sum): under 2^-103.99 v.  Below 2^52, t = ph + floor(r) < 10**16
    fails the window 10**16 <= t <= 10**17; above, ph is an integer and
    t = floor(ph + r).  A t in the window so has v < 10**17 + 2, where r errs
    by under 2^-47.  f = r - floor(r) is exact for r >= 0 and rounds by at
    most 2^-54 for r < 0, so |t + f - v| < 2^-46, and |f - 1/2| > 2^-46 puts
    v - ph on the same side of floor(r) + 1/2 as r, within 1/2 of it: round(v) =
    t + (f > 1/2) = N, and no exact tie passes.  Inside [10**16, 10**17),
    10**k <= a < 10**(k+1), so N is a's 17-digit significand.  The window
    leaves v at most 2^-47 outside that range; there a is within 10^-30
    relative of 10**k or 10**(k+1), its 17 digits round to that power, and N
    is 10**16 or 10**17 (the carry: 10**16 with k + 1).  At t = 10**17, a's
    17 digits round to 10**(k+1) on either side of it, and N is 10**17.
    """
    t, f, k, sure = _decimal(a)
    sure &= np.abs(f - 0.5) > _SLACK
    n = np.minimum(t + (f > 0.5), 10 ** 17)
    carry = n == 10 ** 17
    return n - carry * (9 * 10 ** 16), k + carry, sure


def _shortest(a: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, k, sure) for non-negative doubles a with int64 bit patterns
    ``bits``: where ``sure``, ``repr(a)`` has the digits of N and the
    exponent k, a = N * 10**(k - 16) to the digits shown, 10**16 < N < 10**17
    and N ending in 17 - d zeros for a shortest text of d = 15, 16 or 17
    digits.  Elsewhere N and k mean nothing.

    Proof.  Let v = a 10**(16 - k) and t + f its approximation by
    ``_decimal``, |t + f - v| < 2^-46, with t < 10**17 here.  a = m 2^e with
    the integer significand m in (2^52, 2^53) (a power of two, m = 2^52, has
    a smaller gap below than above and is left out), so its round-trip
    interval is v +- h in v's units, h = v / (2 m) in (0.55, 11.2), closed or
    open by the parity of m: every decimal strictly inside it reads back as
    a, none outside its closure does.  fl(fl(t) / 2m) is within 2^-47.4 of h.
    For i = 1, 2, 3, r_i = (t mod 10**i) + f, rounded by at most 2^-44
    (r_i < 1001), is the distance from t + f down to a multiple of 10**i, and
    D_i = min(r_i, 10**i - r_i), within 2^-42.7 of v's distance to the
    nearest multiple.  So |D_i - h| > 2^-40 decides whether a multiple of
    10**i lies strictly inside the interval or none lies in its closure; as
    D_1 <= D_2 <= D_3, the multiples of 10**i lie inside for i <= j and
    outside for i > j, for one j in 0..3 (for j = 0 the nearest integer
    lies inside: D_0 <= 1/2 < h).  j = 3, a text of 14 digits or fewer, is
    left out.  10**16 and 10**17 are multiples of 10**(j + 1), and v lies
    within 2^-46 of [10**16, 10**17], so the interval lies in
    (10**16, 10**17).  There a decimal a' = M 10**(k - 16) has at most
    16 - j significant digits exactly when M is a multiple of 10**(j + 1):
    none reads back as a, and the shortest texts that do have 17 - j digits.
    |r_j - 10**j / 2| > 2^-40 (r_0 = f) shows no tie, so N = t - (t mod
    10**j) + 10**j (r_j > 10**j / 2) is the multiple of 10**j nearest v.  It
    lies strictly inside: it reads back as a under either tie rule, has
    17 - j digits (were fewer enough, N would be a multiple of 10**(j + 1)),
    and is the candidate nearest a, the one that ``repr`` (Gay's shortest
    mode) picks.
    """
    t, f, k, sure = _decimal(a)
    frac = bits & ((1 << 52) - 1)  # m - 2^52
    h = t / (2.0 * (frac | 1 << 52))
    sure &= (t < 10 ** 17) & (frac != 0)
    del frac
    below = t - t // 1000 * 1000
    rems = (below - below // 10 * 10, below - below // 100 * 100, below)
    inside = []  # whether a multiple of 10, 100, 1000 lies within h of t + f: i <= j
    for size, rem in zip((10, 100, 1000), rems):
        r = rem + f
        gap = np.minimum(r, size - r)
        gap -= h
        inside.append(gap < 0)
        sure &= np.abs(gap) > _MARGIN
    del r, gap, h
    step = 1 + 9 * inside[0] + 90 * inside[1]  # 10**j
    rem = np.where(inside[1], rems[1], rems[0] * inside[0])
    del rems, below
    r = rem + f
    t -= rem
    t += step * (r > step / 2)
    sure &= ~inside[2] & (np.abs(r - step / 2) > _MARGIN)
    return t, k, sure


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10**8 (uint64), one digit value
    per byte, the most significant in the lowest byte: halves, quarters and
    eighths in 32-, 16- and 8-bit lanes, each quotient by 100 and 10 taken
    with a multiply and shift that is exact below 10**4 and 100."""
    hi = x // 10000
    x = hi | (x - hi * 10000) << 32
    hi = (x * 10486 >> 20) & 0x7F0000007F
    x = hi | (x - hi * 100) << 16
    hi = (x * 103 >> 10) & 0x000F000F000F000F
    return hi | (x - hi * 10) << 8


def _digit_count(w: np.ndarray) -> np.ndarray:
    """Bytes up to the highest nonzero one of each word of digit values (int64).

    Every byte is at most 9, so adding 0x7F to each carries into its top bit
    exactly when it is nonzero, and into no other byte; the flags are spread
    down to every lower byte and summed into the top byte by one multiply."""
    flags = ((w + 0x7F7F7F7F7F7F7F7F) >> 7) & 0x0101010101010101
    flags |= flags >> 8
    flags |= flags >> 16
    flags |= flags >> 32
    return ((flags * 0x0101010101010101) >> 56).view(np.int64)


def _low(bits: np.ndarray) -> np.ndarray:
    """Masks of the low ``bits`` bits of each word; 64 or more gives every
    bit, since numpy's shifts by a word's width or more give 0."""
    return (1 << bits.astype(np.uint64)) - 1


def _float_bytes(x: np.ndarray, suffix: np.ndarray, shortest: bool = False) -> np.ndarray:
    """ASCII bytes of the floats x, each as ``"%.17g" % x``, or ``repr(x)``
    where ``shortest``, followed by the up to three bytes of its ``suffix``
    (little-endian).

    Each entry is laid out in a 32-byte slot, four little-endian words: the
    sign, four zeros (those of 0.000ddd), the 17 digits, with the point
    inserted after the integer digits (after the first digit in e-notation),
    then "e+XXX" and the suffix.  The bytes the text does not show are 0:
    a plus sign, the zeros ahead of a fixed-notation number's leading digit,
    trailing zeros of the fraction, a point with no fraction after it, and a
    two-digit exponent's hundreds.  They are dropped in one pass.
    ``repr`` switches to e-notation one power of ten lower (above 10**16,
    against 10**17) and shows ".0" where fixed notation has no fraction; its
    trailing zeros are those ``_shortest`` pads N with.  An exact zero is "0"
    or "-0" ("0.0" or "-0.0"); the slot of each other entry that
    ``_significands`` (``_shortest``) cannot certify holds ``_g17``'s
    (``_repr``'s) text instead (24 bytes at most: a sign, 17 digits, a point
    and "e-308").
    """
    a = np.abs(x)
    n, k, sure = _shortest(a, x.view(np.int64)) if shortest else _significands(a)
    sure |= a == 0
    plain = sure & (a > 0)
    del a
    n *= plain
    k *= plain
    del plain
    sci = (k < -4) | (k > 15 + (not shortest))
    point = np.where(sci, 0, k)  # the power of ten of the last digit before the point
    n = n.view(np.uint64)
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    hi = n // 10 ** 8
    n -= hi * 10 ** 8
    w1, w2 = _digit_bytes(hi), _digit_bytes(n)
    del n, hi
    shown = np.where(w2 != 0, 9 + _digit_count(w2), 1 + _digit_count(w1))
    np.maximum(shown, point + 1 + (shortest & ~sci), out=shown)
    w1 |= _ZEROS
    w1 &= _low(8 * (shown - 1))
    w2 |= _ZEROS
    w2 &= _low(8 * np.maximum(shown - 9, 0))
    zeros = (0x30303030 << ((point + 4).astype(np.uint64) << 3)) & 0xFFFFFFFF  # those of 0.000d
    body = (np.signbit(x) * np.uint64(ord("-")) | zeros << 8 | (lead + 48) << 40 | w1 << 48,
            w1 >> 16 | w2 << 48, w2 >> 16)
    del w1, w2, zeros, lead
    put = (shown > point + 1) * np.uint64(ord("."))
    at = (point + 6).astype(np.uint64) << 3  # the point's bit: after sign, zeros and integer digits
    del shown, point
    slots = np.empty((x.size, 4), dtype=np.uint64)
    # insert the point: the bytes from ``at`` on move up one, each word's last into the next
    for j, word in enumerate(body):
        cut = np.maximum(at, 64 * j) - 64 * j
        low = _low(cut)
        slots[:, j] = word & low | (word & ~low) << 8 | put << cut
        put = np.where(at < 64 * (j + 1), word >> 56, put)  # the byte pushed out, or the point
    del body, cut, low, put, at
    power = np.abs(k).astype(np.uint64)
    tens = power // 10
    hundreds = tens // 10
    slots[:, 3] = sci * (ord("e") | (ord("+") + 2 * (k < 0)).astype(np.uint64) << 8
                         | (hundreds > 0) * (hundreds + 48) << 16
                         | (tens - hundreds * 10 + 48) << 24 | (power - tens * 10 + 48) << 32
                         ) | suffix.astype(np.uint64) << np.uint64(40)
    text = slots.view(np.uint8)
    miss = np.flatnonzero(~sure)
    if miss.size:
        text[miss, :24] = np.array([(_repr if shortest else _g17)(v) for v in x[miss].tolist()],
                                   dtype="S24").view(np.uint8).reshape(-1, 24)
    return text[text != 0]


def _float_text(table: np.ndarray) -> str:
    """A float table's CSV rows: ``_BLOCK`` entries at a time are encoded into
    one buffer (25 bytes an entry at most), which is decoded once."""
    x, cols = np.asarray(table, dtype=float).reshape(-1), table.shape[1]
    out = np.empty(25 * x.size, dtype=np.uint8)
    end = 0
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        row_end = np.arange(start, start + block.size) % cols == cols - 1
        text = _float_bytes(block, np.where(row_end, ord("\n"), ord(",")).astype(np.uint64))
        out[end:end + text.size] = text
        end += text.size
    return str(out[:end], "ascii")


def _arrays_text(arrays: list) -> list:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` of each finite 1-D or
    2-D float64 array, all encoded together, ``_BLOCK`` entries at a time:
    each entry is ``repr``'s text by ``_float_bytes``, and its suffix carries
    the framing ("," between entries, "],[" between rows, then "]]\\n" or
    "]\\n" after the last, the newline cutting the texts apart)."""
    x = np.concatenate([a.reshape(-1) for a in arrays])
    suffix = np.full(x.size, ord(","), dtype=np.uint32)
    end = 0
    for a in arrays:
        start, end = end, end + a.size
        if a.ndim == 2:
            suffix[start + a.shape[1] - 1:end:a.shape[1]] = _ROW_BREAK
        suffix[end - 1] = _CLOSE[a.ndim]
    blocks = [_float_bytes(x[start:start + _BLOCK], suffix[start:start + _BLOCK], True)
              for start in range(0, x.size, _BLOCK)]
    text = str(blocks[0] if len(blocks) == 1 else np.concatenate(blocks), "ascii")
    return ["[" * a.ndim + part for a, part in zip(arrays, text.split("\n"))]


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
    del entries
    header = ",".join(["t"] + [f"{part}_{i}_{j}" for i in range(n) for j in range(n)
                               for part in ("re", "im")])
    return header + "\n" + _float_text(table)


def truncation_csv(report) -> str:
    """Truncation report CSV with columns n, C, opnorm, residual, flag."""
    floats = _float_text(np.column_stack([report.bound_constants, report.opnorms,
                                          report.residuals])).splitlines()
    return "".join(["n,C,opnorm,residual,flag\n"] + [
        "%d,%s,%s\n" % (n, row, "true" if flag else "false")
        for n, row, flag in zip(report.dims, floats, report.flags)])


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
    header, then the {"unit": [i, j], "entries": pi(E_ij)} objects of the
    matrix units in row-major order, as many at a time as ``_UNITS``
    entries hold (one at least), each block encoded and dropped before the
    next is built."""
    head = dumps_canonical({"n": triple.n, "dim": triple.dim,
                            "cyclic": complex_pairs(triple.cyclic)})
    yield head[:-2] + ',"rep":['  # reopen the object closed by "}\n"
    n = triple.n
    units = list(np.ndindex(n, n))
    step = max(1, _UNITS // (2 * triple.dim ** 2))
    for start in range(0, n * n, step):
        block = [{"unit": [i, j], "entries": complex_pairs(triple.rep(matrix_unit(n, i, j)))}
                 for i, j in units[start:start + step]]
        yield ("," if start else "") + dumps_canonical(block)[1:-2]
    yield "]}\n"
