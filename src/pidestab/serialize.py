"""Result persistence: CSV tables and JSON documents.

Every floating-point value is written as ``'%.17g' % value``: 17
significant digits with trailing zeros dropped, so that runs are
byte-reproducible and round-trip exactly through text.  Complex values
appear as [re, im] pairs.  Non-finite values read nan, inf, -inf; in
JSON they are strings, since strict JSON has no literals for them.

Every float goes through one array formatter, ``_format_values``: CSV
tables a block of values at a time, JSON documents all their floats in
one call.  It gives the bytes of ``'%.17g' %`` by an exact route:

* Digits.  For finite x with 1e-250 <= |x| <= 1e250, take
  e = floor(log10 |x|) and form y = |x| 10^(16-e) as a double-double:
  Dekker's exact product of |x| with 10^(16-e), held as a pair (hi, lo)
  built from exact integer arithmetic on first use, plus |x| lo.  The
  error of y is below 2^-47.  e moves by one where y falls outside
  [10^16, 10^17); y rounded half-even is the integer D of the 17
  digits, and D = 10^17 becomes 10^16 with e + 1.
* Guard.  A value goes through ``'%.17g' %`` on its own when the
  fraction of y lies within 2^-30 of one half (exact and near ties),
  when its decade did not settle in one move, when |x| lies outside the
  range above, or when x is nan or infinite.  Zeros of either sign stay
  on the array route.
* Layout.  Each value owns 32 byte slots, four little-endian words:
  the sign (slot 0), a ``0.000`` prefix (1-5), the lead digit (6), a
  point (7), the other 16 digits of D in a row (8-23), the slot that
  takes the last of them when a point goes inside the row (24),
  ``e±XXX`` (24-28) and the separator (31).  The row is two words of
  raw digits 0-9 from a table of 4-digit groups, so K, the count of
  row digits left once trailing zeros go, is read off the binary
  exponent of the row taken as a float.  A point after s digits of the
  row goes in by a word shift: the bytes from s on move up one slot,
  w + 255 (w & H) for the mask H of those bytes.  One table row per
  exponent and K holds the masks H and the record the digits are added
  to: the prefix, the point, ``e±XXX`` and a '0' under each digit kept
  (integer digits always, trailing zeros after the point not).  One
  ``translate`` deletes the slots left at 0.

``dumps`` lays a document out as ``json.dumps(obj, indent=2)`` does and
keeps the text between its floats, which come in runs: a float on its
own or a float array's row.  One ``_format_values`` call formats every
float of the document, nan and the infinities are quoted, and the text
goes back together around the runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re

import numpy as np


def format_float(x: float) -> str:
    """``'%.17g'``: 17 significant digits, trailing zeros dropped.

    The text round-trips exactly but is not the shortest that does:
    0.1 gives ``0.10000000000000001``.  nan and the infinities come back
    as the JSON strings ``"nan"``, ``"inf"``, ``"-inf"``.
    """
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


_STRING = json.encoder.encode_basestring_ascii


class _Document:
    """A JSON document laid out with its floats left out.

    The floats come in runs: a float on its own, or a float array's row.
    ``runs`` holds per run the text before it, its float count and the
    text between its floats; ``tail`` is the text after the last run,
    and ``chunks`` plus ``scalars`` hold the floats in order."""

    def __init__(self):
        self.runs, self.tail = [], []
        self.chunks, self.scalars = [], []

    def _run(self, count: int, between: str) -> None:
        self.runs.append(("".join(self.tail), count, between))
        self.tail.clear()

    def walk(self, obj, nl: str) -> None:
        """Lay out ``obj``, whose first line is already open; ``nl`` is
        the newline and indent of its closing line."""
        if isinstance(obj, (float, np.floating)):
            self._run(1, "")
            self.scalars.append(float(obj))
        elif isinstance(obj, str):
            self.tail.append(_STRING(obj))
        elif isinstance(obj, dict):
            obj = {str(k): v for k, v in obj.items()}
            self._items([_STRING(k) + ": " for k in obj], list(obj.values()),
                        nl, "{}")
        elif isinstance(obj, (list, tuple)):
            self._items(itertools.repeat(""), obj, nl, "[]")
        elif isinstance(obj, (bool, np.bool_)):
            self.tail.append("true" if obj else "false")
        elif isinstance(obj, (int, np.integer)):
            self.tail.append(str(int(obj)))
        elif isinstance(obj, np.ndarray):
            self._array(np.asarray(obj), nl)
        elif isinstance(obj, (complex, np.complexfloating)):
            self.walk([obj.real, obj.imag], nl)
        elif obj is None:
            self.tail.append("null")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    def _items(self, keys, values, nl: str, brackets: str) -> None:
        """A dict or, with keys all "", a list: one value a line."""
        if len(values) == 0:
            self.tail.append(brackets)
            return
        inner = nl + "  "
        opening = brackets[0] + inner
        for key, value in zip(keys, values):
            self.tail.append(opening + key)
            self.walk(value, inner)
            opening = "," + inner
        self.tail.append(nl + brackets[1])

    def _array(self, a: np.ndarray, nl: str) -> None:
        """A float row is one run; complex values are [re, im] float
        pairs; other arrays are laid out as their ``tolist()``."""
        if a.ndim == 0:
            self.walk(a.item(), nl)
            return
        if a.dtype.kind == "c":
            a = np.ascontiguousarray(a, dtype=complex).view(float) \
                .reshape(*a.shape, 2)
        elif a.dtype.kind != "f":
            self.walk(a.tolist(), nl)
            return
        if a.ndim > 1 or a.size == 0:
            self._items(itertools.repeat(""), a, nl, "[]")
            return
        inner = nl + "  "
        self.tail.append("[" + inner)
        self._run(a.size, "," + inner)
        self.chunks += [self.scalars, np.asarray(a, dtype=float)]
        self.scalars = []
        self.tail.append(nl + "]")

    def text(self) -> str:
        """The document, its floats formatted by one array call."""
        if not self.runs:
            return "".join(self.tail)
        x = np.concatenate([*self.chunks, self.scalars])
        cells = _format_values(x, ord("\n"))
        if not np.isfinite(x).all():            # nan, inf, -inf quoted
            cells = re.sub(rb"-?inf|nan", rb'"\g<0>"', cells)
        ends = np.flatnonzero(np.frombuffer(cells, np.uint8) == ord("\n"))
        counts = [count for _, count, _ in self.runs]
        cells = cells.decode("ascii")
        parts, start = [], 0
        for (before, _, between), stop in zip(
                self.runs, ends[np.cumsum(counts) - 1].tolist()):
            parts += (before, cells[start:stop].replace("\n", between))
            start = stop + 1
        parts.append("".join(self.tail))
        return "".join(parts)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)`` of ``obj`` with numpy values as
    Python ones and each float as ``format_float`` writes it, plus a
    newline."""
    doc = _Document()
    doc.walk(obj, "\n")
    return doc.text() + "\n"


def json_dump(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def json_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# slots of a value's 32-byte record (see the module docstring)
_LEAD, _POINT, _ROW, _EXP, _SEP = 6, 7, 8, 24, 31
_WORD = np.dtype("<u8")
_TINY, _HUGE = 1e-250, 1e250        # the exact route's magnitude range
_EMAX = 260                         # decades covered by the tables
_TIE = 2.0 ** -30                   # guard band around a rounding tie
_SPLIT = 134217729.0                # 2^27 + 1, Veltkamp's splitter
_BLOCK = 4096                       # values formatted per file write


def _exponent_class(e: int) -> int:
    """0..16: positional with e + 1 integer digits; 17..20: positional
    with a prefix 0. to 0.000; 21: scientific."""
    if 0 <= e <= 16:
        return e
    return 21 + e if -4 <= e < 0 else 21


def _powers_of_ten() -> np.ndarray:
    """Rows hi, lo, hi_head, hi_tail of 10^(16-e) for e = -_EMAX.._EMAX.

    hi is 10^(16-e) correctly rounded, lo the correctly rounded rest, both
    from exact integer division; head + tail is Veltkamp's split of hi.
    """
    table = []
    for e in range(-_EMAX, _EMAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        n2, d2 = hi.as_integer_ratio()
        lo = (num * d2 - n2 * den) / (den * d2)
        c = hi * _SPLIT
        head = c - (c - hi)
        table.append((hi, lo, head, hi - head))
    return np.array(table).T.copy()


def _digit_groups() -> np.ndarray:
    """The 4-digit groups 0000..9999 as four raw digit bytes each, in the
    first and in the second half of a word."""
    group = np.arange(10000)
    raw = np.zeros((2, 10000, 8), np.uint8)
    for k in range(4):
        raw[0, :, k] = raw[1, :, 4 + k] = group // 10 ** (3 - k) % 10
    return raw.view(_WORD).reshape(2, -1)


def _forms() -> tuple:
    """Per exponent e and K, at row 17 (e + _EMAX) + K: the four words
    the record starts from (prefix, points, the '0' added to each digit
    kept, ``e±XXX``), and the masks H1, H2 of the row bytes that move up
    one slot."""
    adds = np.zeros((22, 17, 32), np.uint8)     # per exponent class
    moves = np.zeros((22, 17, 16), np.uint8)
    for c in range(22):
        for k in range(17):
            if 17 <= c <= 20:                   # 0.000ddd, no point after
                adds[c, k, 1:23 - c] = list(b"0.000"[:22 - c])
                digits, point = k, None
            else:                               # point after `ints` digits
                ints = c if c <= 16 else 0
                digits = max(k, ints)
                point = ints if k > ints else None
            for j in range(digits):
                adds[c, k, _ROW + j + (point is not None and 0 < point <= j)] \
                    = ord("0")
            if point == 0:
                adds[c, k, _POINT] = ord(".")
            elif point is not None:
                adds[c, k, _ROW + point] = ord(".")
                moves[c, k, point:] = 0xFF
    exps = range(-_EMAX, _EMAX + 1)
    classes = [_exponent_class(e) for e in exps]
    forms = adds[classes]
    for i, e in enumerate(exps):
        if classes[i] == 21:
            mark = b"e%+03d" % e
            forms[i, :, _EXP:_EXP + len(mark)] = list(mark)
    return (forms.view(_WORD).reshape(-1, 4),
            moves[classes].view(_WORD).reshape(-1, 2).T.copy())


@functools.cache
def _tables() -> tuple:
    """The formatter's tables, built on first use so that a program that
    writes nothing does not pay for them: the powers of ten, the digit
    groups, the record forms and the shift masks."""
    return (_powers_of_ten(), _digit_groups(), *_forms())


def _scaled(mag, i):
    """|x| 10^(16-e) as hi + lo, for the table rows i = e + _EMAX:
    Dekker's exact product with hi_10, plus |x| lo_10; the error is below
    2^-47 for a result under 10^17."""
    hi10, lo10, head10, tail10 = (row.take(i) for row in _tables()[0])
    hi = mag * hi10
    c = mag * _SPLIT
    head = c - (c - mag)
    tail = mag - head
    lo = head * head10
    lo -= hi
    lo += head * tail10
    lo += tail * head10
    lo += tail * tail10
    lo += mag * lo10
    return hi, lo


def _outside(hi, lo):
    """Which of hi + lo lie below 10^16, and which at or above 10^17.

    hi - 10^k is exact where hi is within a factor two of 10^k and far
    larger than lo elsewhere, so the sign of its sum with lo is exact."""
    return (hi - 1e16) + lo < 0, (hi - 1e17) + lo >= 0


def _exact_digits(mag):
    """17-digit integers D of positive magnitudes in the fast range,
    rounded half-even, the table rows e + _EMAX of their exponents, and
    the mask of values to guard."""
    i = np.floor(np.log10(mag)).astype(np.intp) + _EMAX
    hi, lo = _scaled(mag, i)
    below, above = _outside(hi, lo)
    moved = np.flatnonzero(below | above)
    if moved.size:
        i[moved] += above[moved].astype(np.intp) - below[moved]
        hi[moved], lo[moved] = _scaled(mag[moved], i[moved])
        below, above = _outside(hi[moved], lo[moved])
        moved = moved[below | above]            # unsettled
    rounded = np.rint(lo)
    unsure = np.abs(lo - rounded) > 0.5 - _TIE
    unsure[moved] = True
    d = hi.astype(np.int64)
    d += rounded.astype(np.int64)
    carry = np.flatnonzero(d >= 10 ** 17)
    if carry.size:
        d[carry] //= 10
        i[carry] += 1
    return d, i, unsure


def _format_values(x, sep) -> bytearray:
    """``'%.17g' % v`` of each value of the flat array x, each followed
    by its separator byte of ``sep``."""
    mag = np.abs(x)
    fast = (mag >= _TINY) & (mag <= _HUGE)
    d, i, unsure = _exact_digits(np.where(fast, mag, 1.0))
    d *= fast                                   # zeros read 0
    guard = unsure | (~fast & (mag != 0))

    # D is a lead digit and a row of 16 digits, which becomes two words
    # of raw digits, each from a pair of 4-digit groups
    lead = d // 10 ** 16
    row = d - lead * 10 ** 16
    halves = np.empty((2, x.size), np.intp)
    np.floor_divide(row, 10 ** 8, out=halves[0])
    np.subtract(row, halves[0] * 10 ** 8, out=halves[1])
    high = halves // 10000
    _, digits, forms, masks = _tables()
    raw = digits[0].take(high)
    raw |= digits[1].take(halves - high * 10000)
    # K from the highest set bit of the row read as a 128-bit integer
    kept = (np.frexp(raw[1] * 2.0 ** 64 + raw[0])[1] + 7) >> 3
    form = i * 17 + kept

    text = bytearray(32 * x.size)
    record = np.frombuffer(text, np.uint8).reshape(-1, 32)
    words = record.view(_WORD)
    forms.take(form, axis=0, out=words)
    moving = raw & masks.take(form, axis=1)
    carry, spill = moving >> 56
    moving *= 255                               # w + 255 (w & H)
    moving += raw
    moving[1] += carry
    words[:, 1] += moving[0]
    words[:, 2] += moving[1]
    words[:, 3] += spill
    record[:, _LEAD] = lead + ord("0")
    np.multiply(np.signbit(x).view(np.uint8), ord("-"), out=record[:, 0])
    record[:, _SEP] = sep

    for j in np.flatnonzero(guard):
        cell = b"%.17g" % x[j]
        text[32 * j:32 * j + _SEP] = cell.ljust(_SEP, b"\0")
    return text.translate(None, b"\0")


def write_csv(path, header, table) -> None:
    """Header line, then one line per row of a 2-D float table.

    Each cell reads as ``'%.17g' % value``: 17 significant digits with
    trailing zeros dropped; non-finite cells read ``nan``, ``inf``,
    ``-inf``.  Rows go to the file in blocks of about ``_BLOCK`` values.
    """
    table = np.asarray(table, dtype=float)
    n_rows, n_cols = table.shape
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if n_cols == 0:
            fh.write(b"\n" * n_rows)
            return
        step = max(1, _BLOCK // n_cols)
        sep = np.full((step, n_cols), ord(","), np.uint8)
        sep[:, -1] = ord("\n")
        sep = sep.reshape(-1)
        for start in range(0, n_rows, step):
            block = table[start:start + step].reshape(-1)
            fh.write(_format_values(block, sep[:block.size]))


def trajectory_csv(path, traj) -> None:
    """Full state dump: time, modal coefficients, memory, controls, norms."""
    k = traj.n_modes
    header = (["t"]
              + [f"alpha_{i+1}" for i in range(k)]
              + [f"z_{i+1}" for i in range(k)])
    columns = [traj.grid[:, None], traj.alpha, traj.z]
    if traj.controls is not None:
        n_ctrl = traj.controls.shape[1]
        labels = list(traj.control_labels) if traj.control_labels else []
        if len(labels) != n_ctrl:
            labels = [f"u_{i+1}" for i in range(n_ctrl)]
        header += labels
        if n_ctrl:
            columns.append(traj.controls)
    header += ["norm_y", "norm_a_alpha_minus_half", "norm_a_alpha"]
    norms = traj.norms
    columns += [norms["y"][:, None], norms["a_alpha_minus_half"][:, None],
                norms["a_alpha"][:, None]]
    write_csv(path, header, np.hstack(columns))


def decay_curve_csv(path, traj, floor: float = 1e-300) -> None:
    """Plot-ready (t, log-norm) columns for the three certified norms."""
    header = ["t", "log_norm_y", "log_norm_a_alpha_minus_half",
              "log_norm_a_alpha"]
    norms = traj.norms
    logs = [np.log(np.maximum(norms[key], floor))
            for key in ("y", "a_alpha_minus_half", "a_alpha")]
    write_csv(path, header, np.column_stack([traj.grid] + logs))


def null_control_csv(path, nc) -> None:
    """Steering control samples: companion input w and amplitudes v."""
    m = nc.w.shape[0]
    header = (["t"] + [f"w_{i+1}" for i in range(m)]
              + [f"v_{i+1}" for i in range(m)])
    write_csv(path, header, np.column_stack([nc.grid, nc.w.T, nc.v.T]))


def controller_document(solution, kernel, spectrum) -> dict:
    """Self-contained JSON form of a feedback design.

    Carries everything needed to rebuild the closed loop without the
    original scenario: system matrices are re-derivable from the listed
    eigenvalues and kernel, the gain and solution matrix are stored
    row-major.
    """
    sys = solution.system
    k = sys.truncation_k
    return {
        "alpha": solution.alpha,
        "gamma": solution.gamma,
        "truncation_k": k,
        "m_actuators": sys.m_actuators,
        "gain": solution.gain.reshape(-1),
        "r_matrix": solution.r_matrix.reshape(-1),
        "residual": solution.residual,
        "closed_loop_eigs": [[ev.real, ev.imag]
                             for ev in solution.closed_loop_eigs],
        "c_km": sys.c_km.reshape(-1),
        "kernel": {"b": kernel.b, "delta": kernel.delta},
        "spectrum": spectrum.to_records(),
    }
