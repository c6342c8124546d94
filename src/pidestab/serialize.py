"""Result persistence: CSV tables and JSON documents.

Every floating-point value is written as ``'%.17g' % value``: 17
significant digits with trailing zeros dropped, so that runs are
byte-reproducible and round-trip exactly through text.  Complex values
appear as [re, im] pairs.  Non-finite values read nan, inf, -inf; in
JSON they are strings, since strict JSON has no literals for them.

CSV tables are formatted by numpy, a block of values at a time, on an
exact route that gives the bytes of ``'%.17g' %``:

* Digits.  For finite x with 1e-250 <= |x| <= 1e250, take
  e = floor(log10 |x|) and form y = |x| 10^(16-e) as a double-double:
  Dekker's exact product of |x| with 10^(16-e), held as a pair (hi, lo)
  built from exact integer arithmetic on the first CSV write, plus
  |x| lo.  The error of y is below 2^-47.  e moves by one where y falls
  outside [10^16, 10^17); y rounded half-even is the integer D of the
  17 digits, and D = 10^17 becomes 10^16 with e + 1.
* Guard.  A value goes through ``'%.17g' %`` on its own when the
  fraction of y lies within 2^-30 of one half (exact and near ties),
  when its decade did not settle in one move, when |x| lies outside the
  range above, or when x is nan or infinite.  Zeros of either sign stay
  on the array route.
* Layout.  Each value owns 48 byte slots: sign, a ``0.000`` prefix,
  17 pairs of a digit and a point, ``e±XXX`` and the separator.  Slots
  not used hold 0, trailing zeros of D are set to 0, and one
  ``translate`` deletes every 0 of the block.
"""

from __future__ import annotations

import functools
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


_TOKEN = "__f17g_{}__"
_TOKEN_RE = re.compile(r'"__f17g_(\d+)__"')


def _convert(obj, tokens: list):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        tokens.append(format_float(float(obj)))
        return _TOKEN.format(len(tokens) - 1)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_convert(obj.real, tokens), _convert(obj.imag, tokens)]
    if isinstance(obj, np.ndarray):
        return [_convert(v, tokens) for v in obj.tolist()] \
            if obj.ndim > 0 else _convert(obj.item(), tokens)
    if isinstance(obj, dict):
        return {str(k): _convert(v, tokens) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(v, tokens) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    tokens: list = []
    tree = _convert(obj, tokens)
    text = json.dumps(tree, indent=2)
    return _TOKEN_RE.sub(lambda m: tokens[int(m.group(1))], text) + "\n"


def json_dump(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def json_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# CSV values are laid out in six uint64 words, 48 byte slots each (see
# the module docstring); these are the slots of the fixed fields.
_SIGN, _DIGIT0, _EXP, _SEP = 0, 6, 40, 45
_TINY, _HUGE = 1e-250, 1e250        # the exact route's magnitude range
_EMAX = 260                         # decades covered by the tables
_TIE = 2.0 ** -30                   # guard band around a rounding tie
_SPLIT = 134217729.0                # 2^27 + 1, Veltkamp's splitter
_BLOCK = 4096                       # values formatted per file write


def _words(slots) -> np.ndarray:
    """Flat uint64 words of a uint8 array of byte slots."""
    return np.ascontiguousarray(slots, dtype=np.uint8).view(np.uint64) \
        .reshape(-1)


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


def _digit_words():
    """Words of the 4-digit groups 0000..9999 at even slots, the count of
    each group's trailing zeros (4 for 0000), and per count the mask
    that deletes that many digits from the end of a group."""
    group = np.arange(10000)
    slots = np.zeros((10000, 8), np.uint8)
    for k in range(4):
        slots[:, 2 * k] = group // 10 ** (3 - k) % 10 + ord("0")
    zeros = sum(group % 10 ** k == 0 for k in range(1, 5))
    keep = np.zeros((5, 8), np.uint8)
    for count in range(5):
        keep[count, :8 - 2 * count] = 0xFF
    return _words(slots), zeros, _words(keep)


def _forms():
    """Words of each exponent's layout, without and then with a decimal
    point, and 10^(digits after the digit the point follows)."""
    exps = range(-_EMAX, _EMAX + 1)
    slots = np.zeros((len(exps), 2, 48), np.uint8)
    tail = np.ones(len(exps), np.int64)
    for i, x in enumerate(exps):
        if -4 <= x < 0:                         # 0.000ddd
            slots[i, :, 1:3] = list(b"0.")
            slots[i, :, 3:2 - x] = ord("0")
            continue
        if 0 <= x <= 16:                        # integer digits stay
            point = x
            slots[i, :, _DIGIT0:_DIGIT0 + 2 * x + 1:2] = ord("0")
        else:
            point = 0
            text = b"e%+03d" % x
            slots[i, :, _EXP:_EXP + 2] = list(text[:2])
            slots[i, :, _SEP + 2 - len(text):_SEP] = list(text[2:])
        tail[i] = 10 ** (16 - point)
        slots[i, 1, _DIGIT0 + 2 * point + 1] = ord(".")
    return _words(slots).reshape(-1, 6), tail


def _slot_words(slot: int, chars: bytes) -> np.ndarray:
    """One word per char, holding it at the slot's place in its word."""
    slots = np.zeros((len(chars), 8), np.uint8)
    slots[:, slot % 8] = list(chars)
    return _words(slots)


@functools.cache
def _tables() -> tuple:
    """The formatter's tables, built on first use so that a program that
    writes no CSV does not pay for them: the powers of ten, the digit
    words with their trailing-zero counts and masks, the forms and their
    tails."""
    return (_powers_of_ten(), *_digit_words(), *_forms())


_HEAD = _slot_words(_DIGIT0, b"0123456789") | \
    _slot_words(_SIGN, b"\0-")[:, None]       # lead digit, then sign
_COMMA, _NEWLINE = _slot_words(_SEP, b",\n")


def _scaled(mag, e):
    """|x| 10^(16-e) as hi + lo: Dekker's exact product with hi_10,
    plus |x| lo_10; the error is below 2^-47 for a result under 10^17."""
    i = e + _EMAX
    hi10, lo10, head10, tail10 = (row.take(i) for row in _tables()[0])
    hi = mag * hi10
    c = mag * _SPLIT
    head = c - (c - mag)
    tail = mag - head
    lo = (((head * head10 - hi) + head * tail10 + tail * head10)
          + tail * tail10) + mag * lo10
    return hi, lo


def _outside(hi, lo):
    """Which of hi + lo lie below 10^16, and which at or above 10^17.

    hi - 10^k is exact where hi is within a factor two of 10^k and far
    larger than lo elsewhere, so the sign of its sum with lo is exact."""
    return (hi - 1e16) + lo < 0, (hi - 1e17) + lo >= 0


def _exact_digits(mag):
    """17-digit integers D and exponents of positive magnitudes in the
    fast range, rounded half-even, and the mask of values to guard."""
    e = np.floor(np.log10(mag)).astype(np.intp)
    hi, lo = _scaled(mag, e)
    below, above = _outside(hi, lo)
    moved = np.flatnonzero(below | above)
    unsettled = np.zeros(mag.size, bool)
    if moved.size:
        e[moved] += above[moved].astype(np.intp) - below[moved]
        hi[moved], lo[moved] = _scaled(mag[moved], e[moved])
        below, above = _outside(hi[moved], lo[moved])
        unsettled[moved] = below | above
    rounded = np.rint(lo)
    tie = np.abs(np.abs(lo - rounded) - 0.5) < _TIE
    d = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = np.flatnonzero(d >= 10 ** 17)
    d[carry] //= 10
    e[carry] += 1
    return d, e, tie | unsettled


def _format_values(x, sep) -> bytearray:
    """``'%.17g' % v`` of each value of the flat array x, each followed
    by its separator word of ``sep``."""
    mag = np.abs(x)
    fast = (mag >= _TINY) & (mag <= _HUGE)
    d, e, unsure = _exact_digits(np.where(fast, mag, 1.0))
    d *= fast                                   # zeros read 0
    guard = unsure | (~fast & (mag != 0))

    # D is a lead digit, then the 4-digit groups g1 g2 g3 g4; z_k marks
    # groups k.. all zero, so group k - 1 drops its trailing zeros
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    g12 = high // 10000
    g2 = high - g12 * 10000
    lead = g12 // 10000
    g1 = g12 - lead * 10000
    g3 = low // 10000
    g4 = low - g3 * 10000
    z4 = g4 == 0
    z3 = z4 & (g3 == 0)
    z2 = z3 & (g2 == 0)

    _, digits, zeros, keep, forms, tail = _tables()
    i = e + _EMAX
    text = bytearray(48 * x.size)
    words = np.frombuffer(text, np.uint64).reshape(-1, 6)
    forms.take(2 * i + (d % tail.take(i) != 0), axis=0, out=words)
    words[:, 0] |= _HEAD.take(lead + 10 * np.signbit(x))
    words[:, 1] |= digits.take(g1) & keep.take(zeros.take(g1) * z2)
    words[:, 2] |= digits.take(g2) & keep.take(zeros.take(g2) * z3)
    words[:, 3] |= digits.take(g3) & keep.take(zeros.take(g3) * z4)
    words[:, 4] |= digits.take(g4) & keep.take(zeros.take(g4))
    words[:, 5] |= sep

    for j in np.flatnonzero(guard):
        cell = b"%.17g" % x[j]
        text[48 * j:48 * j + _SEP] = cell.ljust(_SEP, b"\0")
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
        sep = np.full((step, n_cols), _COMMA)
        sep[:, -1] = _NEWLINE
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
