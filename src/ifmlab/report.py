"""Shared report types and deterministic serialization.

Audits and contraction checks all reduce to lists of per-clause verdicts
with a worst-case witness.  Reports serialize to a line-oriented record
format (one JSON object per line) and to full JSON documents.  All numeric
fields are rendered with 17 significant digits so that identical inputs
produce byte-identical files and every float round-trips exactly.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

import numpy as np

# Characters per write of write_text_atomic: the text layer encodes each
# write whole, so a slice bounds the encoded copy at 64 KiB of ASCII
WRITE_SLICE = 2**16


@dataclass
class ClauseResult:
    """Verdict for a single audited clause.

    ``worst`` is the largest observed violation (0.0 for a clean pass) and
    ``witness`` holds the arguments that achieved it.
    """

    clause: str
    passed: bool
    worst: float = 0.0
    witness: dict[str, Any] | None = None
    note: str = ""

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "clause": self.clause,
            "verdict": "pass" if self.passed else "fail",
            "worst": self.worst,
            "witness": self.witness,
        }
        if self.note:
            rec["note"] = self.note
        return rec


@dataclass
class AuditReport:
    """Collection of clause verdicts for one audited subject."""

    subject: str
    clauses: list[ClauseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> list[ClauseResult]:
        return [c for c in self.clauses if not c.passed]

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(f"no clause named {name!r} in audit of {self.subject!r}")

    def to_records(self) -> list[dict[str, Any]]:
        return [c.to_record() for c in self.clauses]


def _outranks(value: float, held: float) -> bool:
    """Whether a worst ``value`` replaces the ``held`` one, the rule of every
    witness: NaN ranks above any value, and otherwise only a strictly
    greater value wins, so of equal values the first held stays."""
    return value > held or (math.isnan(value) and not math.isnan(held))


def spell_floats(text: str) -> str:
    """``%.17g`` text in its written form: ``nan`` as ``NaN`` and ``inf`` as ``Infinity``."""
    # only "nan" and "inf" put an "n" in a %g rendering
    if "n" not in text:
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact round-trip)."""
    return spell_floats("%.17g" % x)


_POW10 = 10.0 ** np.arange(23)  # 1e22 is the largest exact power of ten
# smallest table the vectorised writer takes: below about 300 cells the
# fixed cost of its numpy calls (about 130 us) exceeds what one ``%`` takes
_EXACT_MIN_CELLS = 320
_BYTE7 = np.uint64(56)


@functools.cache
def _writer_tables() -> tuple[np.ndarray, ...]:
    """The exact writer's lookup tables, built at its first call, so that a
    run that writes no large table neither builds nor holds them.

    A cell of the writer is six little-endian words: [row open, sign,
    "0.000" prefix, digit 0], the integer part's digits of 1-15 and the
    point, the other digits of 1-16, [exponent "e-XX", separator].  A slot
    that %g leaves empty holds NUL.  The tables: the ASCII of the four
    digits of 0..9999 (first digit in the low byte) and their trailing
    zeros; word w of the mask keeping the first k bytes of a 16-byte run,
    at [w, k]; by X + 28 for X = floor(log10|x|) in -28..16, the first word
    (sign and fixed form's "0.000" prefix below 1; X + 73 for a negative
    x) and the exponent word's "e-XX".
    """
    quads = np.arange(10_000)
    digits = sum((48 + quads // 10 ** (3 - i) % 10) << (8 * i) for i in range(4)).astype(np.uint64)
    zeros = sum(quads % 10**i == 0 for i in range(1, 5)).astype(np.uint8)
    keep = np.array([[(1 << 8 * min(k - 8 * w, 8)) - 1 if k > 8 * w else 0 for k in range(17)]
                     for w in (0, 1)], np.uint64)
    head = np.array([(int.from_bytes(b"0." + b"0" * (-1 - x), "little") << 16 if -4 <= x < 0 else 0) | s
                     for s in (0, ord("-") << 8) for x in range(-28, 17)], np.uint64)
    exponent = np.array([int.from_bytes(b"e-%02d" % -x, "little") if x < -4 else 0 for x in range(-28, 17)],
                        np.uint64)
    tables = digits, zeros, keep, head, exponent
    for table in tables:
        table.flags.writeable = False
    return tables


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly (Dekker, 1971)."""
    p = a * b
    a_split, b_split = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1: Veltkamp's split
    ah, bh = a_split - (a_split - a), b_split - (b_split - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _float_table(cells: np.ndarray, sep: str, row_open: str, row_close: str) -> str:
    """A 2-D float64 array as text: each row is ``row_open``, its cells
    joined by ``sep``, then ``row_close``; each cell reads as
    ``spell_floats("%.17g" % x)`` reads it.

    ``row_open`` is at most one character, ``sep`` and ``row_close`` at
    most three.  Below ``_EXACT_MIN_CELLS`` cells the block takes one
    ``%``.  Otherwise each finite cell with ``1e-28 <= |x| < 1e17`` (or 0)
    is scaled by ``10**(16 - X)``, ``X = floor(log10|x|)``, as an exact
    Dekker product (two of them past ``1e22``), rounded to its 17-digit
    integer, and laid out in fixed or exponent form in a NUL-padded byte
    row; one ``translate`` drops the NULs.  A cell outside that range, or
    within 1e-6 of a rounding tie, goes through ``%``.
    """
    rows, width = cells.shape
    if cells.size < _EXACT_MIN_CELLS:
        row = row_open + sep.join(["%.17g"] * width) + row_close
        return spell_floats((row * rows) % tuple(cells.ravel().tolist()))
    digits4, zeros4, keep, head, exponents = _writer_tables()
    x = cells.ravel()
    ax = np.abs(x)
    zero = ax == 0.0
    exact = (ax >= 1e-28) & (ax < 1e17)
    ax[~exact] = 1.0
    exponent = np.floor(np.log10(ax)).astype(np.int64).clip(-28, 16)
    shift = 16 - exponent
    p, e = _two_product(ax, _POW10.take(shift.clip(0, 22)))
    small = np.flatnonzero(shift > 22)  # |x| < 1e-6: a second step by the rest of 10**shift
    later = _POW10.take(shift[small] - 22)
    p[small], e2 = _two_product(p[small], later)
    e[small] = e2 + e[small] * later
    # p is an even integer at and above 2**53, so rint's half-even on an
    # exact e is %'s; after a second step e errs by under 1e-14
    rounded = np.rint(e)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    # p + e < 1e16 or digits = 1e17: log10 read X one off, next to a power of ten
    exact &= (np.abs(e - rounded) < 0.5 - 1e-6) & ((p > 1e16) | (p == 1e16) & (e >= 0))
    exact &= digits < 10**17
    exact |= zero
    digits[zero] = 0
    top = digits // 10**8
    first = top // 10**8
    quads = []  # digits 1-16 in fours
    for half in (top - first * 10**8, digits - top * 10**8):
        quad = half // 10**4
        quads += [quad, half - quad * 10**4]
    zeros = zeros4.take(quads[0])  # trailing zeros of digits 1-16
    for quad in quads[1:]:
        zeros = np.where(quad == 0, zeros + 4, zeros4.take(quad))
    whole = exponent.clip(0)  # digits 1..whole are the integer part's
    last = np.maximum(16 - zeros, whole)
    fraction = (exponent < 0) & (exponent >= -4)
    words = np.empty((x.size, 6), np.uint64)
    words[:, 0] = head.take(exponent + 28 + 45 * np.signbit(x)) | (first + 48).astype(np.uint64) << _BYTE7
    for w in (0, 1):
        shown = (digits4.take(quads[2 * w]) | digits4.take(quads[2 * w + 1]) << np.uint64(32)) \
            & keep[w].take(last)
        words[:, 1 + w] = shown & keep[w].take(whole.clip(0, 15))
        words[:, 3 + w] = shown ^ words[:, 1 + w]
    words[:, 2] |= ((last > whole) & ~fraction).astype(np.uint64) * np.uint64(ord(".")) << _BYTE7
    words[:, 5] = exponents.take(exponent + 28)
    table = words.reshape(rows, width, 6)
    table[:, 0, 0] |= np.uint64(int.from_bytes(row_open.encode(), "little"))
    table[:, :, 5] |= np.array([int.from_bytes(end.encode(), "little") << 32
                                for end in [sep] * (width - 1) + [row_close]], np.uint64)
    text = words.view(np.uint8)
    # the other cells: one %, each cell's text (at most 24 characters) NUL-padded into its row
    rest = np.flatnonzero(~exact)
    spelled = spell_floats(("%.17g\n" * rest.size) % tuple(x[rest].tolist())).encode().split()
    text[rest, 1:44] = 0
    text[rest, 1:25] = np.frombuffer(b"".join(c.ljust(24, b"\0") for c in spelled), np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def json_text(obj: Any) -> str:
    """Deterministic JSON with explicit float formatting.

    The stdlib encoder renders floats via ``repr`` (shortest form); here
    every float is rendered as :func:`format_float` renders it, so output
    width does not depend on the value; a list of floats (as one row) and a
    2-D float64 array (a solve's trace points) by ``_float_table``.  Dict
    keys are emitted sorted.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return json_text(obj.item())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ", ".join(f"{json_text(str(k))}: {json_text(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64:
        return "[" + _float_table(obj, ", ", "[", "], ")[:-2] + "]"
    if hasattr(obj, "tolist"):
        return json_text(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return _float_table(np.array(obj, float).reshape(1, -1), ", ", "[", "]")
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    if hasattr(obj, "to_record"):
        return json_text(obj.to_record())
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def records_to_jsonl(records: list[dict[str, Any]]) -> str:
    return "".join(json_text(r) + "\n" for r in records)


def _umask() -> int:
    """The process umask.  Reading it means setting it, so for that instant
    it is set to the restrictive ``0o077``, then put back."""
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and rename.

    The text is written in slices of ``WRITE_SLICE`` characters, so no
    encoded copy of the whole file is made.  The file gets the mode a plain
    ``open`` would give it: ``0o666`` less the process umask.  A write that
    fails (a character the encoding cannot take, a full disk) removes the
    temp file and leaves ``path`` as it was.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~_umask())
            for lo in range(0, len(text), WRITE_SLICE):
                handle.write(text[lo : lo + WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
