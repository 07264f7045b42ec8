"""Shared report types and deterministic serialization.

Audits and contraction checks all reduce to lists of per-clause verdicts
with a worst-case witness.  Reports serialize to a line-oriented record
format (one JSON object per line) and to full JSON documents.  All numeric
fields are rendered with 17 significant digits so that identical inputs
produce byte-identical files and every float round-trips exactly.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

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


def spell_floats(text: str) -> str:
    """``%.17g`` text in its written form: ``nan`` as ``NaN`` and ``inf`` as ``Infinity``."""
    # only "nan" and "inf" put an "n" in a %g rendering
    if "n" not in text:
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact round-trip)."""
    return spell_floats("%.17g" % x)


def json_text(obj: Any) -> str:
    """Deterministic JSON with explicit float formatting.

    The stdlib encoder renders floats via ``repr`` (shortest form); here
    every float is rendered as :func:`format_float` renders it, so output
    width does not depend on the value; a list of floats, or of lists of
    floats all of one length, in one ``%``.  Dict keys are emitted sorted.
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
    if hasattr(obj, "tolist"):
        return json_text(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + spell_floats(", ".join(["%.17g"] * len(obj)) % tuple(obj)) + "]"
        if all(type(v) is list for v in obj) and len(set(map(len, obj))) == 1:
            flat = [x for v in obj for x in v]
            if all(type(x) is float for x in flat):
                row = "[" + ", ".join(["%.17g"] * len(obj[0])) + "]"
                return "[" + spell_floats(", ".join([row] * len(obj)) % tuple(flat)) + "]"
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
