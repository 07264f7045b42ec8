import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifmlab.report import (
    _EXACT_MIN_CELLS,
    WRITE_SLICE,
    AuditReport,
    ClauseResult,
    _float_table,
    format_float,
    json_text,
    records_to_jsonl,
    spell_floats,
    write_text_atomic,
)


def test_format_float_17_digits_round_trip():
    for value in (0.1, 1.0 / 3.0, 2.0 ** -52, 51.2, -7.25e300):
        assert float(format_float(value)) == value
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("-inf")) == "-Infinity"
    assert format_float(float("nan")) == "NaN"


def test_json_text_is_sorted_and_parseable():
    doc = {"b": [1, 2.5, None, True], "a": {"nested": "x\"y"}}
    text = json_text(doc)
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": {"nested": 'x"y'}, "b": [1, 2.5, None, True]}


def test_json_text_handles_numpy_scalars_and_arrays():
    text = json_text({"v": np.float64(0.5), "n": np.int64(3), "arr": np.asarray([1.0, 2.0])})
    assert json.loads(text) == {"arr": [1.0, 2.0], "n": 3, "v": 0.5}


def reference_json_list(items):
    """A list's JSON as rendered item by item, with no fast path."""
    def item(v):
        if v is True or v is False:
            return str(v).lower()
        return str(v) if isinstance(v, int) else format_float(float(v))

    return "[" + ", ".join(map(item, items)) + "]"


SPECIAL_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 0.1])
PLAIN_FLOAT = st.floats() | SPECIAL_FLOAT
LIST_ITEM = PLAIN_FLOAT | PLAIN_FLOAT.map(np.float64) | st.integers(-(2**70), 2**70) | st.booleans()


def reference_format_float(x):
    """A float's rendering with NaN and the infinities spelled one test at a time."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


@settings(max_examples=500, deadline=None)
@given(x=PLAIN_FLOAT | PLAIN_FLOAT.map(np.float64))
@example(x=-math.nan)
@example(x=np.float64(-math.inf))
@example(x=np.float64(-0.0))
def test_format_float_matches_the_reference_spelling(x):
    assert format_float(x) == reference_format_float(x)


@settings(max_examples=300, deadline=None)
@given(items=st.lists(PLAIN_FLOAT, max_size=12) | st.lists(LIST_ITEM, max_size=12), as_tuple=st.booleans())
def test_json_text_lists_match_the_per_item_rendering(items, as_tuple):
    assert json_text(tuple(items) if as_tuple else items) == reference_json_list(items)


def reference_json_text(obj):
    """``json_text`` as it was, before a list of equal-width float lists took one ``%``."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return reference_json_text(obj.item())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ", ".join(f"{reference_json_text(str(k))}: {reference_json_text(v)}" for k, v in items)
        return "{" + inner + "}"
    if hasattr(obj, "tolist"):
        return reference_json_text(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + spell_floats(", ".join(["%.17g"] * len(obj)) % tuple(obj)) + "]"
        return "[" + ", ".join(reference_json_text(v) for v in obj) + "]"
    if hasattr(obj, "to_record"):
        return reference_json_text(obj.to_record())
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


ROW_ITEM = LIST_ITEM | st.lists(PLAIN_FLOAT, max_size=2) | st.tuples(PLAIN_FLOAT)


@settings(max_examples=300, deadline=None)
@given(width=st.integers(0, 4), data=st.data())
def test_json_text_float_rows_match_the_reference_body(width, data):
    # equal-width rows of floats (a solve's trace points), then one row made
    # ragged, a tuple, or given an item of another kind
    rows = data.draw(st.lists(st.lists(PLAIN_FLOAT, min_size=width, max_size=width), max_size=8))
    if rows and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = data.draw(st.lists(ROW_ITEM, max_size=5) | st.tuples(PLAIN_FLOAT, PLAIN_FLOAT))
    assert json_text(rows) == reference_json_text(rows)


@pytest.mark.parametrize("rows", [
    [], [[]], [[], []], [[math.nan, math.inf], [-math.inf, -0.0]], [[1, 2.0], [3.0, 4.0]],
    [[1.0], [2.0, 3.0]], [[0.5], []], [[np.float64(0.5)], [0.5]], [[True], [0.5]],
], ids=["empty", "one-empty-row", "empty-rows", "non-finite", "int-item", "ragged", "ragged-empty",
        "numpy-item", "bool-item"])
def test_json_text_float_rows_edge_cases(rows):
    assert json_text(rows) == reference_json_text(rows)


def test_json_text_float_rows_text():
    assert json_text([[0.5, -0.0], [math.nan, -math.inf]]) == "[[0.5, -0], [NaN, -Infinity]]"


def reference_float_table(cells, sep, row_open, row_close):
    """The table's text with one ``format(x, ".17g")`` per cell."""
    return "".join(row_open + sep.join(spell_floats(format(x, ".17g")) for x in row) + row_close
                   for row in cells.tolist())


TABLE_LAYOUTS = [(",", "", "\n"), (", ", "[", "], ")]  # a trace's rows, a JSON list of lists
# near-ties: 18-digit decimals ending in 5, parsed; and exact ties: n / 4 for odd n
# near 2**53, and 3 / 2**24 and 2**-25, which are scaled in two steps
NEAR_TIES = [float(text) for text in ("1.23456789012345675", "9.99999999999999995e-5", "0.100000000000000005",
                                      "4.44444444444444445e-20", "5.00000000000000005e16", "1.00000000000000005")]
NEAR_TIES += [(2**53 - 1) / 4, -(2**53 - 3) / 4, 3 / 2**24, 2**-25]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(PLAIN_FLOAT, min_size=1, max_size=40), width=st.integers(1, 24),
       count=st.integers(1, 2 * _EXACT_MIN_CELLS), layout=st.sampled_from(TABLE_LAYOUTS))
@example(values=[0.0, -0.0, 5e-324, 2.2250738585072014e-308], width=4, count=800, layout=TABLE_LAYOUTS[0])
@example(values=[1e16, 9.999999999999999e16, 1e17, 99999999999999999.0], width=3, count=900,
         layout=TABLE_LAYOUTS[1])
@example(values=[1e-4, 9.9999999999999991e-5, 1e-5, 0.1, 1 - 2**-53], width=5, count=800,
         layout=TABLE_LAYOUTS[0])
@example(values=NEAR_TIES, width=10, count=800, layout=TABLE_LAYOUTS[1])
def test_float_table_matches_format_per_cell(values, width, count, layout):
    # the values repeat to fill the table, which crosses the writer's
    # crossover at about half the examples
    cells = np.resize(np.asarray(values, float), (-(-count // width), width))
    assert _float_table(cells, *layout) == reference_float_table(cells, *layout)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(PLAIN_FLOAT, min_size=1, max_size=12), width=st.integers(0, 4),
       count=st.integers(0, 2 * _EXACT_MIN_CELLS))
def test_json_text_float_arrays_match_the_reference_body(values, width, count):
    cells = np.resize(np.asarray(values, float), (count // max(width, 1), width))
    assert json_text(cells) == reference_json_text(cells)


def test_json_text_rejects_unknown_types():
    with pytest.raises(TypeError):
        json_text({"x": object()})


def test_audit_report_accessors():
    report = AuditReport(
        subject="demo",
        clauses=[
            ClauseResult("ok_clause", True, 0.0),
            ClauseResult("bad_clause", False, 0.25, witness={"a": 0.5}, note="why"),
        ],
    )
    assert not report.passed
    assert [c.clause for c in report.failures()] == ["bad_clause"]
    assert report.clause("ok_clause").passed
    with pytest.raises(KeyError):
        report.clause("absent")
    records = report.to_records()
    assert records[1]["verdict"] == "fail" and records[1]["note"] == "why"
    lines = records_to_jsonl(records).splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["clause"] == "ok_clause"


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "deep" / "dir" / "out.txt"
    write_text_atomic(str(target), "first")
    write_text_atomic(str(target), "second")
    assert target.read_text() == "second"
    assert not [p for p in os.listdir(target.parent) if p.endswith(".tmp")]


def test_atomic_write_applies_the_umask(tmp_path):
    target = tmp_path / "artifact.txt"
    previous = os.umask(0o027)
    try:
        write_text_atomic(str(target), "x")
    finally:
        os.umask(previous)
    assert os.stat(target).st_mode & 0o777 == 0o666 & ~0o027


def test_failed_write_keeps_the_target_and_removes_the_temp_file(tmp_path):
    # the lone surrogate cannot be encoded; it sits in the second slice, so
    # the first slice is already in the temp file when the write fails
    target = tmp_path / "artifact.txt"
    target.write_bytes(b"kept\n")
    os.chmod(target, 0o640)
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(str(target), "x" * (WRITE_SLICE + 3) + "\ud800")
    assert target.read_bytes() == b"kept\n"
    assert os.stat(target).st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["artifact.txt"]


def test_sliced_write_keeps_every_character(tmp_path):
    target = tmp_path / "long.txt"
    text = "".join(f"{i},\n" for i in range(WRITE_SLICE // 2))
    assert len(text) % WRITE_SLICE and len(text) > 2 * WRITE_SLICE
    write_text_atomic(str(target), text)
    assert target.read_bytes() == text.encode()
