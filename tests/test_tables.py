"""The table writers: the bytes of each cell, and reading them back."""

import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw.tables import emit_table, write_json
from readback import read_csv


def per_cell_text(v) -> str:
    """The text that each CSV cell had when it was formatted on its own."""
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    f = float(v)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    if math.isnan(f):
        return "nan"
    return format(f, ".17g")


TINY = 2.2250738585072014e-308  # the smallest normal double
CELLS = st.one_of(
    st.floats(),
    st.floats(min_value=-TINY, max_value=TINY),  # subnormals and +-0.0
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
    st.integers(-10**6, 10**6),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width).map(tuple),
                         min_size=1, max_size=8))
    return [f"c{i}" for i in range(width)], rows


def bits(f: float) -> bytes:
    return struct.pack("<d", f)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(tables())
def test_writers_keep_every_cell(table):
    header, rows = table
    array = np.array(rows, dtype=float)  # the one table type that both writers take
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        emit_table(path, "csv", header, array)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(header)
        assert lines[1:] == [",".join(per_cell_text(v) for v in row) for row in rows]
        header_back, rows_back = read_csv(path)
        assert header_back == header
        for row, back in zip(rows, rows_back, strict=True):
            for v, b in zip(row, back, strict=True):
                assert math.isnan(b) if math.isnan(v) else bits(b) == bits(float(v))

    def cell(v):  # a float, or a non-finite's text, as in a document dumped whole
        return float(v) if math.isfinite(v) else "%.17g" % v

    fh = io.StringIO()
    write_json(fh, header, array)
    whole = {"columns": header, "rows": [[cell(v) for v in row] for row in rows]}
    assert fh.getvalue() == json.dumps(whole, indent=1) + "\n"
    doc = json.loads(fh.getvalue())
    assert doc["columns"] == header
    for row, back in zip(rows, doc["rows"], strict=True):
        for v, b in zip(row, back, strict=True):
            f = float(v)
            if math.isfinite(f):
                assert isinstance(b, float) and bits(b) == bits(f)
            else:
                assert b == ("nan" if math.isnan(f) else "inf" if f > 0 else "-inf")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_gets_the_bytes_of_the_file(tmp_path, fmt):
    header, rows = ["t", "x"], [(0.0, 1), (0.1, -math.inf), (5e-324, math.nan)]
    path = tmp_path / f"t.{fmt}"
    emit_table(path, fmt, header, rows)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        emit_table(None, fmt, header, rows)
    assert stdout.getvalue().encode() == path.read_bytes()


@pytest.mark.parametrize("path", [None, "t.csv"], ids=["stdout", "file"])
@pytest.mark.parametrize("fmt, rows, message", [
    ("csv", [], "refusing to emit an empty table"),
    ("json", [], "refusing to emit an empty table"),
    ("xml", [(1.0,)], "unknown format 'xml'"),
])
def test_refusals_write_nothing(tmp_path, monkeypatch, path, fmt, rows, message):
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), pytest.raises(ValueError, match=message):
        emit_table(path, fmt, ["a"], rows)
    assert stdout.getvalue() == ""
    assert list(tmp_path.iterdir()) == []
