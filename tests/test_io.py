"""The block CSV writer emits the same bytes as the row-by-row reference, each
reader refusal is one row of ``READ_REFUSALS``, and only io opens files."""

import ast
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import write_csv_rowwise

from dispersive_readout import synthesize_phase_noise
from dispersive_readout import ConfigError
from dispersive_readout.config import load_config
from dispersive_readout.io import _BLOCK_ROWS, read_csv, read_json, write_csv

CONFIGS = Path(__file__).parent.parent / "configs"
PACKAGE = Path(__file__).parent.parent / "src" / "dispersive_readout"

SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,  # subnormals, min normal
    1e308, -1e308, 1.7976931348623157e308,
]
LENGTHS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


@st.composite
def csv_columns(draw):
    n_cols = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.sampled_from(LENGTHS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    picks = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(),
                          min_size=1, max_size=16))
    columns = []
    for _ in range(n_cols):
        # raw bit patterns reach every exponent, subnormals and NaN payloads;
        # scaled normals look like the emitted traces
        bits = np.frombuffer(rng.bytes(8 * n), dtype=np.float64)
        scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, size=n)
        col = np.where(rng.random(n) < 0.5, bits, scaled)
        k = min(n, len(picks))
        col[rng.choice(n, size=k, replace=False)] = picks[:k]
        columns.append(col)
    return columns


_CFG = load_config(CONFIGS / "default.json")
NOISE_TRACE = [np.arange(2**16) / _CFG.lockin.fs,
               synthesize_phase_noise(_CFG.psd, _CFG.lockin.fs, 2**16, _CFG.seed)]


@given(columns=csv_columns())
@example(columns=NOISE_TRACE)  # the emitted noise trace of the default config
@example(columns=[[1, 2, 3], np.array([4, 5, 6], dtype=np.int64),
                  np.array([0.5, -1.5, 2.0], dtype=np.float32)])
@example(columns=[np.zeros(3), np.zeros(4)])
@settings(max_examples=40, deadline=None)
def test_block_writer_matches_rowwise_reference(columns):
    """The bytes are the reference's, any number written as its float, one
    line a row; a finite table reads back bit for bit, and columns of
    unequal length are refused before the file is opened."""
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        block, rowwise = Path(tmp) / "block.csv", Path(tmp) / "rowwise.csv"
        if len({len(c) for c in columns}) > 1:
            with pytest.raises(ValueError, match="^all columns must have equal length$"):
                write_csv(block, header, columns)
            assert not block.exists()
            return
        write_csv(block, header, columns)
        write_csv_rowwise(rowwise, header, columns)
        data = block.read_bytes()
        assert data == rowwise.read_bytes()
        assert data.count(b"\n") == len(columns[0]) + 1
        if len(columns[0]) and np.isfinite(columns).all():
            assert np.array_equal(read_csv(block)[1], np.asarray(columns, dtype=float))


def _cells(row, col, cell):
    """``row`` with its cell ``col`` (from 1) replaced by ``cell``."""
    return ",".join(cell if i == col else v for i, v in enumerate(row.split(","), start=1))


# name: (the reader, the file's text, the line it names, its reason)
READ_REFUSALS = {
    "csv-non-numeric": (read_csv, "x,y\n0.0,1.0\n1.0,oops\n", 3,
                        "column 2: 'oops' is not a number"),
    "csv-ragged": (read_csv, "x,y\n0.0,1.0 # comment\n\n1.0\n", 4,
                   "expected 2 columns, found 1"),
    # float() takes it, numpy's reader not
    "csv-underscore": (read_csv, "x,y\n0.0,1.0\n1_0,0.5\n", 3,
                       "column 1: '1_0' is not a number"),
    **{f"csv-{cell}-in-column-{col}": (
        read_csv, f"x,y,z\n0.0,1.0,2.0\n{_cells('0.5,1.5,2.5', col, cell)}\n3.0,4.0,5.0\n",
        3, f"column {col}: '{cell}' is not a finite number")
       for cell in ("nan", "inf", "-inf", "1e400") for col in (1, 2, 3)},
    # an object's first repeated key, in file order, at the line of its repeat
    **{f"json-{name}": (read_json, text, line, f"repeated key {key!r}")
       for name, text, line, key in [
           ("same-value", '{"a": 1,\n"a": 1}', 2, "a"),
           ("nested", '{"a": {"b": 1,\n"b": 2}}', 2, "b"),
           ("in-an-array", '{"a": [1, {"c": 1,\n\n"c": 2}]}', 3, "c"),
           ("top-level-array", '[{"a": 1},\n{"a": 1,\n"a": 2}]', 3, "a"),
           ("escaped", '{"a": 1,\n"\\u0061": 2}', 2, "a"),
           ("inner-before-outer", '{"x": {"b": 1,\n"b": 2},\n"x": 3}', 2, "b"),
           ("outer-before-inner", '{"x": 1,\n"x": 2,\n"z": {"q": 1, "q": 2}}', 2, "x")]},
}


@pytest.mark.parametrize("reader, text, line, reason", READ_REFUSALS.values(),
                         ids=list(READ_REFUSALS))
def test_read_refusal_names_the_file_and_line(tmp_path, reader, text, line, reason):
    path = tmp_path / "in.txt"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        reader(path)
    assert (info.value.line, info.value.reason) == (line, reason)
    assert str(info.value) == f"{path}: line {line}: {reason}"


@pytest.mark.parametrize("text", [
    '{"a": {"k": 1}, "b": {"k": 2}}',
    '{"k": {"k": [{"k": 1}, {"k": 2}]}}',
    '{"a": "\\"a\\": 1", "b": 1}',
], ids=["sibling-objects", "nested-levels", "key-inside-a-string"])
def test_a_key_shared_across_objects_is_not_a_repeat(tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert read_json(path) == (text, json.loads(text))


@settings(max_examples=300, deadline=None)
@given(cell=st.text(alphabet="0123456789.eE+-_ \tinfatyINFATY\u00a0\u2003\uff11\u0660",
                    max_size=8))
@example(cell="\uff11")  # a fullwidth digit: float() takes it, numpy's reader not
@example(cell="\u00a01.0")  # a no-break space: both take it
@example(cell="INF")  # numpy reads it as infinity, which is not finite
def test_first_cell_the_reader_rejects_is_located(cell):
    # line 3 holds the drawn cell, line 4 a cell no reader takes; the drawn
    # cell is rejected when numpy refuses it or reads it as non-finite
    try:
        read = np.loadtxt([f"{cell},0"], delimiter=",", ndmin=2)
    except ValueError:
        line = 3
    else:
        line = 4 if np.isfinite(read).all() else 3
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(f"x,y\n0.0,1.0\n{cell},0\noops,0\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            read_csv(path)
    assert info.value.line == line, info.value
    assert info.value.reason.startswith("column 1: "), info.value


def test_only_io_opens_files():
    """Every input is read, and every output written, through io."""
    calls = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "io.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "open" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{module.name}:{node.lineno}")
    assert calls == []
