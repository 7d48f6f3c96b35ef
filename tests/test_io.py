"""The block CSV writer emits the same bytes as the row-by-row reference,
the CSV reader reports the row it cannot parse, and only io opens files."""

import ast
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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


@given(columns=csv_columns())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_block_writer_matches_rowwise_reference(columns, tmp_path):
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "block.csv", header, columns)
    write_csv_rowwise(tmp_path / "rowwise.csv", header, columns)
    assert (tmp_path / "block.csv").read_bytes() == (
        tmp_path / "rowwise.csv").read_bytes()


def test_noise_trace_matches_rowwise_reference(tmp_path):
    cfg = load_config(CONFIGS / "default.json")
    n = 2**16
    times = np.arange(n) / cfg.lockin.fs
    series = synthesize_phase_noise(cfg.psd, cfg.lockin.fs, n, cfg.seed)
    write_csv(tmp_path / "block.csv", ["time_s", "value"], [times, series])
    write_csv_rowwise(tmp_path / "rowwise.csv", ["time_s", "value"],
                      [times, series])
    data = (tmp_path / "block.csv").read_bytes()
    assert data == (tmp_path / "rowwise.csv").read_bytes()
    assert data.count(b"\n") == n + 1
    _, (t, v) = read_csv(tmp_path / "block.csv")
    assert np.array_equal(t, times) and np.array_equal(v, series)


def test_non_float_inputs_are_written_as_floats(tmp_path):
    columns = [[1, 2, 3], np.array([4, 5, 6], dtype=np.int64),
               np.array([0.5, -1.5, 2.0], dtype=np.float32)]
    write_csv(tmp_path / "block.csv", ["a", "b", "c"], columns)
    assert (tmp_path / "block.csv").read_text() == (
        "a,b,c\n1.0,4.0,0.5\n2.0,5.0,-1.5\n3.0,6.0,2.0\n")


def test_unequal_lengths_raise_before_writing(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="equal length"):
        write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(4)])
    assert not path.exists()


@pytest.mark.parametrize("rows, line, reason", [
    ("0.0,1.0\n1.0,oops\n", 3, "column 2: 'oops' is not a number"),
    ("0.0,1.0 # comment\n\n1.0\n", 4, "expected 2 columns, found 1"),
    ("0.0,1.0\n1_0,0.5\n", 3, "column 1: '1_0' is not a number"),  # float() takes it
], ids=["non-numeric", "ragged", "underscore"])
def test_unparsable_row_is_located(tmp_path, rows, line, reason):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n" + rows)
    with pytest.raises(ConfigError) as info:
        read_csv(path)
    assert (info.value.line, info.value.reason) == (line, reason)
    assert str(info.value) == f"{path}: line {line}: {reason}"


@pytest.mark.parametrize("col", [1, 2, 3], ids=["x", "y", "third"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_cell_is_located(tmp_path, cell, col):
    row = ["0.5", "1.5", "2.5"]
    row[col - 1] = cell
    path = tmp_path / "data.csv"
    path.write_text("x,y,z\n0.0,1.0,2.0\n" + ",".join(row) + "\n3.0,4.0,5.0\n")
    with pytest.raises(ConfigError) as info:
        read_csv(path)
    reason = f"column {col}: '{cell}' is not a finite number"
    assert (info.value.line, info.value.reason) == (3, reason)
    assert str(info.value) == f"{path}: line 3: {reason}"


@pytest.mark.parametrize("text, line, key", [
    ('{"a": 1,\n"a": 1}', 2, "a"),
    ('{"a": {"b": 1,\n"b": 2}}', 2, "b"),
    ('{"a": [1, {"c": 1,\n\n"c": 2}]}', 3, "c"),
    ('[{"a": 1},\n{"a": 1,\n"a": 2}]', 3, "a"),
    ('{"a": 1,\n"\\u0061": 2}', 2, "a"),
    ('{"x": {"b": 1,\n"b": 2},\n"x": 3}', 2, "b"),
    ('{"x": 1,\n"x": 2,\n"z": {"q": 1, "q": 2}}', 2, "x"),
], ids=["same-value", "nested", "in-an-array", "top-level-array", "escaped",
        "inner-before-outer", "outer-before-inner"])
def test_repeated_key_is_refused_at_its_first_repeat(tmp_path, text, line, key):
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        read_json(path)
    assert str(info.value) == f"{path}: line {line}: repeated key {key!r}"


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
