"""Input reading, and CSV and JSON emission with reproducible, diff-able
formatting. Only this module opens files. An input that is not UTF-8, not
JSON, a JSON object with a repeated key, or not a CSV of finite numbers
raises a ConfigError naming the file.

CSV: header row, LF line endings, '.' decimal separator, shortest float
representation that round-trips exactly. JSON: UTF-8, sorted keys, strict
(a NaN or an infinity raises ValueError before the file is opened).

The CSV writer formats whole columns, not cells: each block of rows is
converted to Python floats with one ``ndarray.tolist()`` per column and
formatted with ``repr``, which for a Python float is exactly what
:func:`format_float` returns (``nan``/``inf``/``-inf`` included). The rows
of a block are joined and written with one call, so the bytes match a
row-by-row ``format_float`` loop while memory stays bounded by the block.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import re
import warnings

import numpy as np

from .errors import ConfigError

_BLOCK_ROWS = 4096


def format_float(value) -> str:
    """Shortest decimal string that parses back to the same float."""
    return repr(float(value))


def write_csv(path, header, columns):
    """Write equal-length ``columns`` under ``header`` names."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("all columns must have equal length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [map(repr, c[start:start + _BLOCK_ROWS].tolist())
                     for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


@contextlib.contextmanager
def _reading(path):
    """``path`` open as UTF-8 text; a decode or JSON error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text ({exc.reason})", path=path) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc.msg}", exc.lineno, path) from exc


_ITEM = re.compile(r'\s*(?:("(?:[^"\\]|\\.)*")\s*:\s*)?')
JSON_SPACE = re.compile(r"\s*")


def json_members(source: str, pos: int):
    """(key, key position, value position) of each member of the JSON object
    or array that opens at ``source[pos]``, in file order. An array element's
    key is its index, and its key position is its value position."""
    decoder = json.JSONDecoder()
    for index in itertools.count():
        item = _ITEM.match(source, pos + 1)
        start = item.end()
        if source[start] in "]}":
            return
        key = item.group(1)
        yield ((index, start, start) if key is None
               else (json.loads(key), item.start(1), start))
        pos = JSON_SPACE.match(source, decoder.raw_decode(source, start)[1]).end()
        if source[pos] != ",":
            return


class _RepeatedKey(Exception):
    """A JSON object holds a key twice."""


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise _RepeatedKey
    return obj


def _first_repeat(source, pos):
    """(key, key position) of the first key, in file order, that repeats an
    earlier key of its object in the JSON value at ``source[pos]``, or None."""
    seen = set()
    for key, at, start in json_members(source, pos) if source[pos] in "[{" else ():
        if key in seen:
            return key, at
        seen.add(key)
        inner = _first_repeat(source, start)
        if inner:
            return inner
    return None


def read_json(path):
    """(source text, value) of the JSON file ``path``. An object that holds
    a key twice is refused at the line of its second occurrence."""
    with _reading(path) as fh:
        source = fh.read()
        try:
            return source, json.loads(source, object_pairs_hook=_unique_keys)
        except _RepeatedKey:
            key, at = _first_repeat(source, JSON_SPACE.match(source).end())
            raise ConfigError(f"repeated key {key!r}", source.count("\n", 0, at) + 1,
                              path) from None


def _bad_row(lines):
    """(line, reason) for the first data row of the CSV ``lines`` that is not
    a row of finite numbers as wide as the first one, or None."""
    width = None
    for line, text in enumerate(lines[1:], start=2):
        cells = text.split("#")[0].strip()
        if not cells:
            continue
        cells = cells.split(",")
        width = width or len(cells)
        if len(cells) != width:
            return line, f"expected {width} columns, found {len(cells)}"
        for col, cell in enumerate(cells, start=1):
            if not _is_number(cell):
                return line, f"column {col}: {cell.strip()!r} is not a number"
            if not math.isfinite(float(cell)):
                return line, f"column {col}: {cell.strip()!r} is not a finite number"
    return None


def _is_number(cell):
    """Whether ``np.loadtxt`` reads ``cell`` as a float: ``float``'s grammar
    without underscores or non-ASCII characters inside the cell (such as
    the digit '\uff11'), which the reader rejects."""
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell and cell.strip().isascii()


def read_csv(path):
    """Read a CSV written by :func:`write_csv`; returns (header, columns)."""
    with _reading(path) as fh:
        header = fh.readline().strip().split(",")
        try:
            with warnings.catch_warnings():
                # no data rows: the caller reports the empty columns itself
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            if not np.isfinite(data).all():
                raise ValueError("a cell is not a finite number")
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            fh.seek(0)
            line, reason = _bad_row(fh.read().splitlines()) or (None, str(exc))
            raise ConfigError(reason, line, path) from exc
    return header, [data[:, i] for i in range(data.shape[1])]


def write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
