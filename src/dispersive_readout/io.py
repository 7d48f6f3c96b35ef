"""CSV and JSON emission with reproducible, diff-able formatting.

CSV: header row, LF line endings, '.' decimal separator, shortest float
representation that round-trips exactly. JSON: UTF-8, sorted keys.

The CSV writer formats whole columns, not cells: each block of rows is
converted to Python floats with one ``ndarray.tolist()`` per column and
formatted with ``repr``, which for a Python float is exactly what
:func:`format_float` returns (``nan``/``inf``/``-inf`` included). The rows
of a block are joined and written with one call, so the bytes match a
row-by-row ``format_float`` loop while memory stays bounded by the block.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

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


def read_csv(path):
    """Read a CSV written by :func:`write_csv`; returns (header, columns)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # no data rows: the caller reports the empty columns itself
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, [data[:, i] for i in range(data.shape[1])]


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
