"""
Plain-text matrix interchange format, and the type check of values
read from JSON recipes.

A matrix file holds a header line "m n" followed by m lines of n
whitespace-separated entries (row-major). Entries are written with
repr precision, so read(write(a)) reproduces a bit for bit. No binary
dependencies.
"""

import json
import types
from itertools import chain
from typing import get_args, get_origin

import numpy as np

from .linalg import as_matrix

# How check_json_type names each scalar type, singular and plural.
_JSON_NAMES = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}


def _json_matches(value, expected):
    if isinstance(expected, types.UnionType):
        return any(_json_matches(value, t) for t in get_args(expected))
    if get_origin(expected) is list:
        (item,) = get_args(expected)
        return isinstance(value, list) and all(_json_matches(v, item) for v in value)
    if isinstance(value, bool):  # JSON true/false are never numbers
        return False
    if isinstance(value, float):  # Python's json also reads NaN and Infinity
        return expected is float and bool(np.isfinite(value))
    return isinstance(value, int if expected is float else expected)


def _json_describe(expected):
    if isinstance(expected, types.UnionType):
        return " or ".join(_json_describe(t) for t in get_args(expected))
    if get_origin(expected) is list:
        return f"an array of {_JSON_NAMES[get_args(expected)[0]][1]}"
    return _JSON_NAMES[expected][0]


def check_json_type(value, expected, name):
    """
    Raise ValueError naming `name` unless a JSON-decoded value has the
    expected type: int (a JSON integer), float (any finite JSON number),
    str, list[T] (an array of T), or a union of these.
    """
    if _json_matches(value, expected):
        return
    got = {list: "an array", dict: "an object"}.get(type(value))
    got = got or json.dumps(value, default=str)
    raise ValueError(f"{name} must be {_json_describe(expected)}, got {got}")


def format_float(x):
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


def write_matrix(a, path):
    a = as_matrix(a, "matrix")
    m, n = a.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m} {n}\n")
        fh.writelines(" ".join(map(format_float, row.tolist())) + "\n" for row in a)


def read_matrix(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(x.isdecimal() and int(x) > 0 for x in header):
            raise ValueError(f"{path}: malformed header, expected positive 'm n'")
        m, n = int(header[0]), int(header[1])
        # The data rows, streamed, without the blank and comment lines
        # loadtxt skips. With none, loadtxt would warn and return 0 x 1.
        rows = (line for line in fh if line.split("#", 1)[0].strip())
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: header promises {m}x{n}, all {m} rows are missing")
        try:
            data = np.loadtxt(chain([first], rows), dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if data.shape != (m, n):
        raise ValueError(
            f"{path}: header promises {m}x{n}, file holds {data.shape[0]}x{data.shape[1]}"
        )
    return as_matrix(data, path)
