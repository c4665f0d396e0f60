"""
Plain-text matrix interchange format.

A matrix file holds a header line "m n" followed by m lines of n
whitespace-separated entries (row-major). Entries are written with
repr precision, so read(write(a)) reproduces a bit for bit. No binary
dependencies.
"""

import numpy as np

from .linalg import as_matrix


def format_float(x):
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


def write_matrix(a, path):
    a = as_matrix(a, "matrix")
    m, n = a.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m} {n}\n")
        for row in a:
            fh.write(" ".join(format_float(x) for x in row))
            fh.write("\n")


def read_matrix(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(x.isdigit() for x in header):
            raise ValueError(f"{path}: malformed header, expected 'm n'")
        m, n = int(header[0]), int(header[1])
        try:
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if data.shape != (m, n):
        raise ValueError(
            f"{path}: header promises {m}x{n}, file holds {data.shape[0]}x{data.shape[1]}"
        )
    return as_matrix(data, path)
