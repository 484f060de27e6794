"""Matrix CSV round-trip, and the one writer of every output file."""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .linalg import as_matrix

_HEADER_RE = re.compile(r"^#\s*d\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s*$")


def format_float(x) -> str:
    """12 significant digits; round-trips with < 1e-9 relative error."""
    if x is None:
        return ""
    return format(float(x), ".12g")


def write_matrix_csv(path, m) -> None:
    """Write a d x n matrix with a ``# d=<d> n=<n>`` header line."""
    m = as_matrix(m)
    d, n = m.shape
    # one %-format of every value, "%.12g" as format_float writes it
    row = ",".join(["%.12g"] * n)
    body = "\n".join([row] * d) % tuple(m.ravel().tolist())
    write_text(path, f"# d={d} n={n}\n{body}\n")


def write_table(path, header, rows) -> None:
    """CSV with a header line: ``str`` cells as they are, numbers and None
    through ``format_float``."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else format_float(c) for c in row)
              for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` line ends; pcattack opens no other
    file for writing."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def numbered_lines(path) -> list[tuple[int, str]]:
    """The file's lines, stripped, with their 1-based line numbers."""
    with open(path, encoding="utf-8") as fh:
        return [(i, line.strip()) for i, line in enumerate(fh.read().splitlines(), start=1)]


def parse_rows(path, lines) -> np.ndarray:
    """Float matrix from numbered comma-separated lines; blank lines are skipped.

    Every row must be as wide as the first, and every cell is read as
    ``float()`` reads it; errors cite ``path:lineno``.  ``np.loadtxt`` reads
    the lines first and gives the same floats, bit for bit.  On any
    ValueError (a bad or ragged row, or a cell it is stricter about than
    ``float()``: ``1_0``, non-ASCII digits) the lines are read again cell by
    cell, which accepts those cells and names the line of any other.
    """
    lines = [(lineno, text) for lineno, text in lines if text]
    if not lines:
        raise ParseError(f"{path}: no data rows")
    try:
        return np.loadtxt([text for _, text in lines], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    rows = []
    for lineno, text in lines:
        try:
            rows.append([float(c) for c in text.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
        if len(rows[-1]) != len(rows[0]):
            raise ParseError(f"{path}:{lineno}: ragged row "
                             f"({len(rows[-1])} cells, expected {len(rows[0])})")
    return np.array(rows, dtype=float)


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix CSV; the header line is optional, dimensions inferred.

    Lines starting with ``#`` are comments; the last ``# d=<d> n=<n>`` one
    fixes the expected shape.
    """
    lines = numbered_lines(path)
    expected = None
    for _, text in lines:
        match = _HEADER_RE.match(text)
        if match:
            expected = (int(match.group(1)), int(match.group(2)))
    m = parse_rows(path, [(i, text) for i, text in lines if not text.startswith("#")])
    if expected is not None and m.shape != expected:
        raise ParseError(f"{path}: header says {expected}, data is {m.shape}")
    return m
