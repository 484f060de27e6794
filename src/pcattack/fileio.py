"""Matrix CSV round-trip, and the one writer of every output file.

Matrix CSVs are streamed in blocks, so beyond the matrix itself a read or a
write holds one block.  The writer formats ``_BLOCK`` = 2^14 values at a
time (whole rows where a row fits, else pieces of one row): ~0.3 MB of
text and ~0.7 MB of Python floats with their list and tuple, small beside
the matrices the attacks factor, while one ``%``-format per block keeps the
formatting cost per value as low as one format of the whole matrix.  The readers give ``np.loadtxt``
the file's data lines one at a time, so they hold one line of text beside
the array that loadtxt grows.
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np

from .errors import ParseError
from .linalg import as_matrix

_HEADER_RE = re.compile(r"^#\s*d\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s*$")

# Values formatted per write by write_matrix_csv (see the module docstring).
_BLOCK = 2**14


def format_float(x) -> str:
    """12 significant digits; round-trips with < 1e-9 relative error."""
    if x is None:
        return ""
    return format(float(x), ".12g")


def write_matrix_csv(path, m) -> None:
    """Write a d x n matrix with a ``# d=<d> n=<n>`` header line, formatting
    ``_BLOCK`` values at a time as ``format_float`` writes them."""
    m = as_matrix(m)
    write_text(path, _matrix_chunks(m))


def _matrix_chunks(m: np.ndarray):
    d, n = m.shape
    yield f"# d={d} n={n}\n"
    rows, cols = max(1, _BLOCK // n), min(n, _BLOCK)
    for top in range(0, d, rows):
        for left in range(0, n, cols):
            block = m[top:top + rows, left:left + cols]
            # each row of the block ends its line, or continues on the next piece
            line = ",".join(["%.12g"] * block.shape[1]) + ("\n" if left + cols >= n else ",")
            yield (line * len(block)) % tuple(block.ravel().tolist())


def write_table(path, header, rows) -> None:
    """CSV with a header line: ``str`` cells as they are, numbers and None
    through ``format_float``."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else format_float(c) for c in row)
              for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of string chunks, as UTF-8 with
    ``\\n`` line ends; pcattack opens no other file for writing."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def numbered_lines(path) -> list[tuple[int, str]]:
    """The file's lines, stripped, with their 1-based line numbers."""
    with open(path, encoding="utf-8") as fh:
        return [(i, line.strip()) for i, line in enumerate(fh.read().splitlines(), start=1)]


def _streamed_lines(path):
    """``numbered_lines``, read lazily.  The file object splits at ``\\n``,
    ``\\r\\n`` and ``\\r``, and ``str.splitlines`` at the rest (``\\v``,
    ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``)."""
    with open(path, encoding="utf-8") as fh:
        lines = (part for line in fh for part in line.splitlines())
        yield from ((i, line.strip()) for i, line in enumerate(lines, start=1))


def parse_rows(path, data_lines) -> np.ndarray:
    """Float matrix from the comma-separated data lines of a file; blank lines
    are skipped.

    ``data_lines`` maps the file's numbered, stripped lines to the numbered
    data lines; it runs once per read of the file and may record what it
    skips.  Every row must be as wide as the first, and every cell is read as
    ``float()`` reads it; errors cite ``path:lineno``.  ``np.loadtxt`` reads
    the data lines first, one at a time as ``_streamed_lines`` reads them,
    and gives the same floats, bit for bit.  On any ValueError (a bad or
    ragged row, a cell it is stricter about than ``float()``: ``1_0``,
    non-ASCII digits; or a byte that is not UTF-8), or when there is no data
    line, ``numbered_lines`` reads the file again, whole, and the lines are
    parsed cell by cell, which accepts those cells and names the line of any
    other.  The whole read raises a decoding error as it always has, at the
    byte's offset in the file.
    """
    texts = (text for _, text in data_lines(_streamed_lines(path)) if text)
    try:
        first = next(texts, None)
        if first is not None:
            return np.loadtxt(chain([first], texts), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    finally:
        texts.close()
    rows = []
    for lineno, text in data_lines(numbered_lines(path)):
        if not text:
            continue
        try:
            rows.append([float(c) for c in text.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
        if len(rows[-1]) != len(rows[0]):
            raise ParseError(f"{path}:{lineno}: ragged row "
                             f"({len(rows[-1])} cells, expected {len(rows[0])})")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix CSV; the header line is optional, dimensions inferred.

    Lines starting with ``#`` are comments; the last ``# d=<d> n=<n>`` one,
    before or after the data, fixes the expected shape.
    """
    headers = []

    def data_lines(lines):
        headers.clear()
        for lineno, text in lines:
            if not text.startswith("#"):
                yield lineno, text
            elif match := _HEADER_RE.match(text):
                headers.append((int(match.group(1)), int(match.group(2))))

    m = parse_rows(path, data_lines)
    if headers and m.shape != headers[-1]:
        raise ParseError(f"{path}: header says {headers[-1]}, data is {m.shape}")
    return m
