"""Matrix CSV round-trip, the one writer of every output file, the one rule
for which input lines are data, and the one for how a count is written
(``parse_count``).

Matrix CSVs, feature CSVs and sweep specs skip blank lines and lines that
start with ``#``; ``_data_lines`` drops them, and every reader reads its
lines through it, ``parse_rows`` on both of its passes.

Matrix CSVs are streamed in blocks, so beyond the matrix itself a read or a
write holds one block.  The writer formats ``_BLOCK`` = 2^12 values at a
time (whole rows where a row fits, else pieces of one row) in numpy, with no
Python float per value: ``log10`` gives each value's decimal exponent e, a
multiply by 10^-e and 10^11 its 12-digit mantissa N, a table of 10^4
four-digit ASCII groups N's digits, and word masks and shifts the layout
that ``%.12g`` chooses (fixed or scientific notation, no trailing zeros,
the sign, the separators).  Its bytes equal ``format_float``'s because the
scaled mantissa carries an error below 2^-11 from its three roundings, and
every value whose mantissa lies within ``_MARGIN`` = 2^-10 of a .5 tie or
of 1e11 or 1e12 (where that error could change the digits or the
exponent), or whose magnitude lies outside [1e-300, 1e300], is written by
``format_float`` itself: about 0.2% of a gaussian matrix.  A write of a
1000x250 matrix holds ~0.75 MiB beyond it at 2^12 values a block and held
3 MiB at 2^14, at the same speed.  The readers give ``np.loadtxt`` the
file's data lines one at a time, so they hold one line of text beside the
array that loadtxt grows.
"""

from __future__ import annotations

import functools
import re
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ParseError
from .linalg import as_matrix

_HEADER_RE = re.compile(r"^#\s*d\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s*$")

# Values formatted per chunk by write_matrix_csv (see the module docstring).
_BLOCK = 2**12

# The block formatter's tables are indexed by the decimal exponent e of a
# value, plus _E0: e = floor(log10 |x|) for |x| in [1e-300, 1e300], with
# room at either end for log10's rounding and for a round-up to the next
# decade.
_E0 = 301
# Notation by the exponent of the rounded value, as %g chooses it.
_FIXED = range(-4, 12)
# A scaled mantissa this near a .5 tie, or 1e11 or 1e12, goes to
# format_float: it is below 2^40, and its three roundings put it within
# 3 * 2^-53 relative, 3 * 2^-13 absolute, of the exact value, < _MARGIN / 2.
_MARGIN = 2.0**-10
# One record of NUL-padded little-endian words per value; the NULs are
# dropped once per block.  ``lead`` holds the sign and the "0." of fixed
# notation below 1, ``lo`` and ``hi`` the digits with their dot or leading
# zeros, ``tail`` the exponent of scientific notation and, in its last
# byte, the separator.
_RECORD = np.dtype([("lead", "<u4"), ("lo", "<u8"), ("hi", "<u8"), ("tail", "<u8")])
_COMMA, _LINE_END = (np.uint64(ord(c)) << np.uint64(56) for c in ",\n")


def format_float(x) -> str:
    """12 significant digits; round-trips with < 1e-9 relative error.

    This is the one definition of how pcattack writes a number.  The matrix
    writer's block formatter (``_format_block``) writes exactly its bytes,
    and is checked against it; every value that the formatter cannot prove
    it rounds alike, it hands to this function."""
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
    yield b"# d=%d n=%d\n" % (d, n)
    rows, cols = max(1, _BLOCK // n), min(n, _BLOCK)
    for top in range(0, d, rows):
        for left in range(0, n, cols):
            # each row of the block ends its line, or continues on the next piece
            yield _format_block(m[top:top + rows, left:left + cols], left + cols >= n)


class _Tables(NamedTuple):
    """The block formatter's lookup tables.  A value's 12 digits are a
    16-byte string, ``lo`` and ``hi``; its body puts in the dot (or, below
    1, the zeros after "0.") at byte ``at`` and moves the bytes from ``at``
    up to make room, then keeps the first ``kept`` bytes, which drops the
    trailing zeros of a fraction and a dot that no digit follows."""
    scale: np.ndarray     # [e + _E0]: 10^-e, correctly rounded
    row: np.ndarray       # [e + _E0]: 13 _FIXED.index(f), f = e in fixed notation, else 0
    exponent: np.ndarray  # [e + _E0]: "e+dd" or "e-ddd" in scientific notation, else 0
    digits: np.ndarray    # [g]: the 4 ASCII digits of g < 10^4
    sig: np.ndarray       # [g]: how many of them are left without their trailing zeros
    # [row + s], s the significant digits of the rounded value:
    lead: np.ndarray      # "0." after the sign byte when f < 0
    moved_lo: np.ndarray  # the bytes from ``at`` up
    moved_hi: np.ndarray
    put_lo: np.ndarray    # the bytes put in at ``at``
    put_hi: np.ndarray
    shift: np.ndarray     # how far the moved bytes move, in bits
    kept_lo: np.ndarray   # the first ``kept`` bytes
    kept_hi: np.ndarray


def _low(k: int) -> list[int]:
    """The ``lo`` and ``hi`` words of a mask of the first ``k`` of 16 bytes."""
    mask = (1 << 8 * k) - 1
    return [mask & (2**64 - 1), mask >> 64]


@functools.cache
def _tables() -> _Tables:
    """Built on the first matrix write, so that other commands do not pay for them."""
    body = []
    for f in _FIXED:
        for s in range(13):
            if f < 0:    # 0.000ddd: -f-1 zeros before the digits
                at, put, kept = 0, b"0" * (-f - 1), -f - 1 + s
            else:        # ddd.ddd: the dot after f+1 digits, if a digit follows it
                at, put = f + 1, b"." if s > f + 1 else b""
                kept = max(s, f + 1) + len(put)
            put_at = int.from_bytes(put, "little") << 8 * at
            body.append([int.from_bytes(b"\0" + b"0." * (f < 0), "little"),
                         *(~mask & (2**64 - 1) for mask in _low(at)),
                         put_at & (2**64 - 1), put_at >> 64, 8 * len(put),
                         *_low(kept)])
    body = np.array(body, dtype=np.uint64).T
    e = range(-_E0, _E0 + 1)
    g = np.arange(10**4)
    digits = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    return _Tables(
        scale=np.array([float(f"1e{-x}") for x in e]),
        row=np.array([13 * _FIXED.index(x if x in _FIXED else 0) for x in e]),
        exponent=np.array([0 if x in _FIXED else int.from_bytes(b"e%+03d" % x, "little")
                           for x in e], dtype=np.uint64),
        digits=digits.view("<u4")[:, 0].astype(np.uint64),
        sig=4 - sum(g % 10**k == 0 for k in (1, 2, 3, 4)),
        lead=body[0].astype("<u4"), moved_lo=body[1], moved_hi=body[2], put_lo=body[3],
        put_hi=body[4], shift=body[5], kept_lo=body[6], kept_hi=body[7])


def _format_block(block: np.ndarray, ends_rows: bool) -> bytes:
    """The values of ``block`` as ``format_float`` writes them, in ASCII,
    each followed by ``,``, or by a line end after the last of a row when
    ``ends_rows``.

    A value x is ``N * 10^(e-11)`` to 12 digits: ``e = floor(log10 |x|)``
    and ``N = rint(y)``, ``y = |x| * 10^-e * 10^11`` in float64.  Where
    ``y`` is at least ``_MARGIN`` from a .5 tie, from 1e11 and from 1e12,
    its error (below ``_MARGIN / 2``) cannot move it across either, so ``e``
    is exact and ``N`` is the correctly rounded mantissa that ``%.12g``
    prints, with the exponent ``e``, or ``e + 1`` where ``N`` rounds up to
    10^12.  Every other value, 0, inf and nan among them, is written by
    ``format_float``."""
    t = _tables()
    v = block.ravel()
    # |x| past 1e-300 or 1e300, and nan, lands on an end and fails the edges
    a = np.fmin(np.fmax(np.abs(v), 1e-300), 1e300)
    ei = np.floor(np.log10(a)).astype(np.intp) + _E0
    y = a * t.scale[ei] * 1e11
    n = np.rint(y)
    fast = (np.abs(y - n) <= 0.5 - _MARGIN) & (y >= 1e11 + _MARGIN) & (y <= 1e12 - _MARGIN)
    carry = n == 1e12
    ei += carry
    n[carry] = 1e11
    # N's digits, four at a time: g0 g1 in lo, g2 in hi
    g0 = np.floor(n / 1e8)
    n -= g0 * 1e8
    g1 = np.floor(n / 1e4)
    g2 = (n - g1 * 1e4).astype(np.intp)
    g0, g1 = g0.astype(np.intp), g1.astype(np.intp)
    lo = t.digits[g0] | t.digits[g1] << np.uint64(32)
    hi = t.digits[g2]
    s = t.sig[g2] + 8
    z = np.flatnonzero(s == 8)
    s[z] = np.where(g1[z] > 0, 4 + t.sig[g1[z]], t.sig[g0[z]])
    i = t.row[ei] + s
    moved, moved_hi, shift = lo & t.moved_lo[i], hi & t.moved_hi[i], t.shift[i]
    buf = bytearray(v.size * _RECORD.itemsize)
    rec = np.frombuffer(buf, _RECORD)
    np.bitwise_and((lo ^ moved) | t.put_lo[i] | (moved << shift), t.kept_lo[i], out=rec["lo"])
    np.bitwise_and((hi ^ moved_hi) | t.put_hi[i] | (moved_hi << shift)
                   | ((moved >> np.uint64(8)) >> (np.uint64(56) - shift)),   # out of lo
                   t.kept_hi[i], out=rec["hi"])
    np.bitwise_or(t.lead[i], np.signbit(v) * np.uint32(ord("-")), out=rec["lead"])
    sep = np.full(block.shape, _COMMA)
    if ends_rows:
        sep[:, -1] = _LINE_END
    sep = sep.ravel()
    np.bitwise_or(t.exponent[ei], sep, out=rec["tail"])
    slow = np.flatnonzero(~fast)
    text = np.array([format_float(x) for x in v[slow].tolist()], dtype="S20")
    np.frombuffer(buf, np.uint8).reshape(-1, _RECORD.itemsize)[slow, :20] = \
        text.view(np.uint8).reshape(-1, 20)
    rec["tail"][slow] = sep[slow]
    return buf.translate(None, b"\0")


def write_table(path, header, rows) -> None:
    """CSV with a header line: ``str`` cells as they are, numbers and None
    through ``format_float``."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else format_float(c) for c in row)
              for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text) -> None:
    """Write ``text``, a string, as UTF-8, or an iterable of ASCII byte
    chunks (``write_matrix_csv``'s) as they are, with ``\\n`` line ends;
    pcattack opens no other file for writing."""
    with open(path, "wb") as fh:
        fh.writelines([text.encode()] if isinstance(text, str) else text)


def numbered_lines(path) -> list[tuple[int, str]]:
    """The file's lines, stripped, with their 1-based line numbers; a
    leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        return [(i, line.strip()) for i, line in enumerate(fh.read().splitlines(), start=1)]


def _streamed_lines(path):
    """``numbered_lines``, read lazily.  The file object splits at ``\\n``,
    ``\\r\\n`` and ``\\r``, and ``str.splitlines`` at the rest (``\\v``,
    ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``)."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = (part for line in fh for part in line.splitlines())
        yield from ((i, line.strip()) for i, line in enumerate(lines, start=1))


def parse_count(text: str, least: int = 0) -> int:
    """A count or seed, as a sweep spec or a command line gives it: an integer
    >= ``least`` in decimal digits alone.  ``int`` would also take a sign,
    ``_`` between digits and spaces around them.  The ValueError says ``must
    be >= <least>`` for digits, or ``-`` and digits, below ``least``, and
    names ``text`` for anything else, ``-0`` included."""
    if text.isdecimal() and int(text) >= least:
        return int(text)
    if text.removeprefix("-").isdecimal() and int(text) < least:
        raise ValueError(f"must be >= {least}")
    raise ValueError(f"must be an integer >= {least}, got {text!r}")


def _all_floats(text: str) -> bool:
    try:
        [float(c) for c in text.split(",")]
    except ValueError:
        return False
    return True


def _data_lines(lines, comments: list, header: list | None = None):
    """The data lines among ``lines``, ``(lineno, stripped text)`` pairs as
    ``numbered_lines`` gives them.  Blank lines are dropped, and lines that
    start with ``#`` go to ``comments``.  Given a ``header`` list, the first
    remaining line goes there instead when ``float()`` refuses one of its
    cells."""
    first = header is not None
    for lineno, text in lines:
        if text.startswith("#"):
            comments.append((lineno, text))
        elif text:
            if first and not _all_floats(text):
                header.append((lineno, text))
            else:
                yield lineno, text
            first = False


def parse_rows(path, header=False):
    """``(matrix, comments, header)``: the float matrix of the comma-separated
    data lines of a file, and the numbered lines it skipped that start with
    ``#`` and, given ``header``, the one that it took as the header.

    ``_data_lines`` picks the data lines: blank lines and ``#`` lines are
    skipped, and with ``header``, so is a first remaining line that holds a
    cell ``float()`` refuses.  Every row must be as wide as the first, and
    every cell is read as ``float()`` reads it; errors cite ``path:lineno``.
    ``np.loadtxt`` reads the data lines first, one at a time as
    ``_streamed_lines`` reads them, and gives the same floats, bit for bit.
    On any ValueError (a bad or ragged row, a cell it is stricter about than
    ``float()``: ``1_0``, non-ASCII digits; or a byte that is not UTF-8), or
    when there is no data line, ``numbered_lines`` reads the file again,
    whole, and the lines are parsed cell by cell, which accepts those cells
    and names the line of any other.  The whole read raises a decoding error
    as it always has, at the byte's offset in the file, counted past the
    byte-order mark if there is one.
    """
    comments, headers = [], []
    texts = (text for _, text in _data_lines(_streamed_lines(path), comments,
                                             headers if header else None))
    try:
        first = next(texts, None)
        if first is not None:
            return (np.loadtxt(chain([first], texts), delimiter=",", comments=None, ndmin=2),
                    comments, headers)
    except ValueError:
        pass
    finally:
        texts.close()
    rows, comments, headers = [], [], []    # the whole read records its own
    for lineno, text in _data_lines(numbered_lines(path), comments, headers if header else None):
        try:
            rows.append([float(c) for c in text.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
        if len(rows[-1]) != len(rows[0]):
            raise ParseError(f"{path}:{lineno}: ragged row "
                             f"({len(rows[-1])} cells, expected {len(rows[0])})")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float), comments, headers


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix CSV; the header line is optional, dimensions inferred.

    Lines starting with ``#`` are comments; the last ``# d=<d> n=<n>`` one,
    before or after the data, fixes the expected shape.
    """
    m, comments, _ = parse_rows(path)
    shapes = [tuple(map(int, match.groups())) for _, text in comments
              if (match := _HEADER_RE.match(text))]
    if shapes and m.shape != shapes[-1]:
        raise ParseError(f"{path}: header says {shapes[-1]}, data is {m.shape}")
    return m
