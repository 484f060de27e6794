"""The matrix CSV writer and both CSV readers: what they accept, what they
write, and the memory they hold.

Both readers read through ``fileio.parse_rows``, which skips the same lines
for both: blank ones, ``#`` comments and, for ``pcr.load_feature_csv``, a
header.  It reads with ``np.loadtxt`` first, from lines read lazily from the
file, and on any ValueError reads the file again, whole, and parses it line
by line with ``float()``.  Each case here is read twice by
``read_matrix_csv`` and by ``pcr.load_feature_csv``: as it stands, and with
``np.loadtxt`` made to fail, so that only the fallback runs.  The two reads
must give the same arrays, bit for bit, or the same ParseError text, which
also checks that the lazy read splits lines where ``str.splitlines`` does,
and that both reads skip the same comments and header.
"""

import re
import tracemalloc

import numpy as np
import pytest

from pcattack import fileio
from pcattack.errors import ParseError
from pcattack.fileio import read_matrix_csv
from pcattack.pcr import load_feature_csv

CASES = {
    "plain": "1,2\n3,4\n",
    "header": "# d=2 n=2\n1,2\n3,4\n",
    "header-mismatch": "# d=3 n=2\n1,2\n3,4\n",
    "comments-blanks": "# note\n\n1, 2\n \t \n3,\t4\n# d=2 n=2\n",
    "column": "1\n2\n3\n",
    "one-cell": "5\n",
    "empty": "",
    "only-comment": "# d=1 n=1\n",
    "ragged-short": "1,2\n3\n",
    "ragged-long": "1,2\n3,4,5\n",
    "underscore": "1_0,2\n3,4\n",
    "non-ascii-digit": "\u0661,2\n3,4\n",
    "underscore-then-bad": "1_0,2\n3,x\n",
    "specials": "inf,-inf,NaN\n-nan,1e400,-1e-400\n",
    "signs-dots": "+1,.5\n5.,-.5e-3\n",
    "subnormal-max": "5e-324,1.7976931348623157e308\n2.5e-324,-0\n",
    "unicode-space": " 1,\x0c2\n3,4\n",
    "empty-field": "1,,2\n",
    "trailing-comma": "1,2,\n",
    "hex": "0x1p3,1\n",
    "fortran-exponent": "1d3,1\n",
    "inline-comment": "1,2 # note\n",
    "spaced-digits": "1 2,3\n",
    "byte-order-mark": "\ufeff1,2\n",
    "names-header": "a,b,y\n1,2,3\n4,5,6\n",
    "narrow-header": "a,b\n1,2,3\n4,5,6\n",
    "names-header-comments": "# a,b\na,b,y\n1,2,3\n# note\n4,5,6\n# end",
    "bad-second-line": "1,2\n3,x\n",
    "crlf": "1,2\r\n3,4\r\n",
    "lone-cr": "1,2\r3,4\r",
    "cr-then-blank-lf": "1,2\r\r\n3,4\n",
    "no-final-newline": "1,2\n3,4",
    "header-after-data": "1,2\n3,4\n# d=2 n=2",
    "header-after-data-mismatch": "1,2\n3,4\n# d=2 n=3\n",
    **{f"{name}-{where}": text.format(char)
       for name, char in [("vt", "\x0b"), ("fs", "\x1c"), ("gs", "\x1d"), ("rs", "\x1e"),
                          ("nel", "\x85"), ("line-sep", "\u2028"), ("para-sep", "\u2029")]
       for where, text in [("inside", "1,2{0}3,4\n5,6\n"), ("in-cell", "1,2\n3{0}5,4\n"),
                           ("at-end", "1,2{0}\n3,4{0}")]},
}


def _outcome(reader, path):
    """The reader's arrays, viewed as integers so that equality is bitwise, or
    its ParseError text."""
    try:
        out = reader(path)
    except ParseError as exc:
        return str(exc)
    return [(a.shape, a.view(np.int64).tolist()) for a in (out if isinstance(out, tuple)
                                                            else (out,))]


@pytest.mark.parametrize("reader", [read_matrix_csv, load_feature_csv],
                         ids=["matrix", "features"])
@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_loadtxt_path_matches_the_line_parser(tmp_path, monkeypatch, reader, text):
    path = tmp_path / "cells.csv"
    path.write_text(text, encoding="utf-8")
    with_loadtxt = _outcome(reader, path)

    def fails(*args, **kwargs):
        raise ValueError("the line parser alone")

    monkeypatch.setattr(fileio.np, "loadtxt", fails)
    assert _outcome(reader, path) == with_loadtxt


@pytest.mark.parametrize("text, path_taken", [
    ("1,2\n3,4\n", "loadtxt"), ("inf,-1e400\n.5,+1\n", "loadtxt"),
    ("1_0,2\n3,4\n", "fallback"), ("\u0661,2\n", "fallback"), ("1,2\n3\n", "fallback"),
])
def test_fallback_runs_only_where_loadtxt_refuses(tmp_path, monkeypatch, text, path_taken):
    calls = []
    loadtxt = np.loadtxt

    def recording(*args, **kwargs):
        try:
            out = loadtxt(*args, **kwargs)
        except ValueError:
            calls.append("fallback")
            raise
        calls.append("loadtxt")
        return out

    monkeypatch.setattr(fileio.np, "loadtxt", recording)
    path = tmp_path / "cells.csv"
    path.write_text(text, encoding="utf-8")
    try:
        read_matrix_csv(path)
    except ParseError:
        pass
    assert calls == [path_taken]


def test_accepted_cells_read_as_float_reads_them(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("1_0, \u0661 ,inf\n-nan,1e400,\t.5\n", encoding="utf-8")
    expected = np.array([[10.0, 1.0, np.inf], [float("-nan"), np.inf, 0.5]])
    assert read_matrix_csv(path).view(np.int64).tolist() == expected.view(np.int64).tolist()


@pytest.mark.parametrize("reader", [read_matrix_csv, load_feature_csv],
                         ids=["matrix", "features"])
@pytest.mark.parametrize("first", ["1,2\n", "1,x\n"], ids=["good-rows", "bad-row"])
def test_a_byte_past_the_first_block_that_is_not_utf8(tmp_path, reader, first):
    # the error gives the byte's offset in the file, as a whole read does,
    # before any line is parsed
    path = tmp_path / "bytes.csv"
    path.write_bytes(first.encode() + b"1,2\n" * 5000 + b"3,\xff\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode("utf-8")
    with pytest.raises(UnicodeDecodeError) as exc:
        reader(path)
    assert str(exc.value) == str(whole.value)


@pytest.mark.parametrize("text", ["1,2\n3,4\n", "# d=2 n=2\n1,2\n3,4\n", "1_0,2\n3,4\n"],
                         ids=["plain", "header", "fallback"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, text):
    # Excel's "CSV UTF-8" starts the file with one
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert np.array_equal(read_matrix_csv(marked), read_matrix_csv(plain))


@pytest.mark.parametrize("text, least, expected", [
    ("0", 0, 0), ("7", 1, 7), ("0012", 0, 12), ("\u0663", 0, 3),
    ("-1", 0, "must be >= 0"), ("0", 1, "must be >= 1"), ("-0", 0, "got '-0'"),
    ("1_0", 0, "got '1_0'"), ("+3", 1, "got '+3'"), (" 3", 0, "got ' 3'"),
    ("3.0", 0, "got '3.0'"), ("1e3", 0, "got '1e3'"), ("", 0, "got ''"), ("-", 0, "got '-'"),
])
def test_parse_count_takes_decimal_digits_alone(text, least, expected):
    # the one rule for the seeds and trial counts of sweep specs and commands
    if isinstance(expected, int):
        assert fileio.parse_count(text, least) == expected
    else:
        with pytest.raises(ValueError, match=re.escape(expected)):
            fileio.parse_count(text, least)


def _one_format(m):
    """The whole matrix in one ``%``-format: the text the writer must give."""
    d, n = m.shape
    row = ",".join(["%.12g"] * n)
    return f"# d={d} n={n}\n" + "\n".join([row] * d) % tuple(m.ravel().tolist()) + "\n"


EDGE = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        1e11, 1e12, 123456789012.5, 1e-4, 1e-5, 1 / 3]
BLOCK = fileio._BLOCK


@pytest.mark.parametrize("shape", [
    (1, 1), (1, 12), (12, 1), (3, 4), (1, BLOCK), (1, BLOCK + 5), (2, 2 * BLOCK + 7),
    (BLOCK, 1), (BLOCK + 3, 1), (70, 250), (131, 250), (3, BLOCK // 2 + 1),
])
def test_writer_gives_one_format_text_in_blocks(tmp_path, monkeypatch, shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    x.flat[:len(EDGE)] = EDGE[:x.size]
    chunks, write_text = [], fileio.write_text

    def recording(path, text):
        write_text(path, (chunks.append(c) or c for c in text))

    monkeypatch.setattr(fileio, "write_text", recording)
    path = tmp_path / "m.csv"
    for m in (x, np.asfortranarray(x)):
        chunks.clear()
        fileio.write_matrix_csv(path, m)
        assert path.read_bytes() == _one_format(x).encode()
        assert max(len(re.findall(r"[^,\n]+", c)) for c in chunks[1:]) <= BLOCK


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def tall(tmp_path_factory):
    """A 1000x250 matrix, written once, after a small write and read that
    leave lazy imports and caches out of the traced calls."""
    x = np.random.default_rng(0).standard_normal((1000, 250))
    path = tmp_path_factory.mktemp("tall") / "m.csv"
    fileio.write_matrix_csv(path, x[:2])
    read_matrix_csv(path)
    fileio.write_matrix_csv(path, x)
    return x, path


def test_writer_holds_one_block(tall, tmp_path):
    x, _ = tall
    peak, _ = _traced_peak(lambda: fileio.write_matrix_csv(tmp_path / "m.csv", x))
    assert peak < 2 * 2**20


def test_reader_holds_one_line_beside_the_matrix(tall):
    x, path = tall
    peak, back = _traced_peak(lambda: read_matrix_csv(path))
    assert peak < x.nbytes + 2**20
    assert np.array_equal(back, np.array([[float("%.12g" % v) for v in row] for row in x]))
