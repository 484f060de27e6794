"""Both CSV readers give the same result on their ``np.loadtxt`` path as on
the cell-by-cell parser they fall back to.

``fileio.parse_rows`` reads with ``np.loadtxt`` first and parses again, line
by line with ``float()``, on any ValueError.  Each case here is read twice
by ``read_matrix_csv`` and by ``pcr.load_feature_csv``: as it stands, and
with ``np.loadtxt`` made to fail, so that only the fallback runs.  The two
reads must give the same arrays, bit for bit, or the same ParseError text.
"""

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
    "bad-second-line": "1,2\n3,x\n",
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
