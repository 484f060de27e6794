"""A contract fuzz of the CLI, run in process: ``attack`` and ``verify`` over
shapes, spectra, scales and budgets, ``sweep`` over spec files, and ``pcr``
over feature CSVs.

The space: shapes from 1x1 to 30x12, gaussian, low-rank, exactly tied and
nearly tied (relative gap 1e-12 to 1e-3) spectra at k, scales 1, 1e+-150,
1e+-300 and 1e307, budgets from 1e-14 to 10 of the scale plus 0, the
subnormal 5e-324 and 1e-310, 2e-308, 1e-300 and 1e200, both strategies, and ``verify --trials 64`` on about one case in four.
Each case checks the CLI's contract:

* the exit code is 0, 2, 3 or 4, and exit 2 or 3 writes one ``error:`` line
  and nothing else;
* the JSON report is strict (no NaN or infinity);
* the budget is not overspent, ``delta_fro_norm <= eta (1 + 1e-13)``, for a
  budget above the subnormal range;
* an unambiguous report's achieved angle is its predicted one to ``64 eps
  sigma_1 / gap``.  The angle is read from two truncations at k, of X and of
  ``X + delta``, and each is accurate to eps sigma_1 over its own gap, so
  sigma_1 is the larger of the two and the gap the smaller.  Near a regime
  boundary the perturbed gap is the small one: at eta just under sigma_k
  of a full-rank X, ``X + delta`` keeps only ``sigma_k - eta^2 / sigma_k`` of
  u_k, and the achieved angle moves by eps sigma_k over its remaining norm;
* every ``verify`` line is ``ok``, ``skipped: <reason>`` or ``tied``.

Sweeps run synthetic and from-file data (the attack space's matrices, at
its scales and at 8e307) with every strategy, small trial counts and ratios
from 0 to 2.  PCR runs gaussian, low-rank and rank-one features at scales
from 1e-300 to 1e300, and writes them with the cells and lines either CSV
reader path must handle: whitespace, ``1_0``, a header line, blank lines,
``#`` lines and a ragged row.  Both check that every command exits 0, 2, 3
or 4 as above, that no warning is raised, and that every number in an
output CSV is finite.  The explicit examples are the sweeps near the
float64 maximum whose oracle overflowed in ``x + delta``, and the PCR input
whose attacked scores went subnormal and wrote ``nan``.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcattack import read_matrix_csv, synth_gaussian, write_matrix_csv
from pcattack.cli import main

EPS = 2.0**-52
SHAPES = [(1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (2, 5), (5, 2), (5, 5), (7, 3), (3, 7),
          (10, 16), (16, 10), (20, 5), (5, 20), (30, 12)]
SCALES = [1.0, 1e150, 1e-150, 1e300, 1e-300, 1e307]


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _matrix(kind, shape, k, seed, tie_exponent):
    """A matrix of largest |entry| 1 whose spectrum is of ``kind`` at ``k``."""
    rng = np.random.default_rng(seed)
    d, n = shape
    p = min(shape)
    if kind == "gaussian":
        x = rng.standard_normal(shape)
    elif kind == "low-rank":
        rank = int(rng.integers(1, p)) if p > 1 else 1
        x = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
    else:
        sigma = np.sort(rng.uniform(0.1, 1.0, p))[::-1]
        if k < p:
            sigma[k] = sigma[k - 1] * (1.0 if kind == "tie" else 1.0 - 10.0**tie_exponent)
        x = np.zeros(shape)
        x[range(p), range(p)] = sigma
        if rng.random() < 0.5:      # rotated, or diagonal as it stands
            x = _orthogonal(rng, d) @ x @ _orthogonal(rng, n).T
    return x / np.abs(x).max()


@st.composite
def _case(draw):
    shape = draw(st.sampled_from(SHAPES))
    k = draw(st.integers(1, min(shape)))
    kind = draw(st.sampled_from(["gaussian", "low-rank", "tie", "near-tie"]))
    x = _matrix(kind, shape, k, draw(st.integers(0, 2**32 - 1)), draw(st.floats(-12.0, -3.0)))
    scale = draw(st.sampled_from(SCALES))
    eta = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2e-308, 1e-300, 1e200]),
                         st.floats(-14.0, 1.0).map(lambda e: scale * 10.0**e)))
    strategy = draw(st.sampled_from(["rank_one", "unconstrained"]))
    return x * scale, k, eta, strategy, draw(st.integers(0, 3)) == 0


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _check_exit(code, out, err):
    assert code in (0, 2, 3, 4), code
    if code in (2, 3):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (out, err)


def _top_and_gap(m, k):
    """sigma_1 and sigma_k - sigma_{k+1} of ``m`` (sigma_{k+1} = 0 past min(d, n))."""
    peak = np.abs(m).max()
    if peak == 0.0:
        return 0.0, 0.0
    sigma = np.append(np.linalg.svd(m / peak, compute_uv=False), 0.0) * peak
    return sigma[0], sigma[k - 1] - sigma[k]


def _check_report(payload, x, delta, k, eta):
    assert payload["k"] == k and payload["eta"] == eta
    if eta >= sys.float_info.min:
        assert payload["delta_fro_norm"] <= eta * (1.0 + 1e-13), payload
    if not payload["ambiguous_subspace"]:
        (top, gap), (top_y, gap_y) = _top_and_gap(x, k), _top_and_gap(x + delta, k)
        error = abs(payload["theta_achieved"] - payload["theta_predicted"])
        assert error <= 64.0 * EPS * max(top, top_y) / min(gap, gap_y), (error, payload)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(_case())
def test_cli_contract(case):
    x, k, eta, strategy, verify = case
    with tempfile.TemporaryDirectory() as tmp:
        path, delta_path = str(Path(tmp) / "x.csv"), str(Path(tmp) / "delta.csv")
        write_matrix_csv(path, x)
        common = [path, "--k", str(k), "--eta", repr(eta)]
        code, out, err = _run(["attack", *common, "--strategy", strategy,
                               "--emit-delta", delta_path])
        _check_exit(code, out, err)
        assert code != 4
        if code == 0:
            _check_report(json.loads(out, parse_constant=_strict), read_matrix_csv(path),
                          read_matrix_csv(delta_path), k, eta)
        if verify:
            code, out, err = _run(["verify", *common, "--trials", "64"])
            _check_exit(code, out, err)
            if code in (0, 4):
                for line in out.splitlines()[1:]:
                    assert line.endswith(("  ok", "  tied")) or " skipped: " in line, out


def _check_csv_finite(path):
    """Every number in a sweep or PCR CSV is finite.  Column 1 is the
    strategy; an empty cell is a failed sweep cell, which it marks."""
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        for cell in cells[:1] + cells[2:]:
            assert not cell or math.isfinite(float(cell)), line


def _at_sigma_1(x, sigma_1):
    return x / np.linalg.svd(x, compute_uv=False)[0] * sigma_1


STRATEGIES = ("r1-opt", "r1-rnd", "wr-opt", "wr-rnd")


@st.composite
def _sweep_case(draw):
    shape = draw(st.sampled_from(SHAPES[:10]))
    k = draw(st.integers(1, min(shape)))
    data = draw(st.sampled_from(["low_rank", "gaussian", "from_file"]))
    if data == "from_file":
        kind = draw(st.sampled_from(["gaussian", "low-rank", "tie", "near-tie"]))
        data = _matrix(kind, shape, k, draw(st.integers(0, 2**32 - 1)),
                       draw(st.floats(-12.0, -3.0))) * draw(st.sampled_from(SCALES + [8e307]))
    grid = tuple(sorted(draw(st.sets(st.sampled_from([0.0, 1e-12, 0.3, 1.0, 2.0]),
                                     min_size=1))))
    strategies = tuple(sorted(draw(st.sets(st.sampled_from(STRATEGIES), min_size=1))))
    return shape, k, data, grid, strategies, draw(st.integers(1, 32)), draw(st.integers(0, 99))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_sweep_case())
@example(((1, 1), 1, np.array([[8e307]]), (2.0,), ("r1-rnd", "wr-rnd"), 64, 0))
@example(((3, 2), 1, _at_sigma_1(synth_gaussian(3, 2, seed=0), 8e307), (2.0,),
          ("r1-rnd", "wr-rnd"), 64, 0))
def test_sweep_contract(case):
    (d, n), k, data, grid, strategies, trials, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        spec, path, out = (str(Path(tmp) / name) for name in ("s.spec", "x.csv", "o.csv"))
        lines = [f"d = {d}", f"n = {n}", f"k = {k}", f"seed = {seed}", f"trials = {trials}",
                 "eta_grid = " + ", ".join(map(repr, grid)),
                 "strategies = " + ", ".join(strategies)]
        if isinstance(data, str):
            lines.append(f"data_kind = {data}")
        else:
            write_matrix_csv(path, data)
            lines += ["data_kind = from_file", f"data_path = {path}"]
        Path(spec).write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, err = _run(["sweep", spec, "--out", out])
        _check_exit(code, stdout, err)
        if code == 0:
            _check_csv_finite(out)


def _feature_csv(table, quirks):
    """``table`` (samples x columns, target last) as a feature CSV with the
    given quirks of cells and lines."""
    rows = [[repr(float(v)) for v in row] for row in table]
    if "underscore" in quirks:      # 1_0 is a float() cell that np.loadtxt refuses
        cell = rows[0][0]
        i = next((i for i in range(1, len(cell)) if cell[i - 1:i + 1].isdigit()), None)
        rows[0][0] = cell if i is None else cell[:i] + "_" + cell[i:]
    if "ragged" in quirks:
        rows[-1] = rows[-1][:-1]
    sep = " ,\t" if "space" in quirks else ","
    lines = [sep.join(row) for row in rows]
    if "blank" in quirks:
        lines[1:1] = ["", "   "]
    if "comment" in quirks:
        lines.insert(len(lines) // 2, "# a note")
    if "header" in quirks:
        lines.insert(0, ",".join(f"f{j}" for j in range(table.shape[1] - 1)) + ",y")
    return "\n".join(lines) + "\n"


@st.composite
def _pcr_case(draw):
    samples = draw(st.sampled_from([6, 8, 12, 20, 40]))
    features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.sampled_from([1, features, int(rng.integers(1, features + 1))]))
    x = rng.standard_normal((samples, rank)) @ rng.standard_normal((rank, features))
    table = np.column_stack([x * draw(st.sampled_from([1.0, 1e150, 1e-150, 1e300, 1e-300])),
                             rng.standard_normal(samples)])
    quirks = draw(st.sets(st.sampled_from(["space", "underscore", "blank", "comment",
                                           "ragged", "header"]), max_size=2))
    grid = tuple(sorted(draw(st.sets(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5]), min_size=1))))
    return (table, draw(st.integers(1, features)),
            draw(st.sampled_from(["rank_one", "unconstrained"])), grid, frozenset(quirks))


def _rank_one_table():
    rng = np.random.default_rng(0)
    features = np.outer(rng.standard_normal(12), rng.standard_normal(4)) * 1e-300
    return np.column_stack([features, rng.standard_normal(12)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_pcr_case())
@example((_rank_one_table(), 1, "rank_one", (0.0, 0.5, 1.0), frozenset()))
def test_pcr_contract(case):
    table, k, strategy, grid, quirks = case
    with tempfile.TemporaryDirectory() as tmp:
        data, out = str(Path(tmp) / "f.csv"), str(Path(tmp) / "o.csv")
        Path(data).write_text(_feature_csv(table, quirks), encoding="utf-8")
        code, stdout, err = _run(["pcr", data, "--k", str(k), "--strategy", strategy,
                                  "--eta-grid", ",".join(map(repr, grid)), "--out", out])
        _check_exit(code, stdout, err)
        if code == 0:
            _check_csv_finite(out)
