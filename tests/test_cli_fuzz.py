"""A contract fuzz of the CLI: ``attack`` and ``verify`` over shapes, spectra,
scales and budgets, run in process.

The space: shapes from 1x1 to 30x12, gaussian, low-rank, exactly tied and
nearly tied (relative gap 1e-12 to 1e-3) spectra at k, scales 1, 1e+-150,
1e+-300 and 1e307, budgets from 1e-14 to 10 of the scale plus 0, 1e-300 and
1e200, both strategies, and ``verify --trials 64`` on about one case in four.
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
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcattack import read_matrix_csv, write_matrix_csv
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
    eta = draw(st.one_of(st.sampled_from([0.0, 1e-300, 1e200]),
                         st.floats(-14.0, 1.0).map(lambda e: scale * 10.0**e)))
    strategy = draw(st.sampled_from(["rank_one", "unconstrained"]))
    return x * scale, k, eta, strategy, draw(st.integers(0, 3)) == 0


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
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
