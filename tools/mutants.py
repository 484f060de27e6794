"""Hand-listed mutants of pcattack's closed-form layer, run against the tests.

Each table row is ``(label, old, new)``: the mutant replaces the one
occurrence of ``old`` in the table's module with ``new``.  A row of code
that was deleted, because only an argument that the mutant is equivalent
defended it, carries that argument as a fourth field.  For each row the
runner copies the working tree to a temporary directory, applies the edit,
runs the module's own tests there and, when they all pass, all of tier-1
(ROADMAP.md), and prints every test that fails.  A row whose only failures
are ``tests/test_imports.py``'s unused-import check is reported as such: the
edit left an import unread, and no test of behaviour saw it.  A row whose
``old`` text is not in the module is reported as gone, with its argument
(CHANGES.md gives the corpus that shows the deletion byte-identical).

Usage, from the repository root (stdlib only; pytest runs as tier-1 does,
one BLAS thread)::

    python tools/mutants.py                    # every table
    python tools/mutants.py report rank_one    # some tables
    python tools/mutants.py linalg:12          # one row, by its number

The tables reproduce the rows of CHANGES.md: the row numbers printed here
are the ones quoted there.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", ".perfbench_*", "*.egg-info")
UNUSED_IMPORT = "tests/test_imports.py::test_every_import_is_used"
# seconds; about 20 and 5 times a run's length on 2 cores with one BLAS thread
OWN_TIMEOUT, TIER_1_TIMEOUT = 300, 600

LINALG = [
    ("RANK_TOL 1e-10 -> 1e-8", "RANK_TOL = 1e-10", "RANK_TOL = 1e-8"),
    ("TIE_TOL 1e-9 -> 1e-7", "TIE_TOL = 1e-9 ", "TIE_TOL = 1e-7 "),
    ("ORTHO_TOL 1e-10 -> 1e-6", "ORTHO_TOL = 1e-10", "ORTHO_TOL = 1e-6"),
    ("RSVD_ASPECT 1.6 -> 2.0", "RSVD_ASPECT = 1.6", "RSVD_ASPECT = 2.0"),
    ("GRAM_SHIFT 2^-20 -> 2^-40", "GRAM_SHIFT = 2.0**-20", "GRAM_SHIFT = 2.0**-40"),
    ("GRAM_SEPARATION 2^-12 -> 2^-20", "GRAM_SEPARATION = 2.0**-12",
     "GRAM_SEPARATION = 2.0**-20"),
    ("GRAM_BLOCK 32 -> 8", "GRAM_BLOCK = 32", "GRAM_BLOCK = 8"),
    ("UNIT_BAND 200 -> 511", "UNIT_BAND = 200", "UNIT_BAND = 511"),
    ("UNIT_BAND 200 -> 900", "UNIT_BAND = 200", "UNIT_BAND = 900"),
    ("NULL_ROWS 2^-40 -> 2^-20", "NULL_ROWS = 2.0**-40", "NULL_ROWS = 2.0**-20"),
    ("_checked: empty shapes pass", "if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:",
     "if m.ndim != 2:"),
    ("_checked: only nan rejected", "if not math.isfinite(peak):", "if math.isnan(peak):"),
    ("_checked: peak from the max only", "peak = max(float(m.max()), -float(m.min()))",
     "peak = float(m.max())"),
    ("_in_unit: abs dropped from the band test", "abs(s) <= UNIT_BAND", "s <= UNIT_BAND"),
    ("check_eta: negative budgets pass", "if not math.isfinite(eta) or eta < 0.0:",
     "if not math.isfinite(eta):"),
    ("check_k: k = p + 1 passes", "if not 1 <= k <= p:", "if not 1 <= k <= p + 1:"),
    ("check_k: k = 0 passes", "if not 1 <= k <= p:", "if not 0 <= k <= p:"),
    ("Spectrum.rank: > -> >=", "self.sigma > RANK_TOL", "self.sigma >= RANK_TOL"),
    ("OrthonormalBasis: 2-D check dropped",
     "        if cols.ndim != 2:\n"
     "            raise InvalidMatrix(\"basis must be a 2-D array of column vectors\")\n",
     ""),
    ("OrthonormalBasis: 1 <= k <= d check dropped",
     "        if not 1 <= k <= d:\n"
     "            raise InvalidDimension(f\"basis needs 1 <= k <= d, got k={k}, d={d}\")\n",
     ""),
    ("_orthonormal: abs dropped", "np.max(np.abs(q.T @ q - np.eye(q.shape[1])))",
     "np.max(q.T @ q - np.eye(q.shape[1]))"),
    ("_factor: < -> <= at the R-SVD aspect", "max(d, n) < RSVD_ASPECT * p",
     "max(d, n) <= RSVD_ASPECT * p"),
    ("_factor: j >= p -> j > p", "or j >= p:", "or j > p:"),
    ("_kept_rows: off by one", "return r[:j + int(np.argmax(null))]",
     "return r[:j + 1 + int(np.argmax(null))]"),
    ("_kept_rows: <= -> < in the null test", "null = tail[j:] <= NULL_ROWS",
     "null = tail[j:] < NULL_ROWS"),
    ("_kept_rows: cut even with no null tail", " if null[-1] else r", ""),
    ("_gram_pairs: the block test dropped",
     "if (a.shape[1] > GRAM_BLOCK and _gram_certificate(a[:, :GRAM_BLOCK]) is None\n"
     "            or (g := _gram_certificate(a)) is None):",
     "if (g := _gram_certificate(a)) is None:"),
    ("_gram_pairs: np.minimum.accumulate dropped", "np.minimum.accumulate(sigma)", "sigma"),
    ("_signed_q: no signs", "return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)", "return q"),
    ("_scale_back: overflow check dropped",
     "    if not math.isfinite(sigma[0]):\n"
     "        raise InvalidMatrix(", "    if False:\n        raise InvalidMatrix("),
    ("_signed_triple: no signs", "u=u * signs, v=v * signs", "u=u, v=v"),
    ("fro_norm: zero/non-finite early return",
     "    if not 0.0 < peak < math.inf:\n        return peak\n", "",
     "frexp and norm give the same 0, inf or nan"),
    ("svd_2x2: abs dropped from s_2", "return q + r, abs(q - r),", "return q + r, q - r,"),
    ("svd_2x2: phi from the difference", "phi = 0.5 * (math.atan2(g, f) + math.atan2(h, e))",
     "phi = 0.5 * (math.atan2(g, f) - math.atan2(h, e))"),
    ("complement_direction: argmin -> argmax", "i = int(np.argmin(", "i = int(np.argmax("),
    ("complement_direction: one projection", "for _ in range(2):", "for _ in range(1):"),
    ("leading_subspace: never ambiguous",
     "OrthonormalBasis(svd.u, _tied(svd.sigma, svd.u.shape[1], svd.shape[0]))",
     "OrthonormalBasis(svd.u, False)"),
    ("_tied: <= -> <", "- next_sigma <= TIE_TOL", "- next_sigma < TIE_TOL"),
    ("_tied: k = d reads a zero sigma_{k+1}", "0.0 if k < d else None", "0.0"),
    ("_cross: ambient check dropped",
     "    if a.shape[0] != b.shape[0]:\n"
     "        raise InvalidDimension(f\"ambient dimensions differ: {a.shape[0]} vs "
     "{b.shape[0]}\")\n    if a.shape[1]", "    if a.shape[1]"),
    ("_cross: subspace check dropped",
     "    if a.shape[1] != b.shape[1]:\n"
     "        raise InvalidDimension(f\"subspace dimensions differ: {a.shape[1]} vs "
     "{b.shape[1]}\")\n", ""),
    ("principal_angles: no sine read", "small = theta < math.pi / 4", "small = theta < 0.0"),
    ("principal_angles: cosines unclipped",
     "np.arccos(np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0))",
     "np.arccos(np.linalg.svd(cross, compute_uv=False))"),
    ("_largest_angle: first gate 1/4 -> 1/2", ">= 0.25**2:", ">= 0.5**2:"),
    ("_largest_angle: switch at sine 1/4 -> 1/2", "if math.sin(theta) >= 0.25:",
     "if math.sin(theta) >= 0.5:"),
    ("_largest_angle: cosine clamp", "math.acos(min(1.0, max(0.0, smallest)))",
     "math.acos(smallest)",
     "the gate keeps the smallest cosine below 1, and LAPACK's are >= 0"),
    ("_largest_angle: sine clamps",
     "sine = math.sqrt(max(0.0, float(np.linalg.eigvalsh(residual.T @ residual)[-1])))\n"
     "    return math.asin(min(1.0, sine))",
     "return math.asin(math.sqrt(float(np.linalg.eigvalsh(residual.T @ residual)[-1])))",
     "a Gram with a nonzero entry has a positive largest eigenvalue, "
     "and the sine read runs only below sine 1/4"),
    ("pca_distance: ambient check dropped",
     "    if x.shape[0] != y.shape[0]:\n"
     "        raise InvalidDimension(f\"ambient dimensions differ: {x.shape[0]} vs "
     "{y.shape[0]}\")\n", ""),
    ("pca_distance: y's k unchecked", "    check_k(k, y.shape)\n", ""),
    ("_pca_distance_from_svd: QR read at d = n", "if d > n and k == n:",
     "if d >= n and k == n:"),
    ("_pca_distance_from_svd: no certificate",
     "if _untied_triangle(r, e) or not _tied(", "if not _tied("),
    ("_pca_distance_from_svd: k = n sines through solve",
     "(y - u @ cross) @ np.linalg.inv(r))",
     "np.linalg.solve(r.T, (y - u @ cross).T).T)"),
    ("_pca_distance_from_svd: k = d angle not 0", "(0.0 if k == d else _largest_angle(",
     "(_largest_angle("),
    ("_untied_triangle: always declines",
     "    if (g := _gram_certificate(r)) is None:\n        return False",
     "    if True:\n        return False"),
    ("_untied_triangle: + 1 dropped", "[1] + e + 1 <= sys", "[1] + e <= sys",
     "sigma_n >= 2^-10 sigma_1 puts ||r||_F past sigma_1 by 1 + 2^-21, beyond rounding"),
    ("unitary_conjugate: square check dropped",
     "if q.ndim != 2 or q.shape[0] != q.shape[1]:", "if q.ndim != 2:"),
    ("unitary_conjugate: size check dropped", "if q.shape[0] != size:", "if False:"),
    ("unitary_conjugate: orthogonality check dropped", "if not _orthonormal(q):", "if False:"),
]

REPORT = [
    ("to_json_dict: schema_version 1 -> 2", '"schema_version": 1,', '"schema_version": 2,'),
    ("to_json_dict: theta_degrees of the prediction",
     "math.degrees(float(self.theta_achieved))", "math.degrees(float(self.theta_predicted))"),
    ("core_spectrum: k < rank -> k <= rank", 'case = "k<rank" if k < rank',
     'case = "k<rank" if k <= rank'),
    ("core_spectrum: rank < p -> rank <= p", 'else "low_rank" if rank < p',
     'else "low_rank" if rank <= p'),
    ("core_spectrum: unit rounded up", "math.frexp(sigma[0])[1] - 1)",
     "math.frexp(sigma[0])[1])"),
    ("core_spectrum: above always inf", "sigma[k - 2] / unit if k > 1 else math.inf",
     "math.inf"),
    ("core_spectrum: below always 0", "sigma[k + 1] / unit if k + 1 < p else 0.0", "0.0"),
    ("core_spectrum: ratio_scale's rank <= k -> rank < k", "if rank <= k else",
     "if rank < k else"),
    ("core_spectrum: never tied", "_tied(spectrum.sigma, k, spectrum.shape[0]))",
     "False)"),
    ("budget_in_unit: overflow check dropped", "if eta_in_unit == math.inf:", "if False:"),
    ("budget_in_unit: subnormal clause off, sys kept",
     "0.0 if 0.0 < eta_in_unit < sys.float_info.min else",
     "0.0 if 0.0 < eta_in_unit < sys.float_info.min * 2.0**-52 else"),
    ("attack_factor: all pairs", "leading_svd(x, min(k + 1, min(x.shape)))",
     "leading_svd(x, min(x.shape))"),
    ("frames: e at k = d = n from complement_direction",
     "complement_direction(svd.u) if d > p else np.zeros(d)",
     "complement_direction(svd.u)"),
    ("lift: the core's second column kept at k = n",
     "_core_array(core, unit)[:, :right.shape[1]]", "_core_array(core, unit)"),
    ("_core_split: max(at.top, s_1) -> at.top", "TIE_TOL * max(at.top, s_1)",
     "TIE_TOL * at.top"),
    ("_core_split: min(at.above, s_1) -> s_1", "min(at.above, s_1) -", "s_1 -"),
    ("_core_split: max(s_2, at.below) -> s_2", "- max(s_2, at.below)", "- s_2"),
    ("_core_split: <= -> <", "max(s_2, at.below) <= TIE_TOL", "max(s_2, at.below) < TIE_TOL"),
    ("_core_angle: |atan2(w_2, w_1)|", "math.atan2(abs(w[1]), abs(w[0]))",
     "abs(math.atan2(w[1], w[0]))"),
    ("build_report: sigma copied", "svd.sigma.copy()", "svd.sigma",
     "the factor is the attack's own, and nothing else holds it"),
    ("build_report: bool() of the flag", "bool(ambiguous), solution)", "ambiguous, solution)",
     "_pca_distance_from_svd returns a bool"),
    ("budget_in_unit: sys.float_info.min written as its value",
     "0.0 if 0.0 < eta_in_unit < sys.float_info.min else",
     "0.0 if 0.0 < eta_in_unit < 2.2250738585072014e-308 else"),
]

RANK_ONE = [
    ("RankOneAttack.budget_used: ||b|| dropped", "fro_norm(self.a) * fro_norm(self.b)",
     "fro_norm(self.a)", "b is a unit vector in every attack, so ||a b^T||_F = ||a||"),
    ("_rotation_angle: numpy for scalars", "if np.isscalar(alpha) and np.isscalar(beta):",
     "if False:"),
    ("_rotation_angle: np.asarray of the angles dropped",
     "        alpha, beta = np.asarray(alpha), np.asarray(beta)\n", ""),
    ("_rotation_angle: sign of the sigma_{k+1} term", "- 2.0 * sigma_k1 * eta * sa * sb",
     "+ 2.0 * sigma_k1 * eta * sa * sb"),
    ("theta_from_angles: abs dropped", "return abs(_rotation_angle(", "return (_rotation_angle("),
    ("klt_rank_closed_form: sigma_{k+1} >= 0 dropped", "if not sigma_k > sigma_k1 >= 0.0:",
     "if not sigma_k > sigma_k1:"),
    ("klt_rank_closed_form: eta < gap -> eta <= gap", "if not eta < sigma_k - sigma_k1:",
     "if not eta <= sigma_k - sigma_k1:"),
    ("klt_rank_closed_form: H's first factor", "H = ((sigma_k + sigma_k1) ** 2 - eta**2)",
     "H = ((sigma_k + sigma_k1) ** 2 + eta**2)"),
    ("_stationary: cos beta* positive", "cb = -math.sqrt(", "cb = math.sqrt("),
    ("_stationary: abs dropped from theta*",
     "return ca, sa, cb, sb, abs(0.5 * math.atan2(ay, ax))",
     "return ca, sa, cb, sb, 0.5 * math.atan2(ay, ax)"),
    ("attack_rank_one: the core's first row",
     "row = core[np.argmax(np.abs(core).sum(axis=1))]", "row = core[0]"),
    ("attack_rank_one: no zero-core fallback",
     "b2 = row / math.hypot(*row) if row.any() else np.array([1.0, 0.0])",
     "b2 = row / math.hypot(*row)"),
    ("attack_rank_one: (a, b) sign flip dropped",
     "    b2 = -b2 if (b2[1], b2[0]) < (0.0, 0.0) else b2\n", ""),
    ("_attack_rank_one: wide k = rank = d passes", " or at.rank == d < n)", ")"),
    ("_attack_rank_one: square zero budget rejected", "d == n and eta > 0.0",
     "d == n and eta >= 0.0"),
    ("solve_rank_one: Case2 at eta = gap", 'case == "k<rank" and eta < sigma_k - sigma_k1',
     'case == "k<rank" and eta <= sigma_k - sigma_k1'),
    ("solve_rank_one: LowRankCase1 at eta = sigma_k", 'case == "low_rank" and eta > sigma_k',
     'case == "low_rank" and eta >= sigma_k'),
    ("solve_rank_one: FullRankCase1 at eta = sigma_k", "    if eta > sigma_k:\n",
     "    if eta >= sigma_k:\n"),
    ("solve_rank_one: Case2 max(0.0, ...)", "math.sqrt(max(0.0, 1.0 - (eta / sigma_k) ** 2))",
     "math.sqrt(1.0 - (eta / sigma_k) ** 2)",
     "eta <= sigma_k there, so 1 - (eta / sigma_k)**2 >= 0 in IEEE arithmetic"),
    ("solve_rank_one: Case1 sqrt of the squares",
     "math.sqrt(eta - sigma_k) * math.sqrt(eta + sigma_k)", "math.sqrt(eta**2 - sigma_k**2)"),
    ("solve_rank_one: Case2 core sign", "(-eta**2 / sigma_k, 0.0, ortho, 0.0)",
     "(eta**2 / sigma_k, 0.0, ortho, 0.0)"),
    ("solve_rank_one: Case2 regimes swapped",
     'Regime.LOW_RANK_CASE2 if case == "low_rank" else Regime.FULL_RANK_CASE2',
     'Regime.FULL_RANK_CASE2 if case == "low_rank" else Regime.LOW_RANK_CASE2'),
    ("solve_rank_one: Case1 regimes swapped",
     'Regime.K_LT_RANK_CASE1 if case == "k<rank" else Regime.LOW_RANK_CASE1',
     'Regime.LOW_RANK_CASE1 if case == "k<rank" else Regime.K_LT_RANK_CASE1'),
]

UNCONSTRAINED = [
    ("PerturbationMatrix.budget_used: max |entry|", "return fro_norm(self.delta)",
     "return float(np.abs(self.delta).max())"),
    ("_terms: 2 eta^2 -> eta^2 in x", "((sigma_k - sigma_k1) ** 2 - 2.0 * eta**2)",
     "((sigma_k - sigma_k1) ** 2 - eta**2)"),
    ("closed_form_lambda: sigma_{k+1} >= 0 dropped", "if not sigma_k > sigma_k1 >= 0.0:",
     "if not sigma_k > sigma_k1:"),
    ("closed_form_lambda: eta = 0 passes", "if not 0.0 < eta < bound:",
     "if not 0.0 <= eta < bound:"),
    ("closed_form_lambda: eta = bound passes", "if not 0.0 < eta < bound:",
     "if not 0.0 < eta <= bound:"),
    ("closed_form_lambda: c's eta^2 sign", "c=(sigma_k**2 + sigma_k1**2) / 2.0 - eta**2",
     "c=(sigma_k**2 + sigma_k1**2) / 2.0 + eta**2"),
    ("_entries: spread halved", "spread = (2.0 * lam", "spread = (1.0 * lam"),
    ("lift_to_data_space: size check dropped", "if entries.size != 4:", "if False:"),
    ("lift_to_data_space: room check > -> >=", "if k + 1 > svd.sigma.size:",
     "if k + 1 >= svd.sigma.size:"),
    ("attack_unconstrained: JSON entries in core order",
     "np.array([b_kk, b_k1k, b_kk1, b_k1k1])", "np.array([b_kk, b_kk1, b_k1k, b_k1k1])"),
    ("_attack_unconstrained: room check > -> >=", "if at.k + 1 > min(d, n):",
     "if at.k + 1 >= min(d, n):"),
    ("solve_unconstrained: sigma_{k+1} kept past the rank",
     '    if case != "k<rank":\n        sigma_k1 = 0.0\n', ""),
    ("solve_unconstrained: eta == 0 branch disabled", "if eta == 0.0:", "if False:"),
    ("solve_unconstrained: >= -> > at the threshold",
     "if eta >= (sigma_k - sigma_k1) / math.sqrt(2.0):",
     "if eta > (sigma_k - sigma_k1) / math.sqrt(2.0):"),
    ("solve_unconstrained: Case1 shift of eta", "shift = eta / math.sqrt(2.0)", "shift = eta"),
    ("solve_unconstrained: Case2 core in entry order",
     "0.5 * math.atan2(y, x), (b_kk, b_kk1, b_k1k, b_k1k1)",
     "0.5 * math.atan2(y, x), (b_kk, b_k1k, b_kk1, b_k1k1)"),
]

# module -> (its file, its own tests, its rows)
TABLES = {
    "linalg": ("src/pcattack/linalg.py",
               ["tests/test_linalg.py", "tests/test_route_bits.py", "tests/test_scale.py"],
               LINALG),
    "report": ("src/pcattack/report.py",
               ["tests/test_core_verify.py", "tests/test_scale.py"], REPORT),
    "rank_one": ("src/pcattack/rank_one.py",
                 ["tests/test_rank_one.py", "tests/test_solver_laws.py"], RANK_ONE),
    "unconstrained": ("src/pcattack/unconstrained.py",
                      ["tests/test_unconstrained.py", "tests/test_solver_laws.py"],
                      UNCONSTRAINED),
}


def failures(tree: Path, tests: list[str], timeout: float) -> tuple[list[str], str]:
    """The ids of the tests that fail or error in ``tree``, and pytest's last
    line.  A run past ``timeout`` seconds is stopped, with every process it
    started, and the test after the last one that finished is reported as
    hung: a mutant that loops forever is caught."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    run = subprocess.Popen([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
                            "--tb=no", "-rfE", "--continue-on-collection-errors", *tests],
                           cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, start_new_session=True)
    try:
        output = run.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        output = run.communicate()[0]
        done = re.findall(r"^(\S+::\S+) (?:PASSED|FAILED|ERROR|SKIPPED|XFAIL)", output, re.M)
        after = done[-1] if done else "the start"
        return [f"(hung past {timeout:.0f} s, after {after})"], "timed out"
    lines = output.strip().splitlines()
    failed = [m.group(2) for line in lines
              if (m := re.match(r"(FAILED|ERROR) (\S+)", line))]
    return failed, lines[-1].strip("= ") if lines else ""


def run_row(module: str, number: int) -> str:
    path, own, rows = TABLES[module]
    label, old, new, *argument = rows[number]
    head = f"{module}:{number} {label}"
    source = (ROOT / path).read_text()
    if argument and old not in source:
        return f"{head}: gone, deleted ({argument[0]})"
    if source.count(old) != 1:
        return f"{head}: STALE, the text to mutate occurs {source.count(old)} times"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        (tree / path).write_text(source.replace(old, new))
        failed, last = failures(tree, own, OWN_TIMEOUT)
        scope = "own tests"
        if not failed:
            failed, last = failures(tree, [], TIER_1_TIMEOUT)
            scope = "tier-1"
    if not failed:
        return f"{head}: SURVIVED {scope} ({last})"
    kind = "import-only" if all(f.startswith(UNUSED_IMPORT) for f in failed) else "killed"
    return "\n    ".join([f"{head}: {kind} by {scope}, {len(failed)} failing ({last})"]
                         + failed)


def main(argv: list[str]) -> int:
    picks = []
    for arg in argv or list(TABLES):
        module, _, number = arg.partition(":")
        if module not in TABLES:
            print(f"unknown table {module!r}; tables: {', '.join(TABLES)}", file=sys.stderr)
            return 2
        count = len(TABLES[module][2])
        picks += [(module, int(number))] if number else [(module, i) for i in range(count)]
    for module, number in picks:
        print(run_row(module, number), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
