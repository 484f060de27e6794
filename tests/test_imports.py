"""No module of the package, test or demo imports a name that it never
uses, and a command loads only the modules it runs.

No linter ships with the test dependencies, so this walks each file's
syntax tree with ``ast``: every name bound by an import must be read
somewhere in the file as a plain name (an attribute chain counts by its
root, an annotation by its names).  ``__init__.py`` is checked too: it
exports names through a table that loads their modules on first use, not
through imports.

Which submodules a command loads is read from ``sys.modules`` in a fresh
interpreter, since this one has loaded them all.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcattack

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcattack"
SOURCES = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "demos")
           for path in sorted(folder.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_guard_finds_an_unused_import():
    assert unused_imports("import math\nimport os.path as osp\nfrom x import a, b\n"
                          "print(a.c)\n") == ["math", "osp", "b"]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: str(
    path.relative_to(PACKAGE if path.parent == PACKAGE else ROOT)))
def test_every_import_is_used(source):
    assert unused_imports(source.read_text(encoding="utf-8")) == []


def _fresh_run(code: str) -> tuple[list[str], bool, int]:
    """What a fresh interpreter holds once it has run ``code``: the
    ``pcattack.*`` modules it loaded, whether it loaded ``concurrent.futures``
    (the oracle's thread pool), and how many threads are alive."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    report = ("print(json.dumps([sorted(m for m in sys.modules if m.startswith('pcattack.')), "
              "'concurrent.futures' in sys.modules, threading.active_count()]))")
    proc = subprocess.run([sys.executable, "-c", f"import json, sys, threading\n{code}\n{report}"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def _runs_main(argv) -> str:
    return f"from pcattack.cli import main\nassert main({argv!r}) == 0"


def test_import_pcattack_loads_no_submodule():
    assert _fresh_run("import pcattack")[0] == []


def _attack_argv(tmp_path):
    matrix = tmp_path / "x.csv"
    matrix.write_text("3,0,0\n0,2,0\n0,0,1\n")
    return ["attack", str(matrix), "--k", "1", "--eta", "0.5", "--strategy", "unconstrained",
            "--out", str(tmp_path / "report.json"), "--emit-delta", str(tmp_path / "delta.csv")]


def _sweep_argv(tmp_path):
    spec = tmp_path / "sweep.spec"
    spec.write_text("d = 5\nn = 5\nk = 3\ndata_kind = low_rank\neta_grid = 0.3,0.8\n"
                    "strategies = r1-opt,wr-opt\n")
    return ["sweep", str(spec), "--out", str(tmp_path / "rows.csv")]


def _pcr_argv(tmp_path):
    data = tmp_path / "features.csv"
    np.savetxt(data, np.random.default_rng(0).standard_normal((40, 7)), delimiter=",")
    return ["pcr", str(data), "--k", "2", "--out", str(tmp_path / "pcr.csv")]


def test_attack_loads_neither_oracle_nor_pcr(tmp_path):
    argv = _attack_argv(tmp_path)
    loaded = _fresh_run(_runs_main(argv))[0]
    assert (tmp_path / "delta.csv").exists()
    assert "pcattack.rank_one" in loaded    # the family table, dispatched through
    assert "pcattack.oracle" not in loaded and "pcattack.pcr" not in loaded, loaded


def test_pcr_on_a_data_file_loads_no_oracle(tmp_path):
    loaded = _fresh_run(_runs_main(_pcr_argv(tmp_path)))[0]
    assert "pcattack.pcr" in loaded and "pcattack.oracle" not in loaded, loaded


@pytest.mark.parametrize("argv", [_attack_argv, _sweep_argv, _pcr_argv])
def test_closed_form_commands_start_no_thread(argv, tmp_path):
    _, pool_loaded, threads = _fresh_run(_runs_main(argv(tmp_path)))
    assert not pool_loaded and threads == 1


def test_verify_scores_on_the_thread_pool(tmp_path):
    # at least two scoring threads, so that a one-core machine slices too
    matrix = tmp_path / "x.csv"
    np.savetxt(matrix, np.random.default_rng(0).standard_normal((5, 5)), delimiter=",")
    argv = ["verify", str(matrix), "--k", "2", "--eta", "0.1", "--trials", "2000"]
    _, pool_loaded, threads = _fresh_run("import pcattack.oracle as oracle\n"
                                         "oracle._WORKERS = max(oracle._WORKERS, 2)\n"
                                         + _runs_main(argv))
    assert pool_loaded and threads > 1


def test_every_export_resolves_through_the_table():
    assert pcattack.__all__ == sorted(pcattack._SUBMODULE)
    assert set(pcattack.__all__) <= set(dir(pcattack))
    for name in pcattack.__all__:
        module = importlib.import_module(f"pcattack.{pcattack._SUBMODULE[name]}")
        assert getattr(pcattack, name) is getattr(module, name), name
    namespace = {}
    exec("from pcattack import *", namespace)
    assert set(pcattack.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pcattack.no_such_name
