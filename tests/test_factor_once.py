"""Each attack factors the clean matrix once; only the verify re-PCA adds an SVD."""

import numpy as np
import pytest

from pcattack import (SweepSpec, attack_rank_one, attack_unconstrained, run_sweep,
                      synth_gaussian, write_matrix_csv)
from pcattack.cli import main


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd``, in call order."""
    shapes = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


@pytest.mark.parametrize("attack, shape, k", [
    (attack_rank_one, (7, 5), 2),       # k below the rank
    (attack_rank_one, (7, 5), 5),       # full column rank
    (attack_rank_one, (4, 7), 2),
    (attack_unconstrained, (7, 5), 2),
    (attack_unconstrained, (4, 7), 3),
])
def test_attack_factors_once_and_verifies_once(svd_calls, attack, shape, k):
    attack(synth_gaussian(*shape, seed=3), k, 0.1)
    assert svd_calls.count(shape) == 2


def test_sweep_factors_once(svd_calls):
    spec = SweepSpec(d=12, n=8, k=3, data_kind="gaussian", seed=4,
                     eta_grid=(0.1, 0.4, 0.9, 1.3), strategies=("r1-opt", "wr-opt"))
    rows = run_sweep(spec)
    assert all(row.error is None for row in rows)
    assert svd_calls.count((12, 8)) == 1 + len(rows)


def test_verify_factors_once_for_both_closed_forms(svd_calls, tmp_path):
    path = tmp_path / "x.csv"
    write_matrix_csv(path, synth_gaussian(6, 5, seed=3))
    assert main(["verify", str(path), "--k", "2", "--eta", "0.3",
                 "--trials", "200", "--seed", "1"]) == 0
    # one shared factorization, one re-PCA per closed form, and each of the
    # two random oracles factors X on its own
    assert svd_calls.count((6, 5)) == 5
