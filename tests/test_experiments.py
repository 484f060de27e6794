import json
import math
from pathlib import Path

import numpy as np
import pytest

from pcattack import (InvalidDimension, ParseError, SweepSpec, full_svd,
                      parse_sweep_spec, run_sweep, synth_gaussian,
                      synth_low_rank, write_sweep_csv)
from pcattack.cli import main
from pcattack.experiments import portable_normal
from pcattack.oracle import SearchConfig

# Every row of the benchmark-shaped sweep (200x100, k = 10, r1-opt and wr-opt,
# the default grid) on one gaussian and one rank-k matrix, each float stored
# by ``float.hex``, so that a change to the sweep's float path shows at once.
SWEEP_PINS = json.loads((Path(__file__).parent / "sweep_200x100_pins.json").read_text())

FOUR_STRATEGY_CSV = (
    "eta_ratio,strategy,theta,theta_predicted,budget_used\n"
    "0.2,r1-opt,0.126306294282,0.126306294282,0.185713496747\n"
    "0.2,r1-rnd,0.0923469674832,,0.185713496747\n"
    "0.2,wr-opt,0.14776926999,0.14776926999,0.185713496747\n"
    "0.2,wr-rnd,0.0925843378041,,0.185713496747\n"
    "0.5,r1-opt,0.326016072728,0.326016072728,0.464283741868\n"
    "0.5,r1-rnd,0.233041119088,,0.464283741868\n"
    "0.5,wr-opt,0.400902870617,0.400902870617,0.464283741868\n"
    "0.5,wr-rnd,0.214717316732,,0.464283741868\n"
    "0.9,r1-opt,0.676203640808,0.676203640808,0.835710735363\n"
    "0.9,r1-rnd,0.424927890166,,0.835710735363\n"
    "0.9,wr-opt,1.57079632679,1.57079632679,0.835710735363\n"
    "0.9,wr-rnd,0.415032477667,,0.835710735363\n"
    "1.3,r1-opt,1.57079632679,1.57079632679,1.20713772886\n"
    "1.3,r1-rnd,0.862105661706,,1.20713772886\n"
    "1.3,wr-opt,1.57079632679,1.57079632679,1.20713772886\n"
    "1.3,wr-rnd,0.703663925834,,1.20713772886\n"
)


class TestSynthData:
    def test_low_rank_has_rank_k(self):
        x = synth_low_rank(5, 5, 3, seed=0)
        assert x.shape == (5, 5)
        assert full_svd(x).rank == 3

    def test_low_rank_deterministic(self):
        assert np.array_equal(synth_low_rank(5, 5, 3, seed=9),
                              synth_low_rank(5, 5, 3, seed=9))

    def test_low_rank_rejects_bad_k(self):
        with pytest.raises(InvalidDimension):
            synth_low_rank(5, 5, 0, seed=0)
        with pytest.raises(InvalidDimension):
            synth_low_rank(5, 5, 6, seed=0)

    @pytest.mark.parametrize("d, n", [(0, 5), (5, 0), (-1, 5)])
    def test_gaussian_rejects_a_shape_below_1(self, d, n):
        with pytest.raises(InvalidDimension, match="^d and n must be positive$"):
            synth_gaussian(d, n, seed=1)

    def test_gaussian_full_rank(self):
        x = synth_gaussian(5, 5, seed=1)
        assert x.shape == (5, 5)
        assert full_svd(x).sigma[-1] > 0.0
        assert full_svd(x).rank == 5

    def test_gaussian_deterministic(self):
        assert np.array_equal(synth_gaussian(4, 6, seed=2), synth_gaussian(4, 6, seed=2))

    def test_portable_normal_values_are_pinned(self):
        # A changed stream or transform moves these by O(1); a platform's
        # last-bit libm differences stay far inside 1e-12 relative.
        z = portable_normal(0, (4, 5))
        np.testing.assert_allclose(
            [z[0, 0], z[0, 4], z[1, 2], z[2, 1], z[3, 0], z[3, 4]],
            [0.5723582509703696, -0.23354342116910592, -1.562516268625232,
             0.01364395672563938, 1.9720249669589491, 1.0918602538500206], rtol=1e-12)


class TestRunSweep:
    def test_low_rank_optimal_law(self):
        spec = SweepSpec(d=5, n=5, k=3, data_kind="low_rank",
                         eta_grid=(0.5,), strategies=("r1-opt",), seed=3)
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0].theta == pytest.approx(np.arcsin(0.5), abs=1e-8)

    def test_unconstrained_hits_max_past_threshold(self):
        spec = SweepSpec(d=5, n=5, k=3, data_kind="low_rank",
                         eta_grid=(0.8,), strategies=("wr-opt",), seed=3)
        rows = run_sweep(spec)
        assert rows[0].theta == pytest.approx(np.pi / 2, abs=1e-8)

    def test_zero_budget_grid(self):
        spec = SweepSpec(d=5, n=5, k=3, data_kind="low_rank", eta_grid=(0.0,),
                         strategies=("r1-opt", "wr-opt"), seed=3)
        for row in run_sweep(spec):
            assert row.theta == pytest.approx(0.0, abs=1e-7)

    def test_row_ordering_and_strategy_orderings(self):
        spec = SweepSpec(d=5, n=5, k=3, data_kind="gaussian",
                         eta_grid=(0.2, 0.5, 0.8), seed=6,
                         oracle_cfg=SearchConfig(trials=300, seed=1))
        rows = run_sweep(spec)
        assert len(rows) == 12
        keys = [(r.eta_ratio, r.strategy) for r in rows]
        assert keys == sorted(keys)
        theta = {(r.eta_ratio, r.strategy): r.theta for r in rows}
        for ratio in (0.2, 0.5, 0.8):
            assert theta[(ratio, "wr-opt")] >= theta[(ratio, "r1-opt")] - 1e-8
            assert theta[(ratio, "r1-opt")] >= theta[(ratio, "r1-rnd")] - 1e-6
            assert theta[(ratio, "wr-opt")] >= theta[(ratio, "wr-rnd")] - 1e-6
        for strategy in ("r1-opt", "r1-rnd", "wr-opt", "wr-rnd"):
            series = [theta[(r, strategy)] for r in (0.2, 0.5, 0.8)]
            assert np.all(np.diff(series) >= -1e-9)

    def test_regime_error_recorded_not_raised(self):
        spec = SweepSpec(d=4, n=4, k=4, data_kind="gaussian",
                         eta_grid=(0.5,), strategies=("r1-opt", "wr-opt"), seed=0)
        rows = run_sweep(spec)
        assert len(rows) == 2
        assert all(r.error is not None and r.theta is None for r in rows)

    def test_from_file_data(self, tmp_path):
        from pcattack import synth_low_rank, write_matrix_csv
        path = tmp_path / "x.csv"
        write_matrix_csv(path, synth_low_rank(5, 5, 3, seed=3))
        spec = SweepSpec(d=5, n=5, k=3, data_kind="from_file",
                         data_path=str(path), eta_grid=(0.5,),
                         strategies=("r1-opt",), seed=0)
        rows = run_sweep(spec)
        assert rows[0].theta == pytest.approx(np.arcsin(0.5), abs=1e-6)
        # d and n are required keys, so they must describe the file
        wrong = SweepSpec(d=3, n=3, k=2, data_kind="from_file",
                          data_path=str(path), eta_grid=(0.5,), strategies=("r1-opt",))
        with pytest.raises(ParseError, match="5x5 matrix.*d=3, n=3"):
            run_sweep(wrong)
        spec_path = tmp_path / "wrong.spec"
        spec_path.write_text(f"d = 3\nn = 3\nk = 2\ndata_kind = from_file\n"
                             f"data_path = {path}\nstrategies = r1-opt\n")
        assert main(["sweep", str(spec_path), "--out", str(tmp_path / "o.csv")]) == 2
        assert not (tmp_path / "o.csv").exists()


class TestSweepCsv:
    def test_deterministic_bytes(self, tmp_path):
        spec = SweepSpec(d=5, n=5, k=3, data_kind="low_rank",
                         eta_grid=(0.3, 0.6), strategies=("r1-opt", "r1-rnd"),
                         seed=4, oracle_cfg=SearchConfig(trials=200, seed=2))
        rows = run_sweep(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(rows, p1)
        write_sweep_csv(run_sweep(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "eta_ratio,strategy,theta,theta_predicted,budget_used"

    def test_error_marker_in_strategy_column(self, tmp_path):
        spec = SweepSpec(d=4, n=4, k=4, data_kind="gaussian",
                         eta_grid=(0.5,), strategies=("r1-opt",), seed=0)
        path = tmp_path / "err.csv"
        write_sweep_csv(run_sweep(spec), path)
        line = path.read_text().splitlines()[1]
        assert "[error:" in line

    def test_four_strategy_csv_pinned(self, tmp_path):
        # Pins which closed form or oracle each strategy name runs, and the
        # budget_used of every row.
        spec = SweepSpec(d=6, n=5, k=2, data_kind="gaussian",
                         eta_grid=(0.2, 0.5, 0.9, 1.3), seed=3,
                         oracle_cfg=SearchConfig(trials=300, seed=3))
        path = tmp_path / "four.csv"
        write_sweep_csv(run_sweep(spec), path)
        assert path.read_text() == FOUR_STRATEGY_CSV


@pytest.mark.parametrize("pinned", SWEEP_PINS, ids=[p["data_kind"] for p in SWEEP_PINS])
def test_benchmark_shaped_sweep_is_pinned_bit_for_bit(pinned):
    spec = SweepSpec(d=200, n=100, k=10, data_kind=pinned["data_kind"], seed=pinned["seed"],
                     strategies=("r1-opt", "wr-opt"))
    rows = [[row.eta_ratio.hex(), row.strategy,
             *(None if v is None else float(v).hex()
               for v in (row.theta, row.theta_predicted, row.budget_used)),
             row.error] for row in run_sweep(spec)]
    assert rows == pinned["rows"]


class TestSweepSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ParseError):
            SweepSpec(d=5, n=5, k=3, eta_grid=())

    def test_decreasing_grid_is_sorted(self):
        assert SweepSpec(d=5, n=5, k=3, eta_grid=(0.5, 0.2)).eta_grid == (0.2, 0.5)
        assert SweepSpec(d=5, n=5, k=3, eta_grid=("0.5", "10", 9)).eta_grid == (0.5, 9.0, 10.0)

    def test_repeated_ratio_rejected(self):
        with pytest.raises(ParseError, match=r"^eta_grid ratio 0\.3 is repeated$"):
            SweepSpec(d=5, n=5, k=3, eta_grid=(0.3, 0.5, "0.30"))

    def test_ratio_that_is_not_a_number_rejected(self):
        with pytest.raises(ParseError, match="eta_grid ratio 'x' is not a number"):
            SweepSpec(d=5, n=5, k=3, eta_grid=(0.3, "x"))

    def test_negative_zero_reads_as_zero(self):
        grid = SweepSpec(d=5, n=5, k=3, eta_grid=("-0", 0.5)).eta_grid
        assert grid == (0.0, 0.5) and math.copysign(1.0, grid[0]) == 1.0
        with pytest.raises(ParseError, match=r"^eta_grid ratio 0\.0 is repeated$"):
            SweepSpec(d=5, n=5, k=3, eta_grid=("-0", 0.0))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ParseError):
            SweepSpec(d=5, n=5, k=3, strategies=("nope",))

    def test_duplicate_strategy_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate strategies"):
            SweepSpec(d=5, n=5, k=3, strategies=("r1-opt", "wr-opt", "r1-opt"))
        path = tmp_path / "dup.spec"
        path.write_text("d = 5\nn = 5\nk = 3\nstrategies = r1-opt,r1-opt\n")
        assert main(["sweep", str(path), "--out", str(tmp_path / "o.csv")]) == 2


class TestSpecFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "sweep.spec"
        path.write_text(
            "# low-rank sweep\n"
            "d = 5\nn = 5\nk = 3\n"
            "data_kind = low_rank\n"
            "eta_grid = 0.2,0.5,0.8\n"
            "strategies = r1-opt,wr-opt\n"
            "seed = 11\ntrials = 500\n")
        spec = parse_sweep_spec(path)
        assert (spec.d, spec.n, spec.k) == (5, 5, 3)
        assert spec.eta_grid == (0.2, 0.5, 0.8)
        assert spec.strategies == ("r1-opt", "wr-opt")
        assert spec.oracle_cfg.trials == 500
        assert spec.oracle_cfg.seed == 11

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.spec"
        path.write_text("d = 5\nn = 5\nk = 3\n", encoding="utf-8-sig")
        spec = parse_sweep_spec(path)
        assert (spec.d, spec.n, spec.k) == (5, 5, 3)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("d = 5\nn = 5\nk = 3\nbogus = 1\n")
        with pytest.raises(ParseError):
            parse_sweep_spec(path)

    @pytest.mark.parametrize("key", ["grid_resolution", "refine_steps"])
    def test_grid_search_keys_rejected(self, tmp_path, key):
        # Sweeps run only the random oracles, so grid-search settings are
        # unknown keys like any other.
        path = tmp_path / "grid.spec"
        path.write_text(f"d = 5\nn = 5\nk = 3\n{key} = 400\n")
        with pytest.raises(ParseError, match=f"grid.spec:4: unknown key '{key}'"):
            parse_sweep_spec(path)
        assert main(["sweep", str(path), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("grid, bad", [("0.3,x", "x"), ("0.3,", "")])
    def test_ratio_that_is_not_a_number_exits_2_naming_it(self, tmp_path, capsys, grid, bad):
        path = tmp_path / "grid.spec"
        path.write_text(f"d = 5\nn = 5\nk = 3\neta_grid = {grid}\n")
        out = tmp_path / "o.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: eta_grid ratio {bad!r} is not a number\n"
        assert not out.exists()

    def test_grid_in_any_order_writes_sorted_rows(self, tmp_path):
        path = tmp_path / "grid.spec"
        path.write_text("d = 5\nn = 5\nk = 3\neta_grid = 0.9, 0.3\nstrategies = wr-opt, r1-opt\n")
        out = tmp_path / "o.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [["0.3", "r1-opt"], ["0.3", "wr-opt"], ["0.9", "r1-opt"], ["0.9", "wr-opt"]]

    def test_negative_zero_ratio_writes_0(self, tmp_path):
        path = tmp_path / "grid.spec"
        path.write_text("d = 5\nn = 5\nk = 3\neta_grid = -0, 0.5\nstrategies = r1-opt\n")
        out = tmp_path / "o.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        first = out.read_text().splitlines()[1]
        assert first.startswith("0,r1-opt,") and "-0" not in first, first

    @pytest.mark.parametrize("lines, message", [
        ("k = 3\neta_grid = 0.3, 0.3\n", "eta_grid ratio 0.3 is repeated"),
        ("k = 3\neta_grid = 0.3,-1\n", "eta_grid ratio -1.0 is not finite and >= 0"),
        ("k = 3\neta_grid = \n", "eta_grid ratio '' is not a number"),
        ("k = 3\nstrategies = nope\n", "unknown strategies: ['nope']"),
        ("k = 3\ndata_kind = weird\n", "unknown data_kind 'weird'"),
        ("k = 3\ndata_kind = from_file\n", "data_kind=from_file requires data_path"),
        ("", "missing required key 'k'"),
    ], ids=["repeat", "negative", "empty", "strategy", "data_kind", "no-data_path", "no-k"])
    def test_value_error_exits_2_naming_the_file(self, tmp_path, capsys, lines, message):
        path = tmp_path / "bad.spec"
        path.write_text("d = 5\nn = 5\n" + lines)
        out = tmp_path / "o.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_duplicate_key_names_its_line(self, tmp_path):
        path = tmp_path / "dup.spec"
        path.write_text("d = 5\nd = 6\nn = 5\nk = 3\n")
        with pytest.raises(ParseError) as info:
            parse_sweep_spec(path)
        assert str(info.value) == f"{path}:2: duplicate key 'd'"

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("d = 5\nn = 5\n")
        with pytest.raises(ParseError):
            parse_sweep_spec(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("d = 5\nn 5\nk = 3\n")
        with pytest.raises(ParseError):
            parse_sweep_spec(path)
