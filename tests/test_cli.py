import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcattack import (InvalidDimension, ParseError, experiments, read_matrix_csv,
                      synth_gaussian, synth_low_rank, synthetic_collinear,
                      write_matrix_csv)
from pcattack.cli import main
from pcattack.fileio import format_float


@pytest.fixture
def low_rank_csv(tmp_path):
    path = tmp_path / "x.csv"
    write_matrix_csv(path, synth_low_rank(5, 5, 3, seed=11))
    return path


def test_only_fileio_opens_files():
    # every output file is written through fileio.write_text
    package = Path(__file__).resolve().parent.parent / "src" / "pcattack"
    openers = []
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
                openers.append(f"{module.name}:{node.lineno}")
    assert openers and all(where.startswith("fileio.py:") for where in openers), openers


class TestMatrixCsv:
    def test_round_trip_relative_error(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 7)) * np.exp(rng.uniform(-6, 6, (4, 7)))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, x)
        back = read_matrix_csv(path)
        assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-300)) < 1e-9

    def test_writes_format_float_bytes(self, tmp_path):
        edge = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                1e11, 1e12, 123456789012.5, 1e-4, 1e-5, 1 / 3]
        rng = np.random.default_rng(4)
        scaled = rng.standard_normal((3, 4)) * 10.0 ** rng.choice([-300, 0, 300], (3, 4))
        for x in (np.reshape(edge, (3, 4)), np.reshape(edge, (1, 12)), scaled):
            path = tmp_path / "f.csv"
            write_matrix_csv(path, x)
            rows = [",".join(format_float(v) for v in row) for row in x]
            expected = f"# d={x.shape[0]} n={x.shape[1]}\n" + "\n".join(rows) + "\n"
            assert path.read_bytes() == expected.encode()

    def test_header_optional(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1,2,3\n4,5,6\n")
        assert read_matrix_csv(path).shape == (2, 3)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# d=2 n=2\n# note\n\n1,2\n  \n3,4\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# d=3 n=2\n1,2\n3,4\n")
        with pytest.raises(ParseError, match="header says"):
            read_matrix_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# d=2 n=2\n1,2\n3\n")
        with pytest.raises(ParseError, match="r.csv:3: ragged row"):
            read_matrix_csv(path)


class TestAttackCommand:
    def test_json_report_low_rank_law(self, low_rank_csv, tmp_path):
        sigma_k = np.linalg.svd(read_matrix_csv(low_rank_csv), compute_uv=False)[2]
        out = tmp_path / "report.json"
        code = main(["attack", str(low_rank_csv), "--k", "3",
                     "--eta", str(0.5 * sigma_k), "--strategy", "rank_one",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["strategy"] == "rank_one"
        assert payload["theta_predicted"] == pytest.approx(np.arcsin(0.5), abs=1e-10)
        assert payload["theta_degrees"] == pytest.approx(30.0, abs=1e-6)
        assert payload["ambiguous_subspace"] is False
        assert len(payload["solution"]["a"]) == 5

    def test_zero_budget(self, low_rank_csv, tmp_path):
        out = tmp_path / "zero.json"
        code = main(["attack", str(low_rank_csv), "--k", "3", "--eta", "0",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["theta_achieved"] == pytest.approx(0.0, abs=1e-7)

    def test_emit_delta(self, low_rank_csv, tmp_path):
        out = tmp_path / "r.json"
        delta_path = tmp_path / "delta.csv"
        code = main(["attack", str(low_rank_csv), "--k", "3", "--eta", "0.4",
                     "--strategy", "unconstrained", "--out", str(out),
                     "--emit-delta", str(delta_path)])
        assert code == 0
        delta = read_matrix_csv(delta_path)
        payload = json.loads(out.read_text())
        assert np.linalg.norm(delta) == pytest.approx(payload["delta_fro_norm"], rel=1e-9)

    def test_failed_emit_delta_prints_no_report(self, low_rank_csv, tmp_path, capsys):
        # the delta path is a directory: the command fails, so stdout stays empty
        code = main(["attack", str(low_rank_csv), "--k", "3", "--eta", "0.4",
                     "--emit-delta", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_bad_k_exits_2(self, low_rank_csv):
        assert main(["attack", str(low_rank_csv), "--k", "9", "--eta", "0.5"]) == 2

    @pytest.mark.parametrize("eta, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
    def test_bad_budget_exits_2_naming_it(self, low_rank_csv, tmp_path, capsys, eta, shown):
        delta_path = tmp_path / "delta.csv"
        assert main(["attack", str(low_rank_csv), "--k", "2", "--eta", eta,
                     "--emit-delta", str(delta_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: energy budget must be finite and >= 0, got {shown}\n")
        assert not delta_path.exists()

    def test_regime_error_exits_3(self, tmp_path):
        path = tmp_path / "sq.csv"
        write_matrix_csv(path, np.diag([3.0, 2.0]))
        assert main(["attack", str(path), "--k", "2", "--eta", "0.5"]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["attack", str(tmp_path / "nope.csv"), "--k", "2",
                     "--eta", "0.5"]) == 2

    def test_huge_budget_full_rank(self, tmp_path):
        # the full-rank rank-one core squares neither eta nor sigma_k, so a
        # 1e200 budget saturates; the unconstrained attack has no room at k = n
        tall = tmp_path / "tall.csv"
        write_matrix_csv(tall, np.random.default_rng(1).standard_normal((6, 3)))
        out = tmp_path / "r.json"
        assert main(["attack", str(tall), "--k", "3", "--eta", "1e200",
                     "--strategy", "rank_one", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["regime"] == "FullRankCase1"
        assert report["theta_predicted"] == pytest.approx(np.pi / 2)
        assert report["delta_fro_norm"] == pytest.approx(1e200, rel=1e-12)
        assert main(["attack", str(tall), "--k", "3", "--eta", "1e200",
                     "--strategy", "unconstrained", "--out", str(out)]) == 2

    @pytest.mark.parametrize("k", ["2", "3"])
    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    def test_huge_budget_reports_its_norm(self, low_rank_csv, tmp_path, k, strategy):
        # a 1e200 core on an O(1) matrix: its norm squares to past the float
        # range, but the report reads it without squaring
        out = tmp_path / "r.json"
        assert main(["attack", str(low_rank_csv), "--k", k, "--eta", "1e200",
                     "--strategy", strategy, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["theta_predicted"] == pytest.approx(np.pi / 2)
        assert report["delta_fro_norm"] == pytest.approx(1e200, rel=1e-12)

    def test_unknown_flag_exits_2(self, low_rank_csv):
        assert main(["attack", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--frobulate"]) == 2

    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    def test_budget_past_the_range_of_the_unit_exits_2(self, tmp_path, capsys, strategy):
        # eta / sigma_1 = 1e350 overflows the solvers' unit; the attack would
        # lift an infinite core, so it is refused with one error line
        path = tmp_path / "tiny.csv"
        write_matrix_csv(path, np.array([[1e-150, 0.0], [0.0, 5e-151], [0.0, 0.0]]))
        assert main(["attack", str(path), "--k", "1", "--eta", "1e200",
                     "--strategy", strategy]) == 2
        assert capsys.readouterr().err == ("error: energy budget 1e+200 exceeds sigma_1 = "
                                           "1e-150 by more than the float64 range\n")

    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    def test_strategy_runs_the_attack_of_its_family(self, low_rank_csv, monkeypatch, strategy):
        family = experiments.ATTACKS[strategy]
        called = []

        def recording(x, k, eta):
            called.append((x.shape, k, eta))
            return family.attack(x, k, eta)

        monkeypatch.setitem(experiments.ATTACKS, strategy, family._replace(attack=recording))
        assert main(["attack", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--strategy", strategy]) == 0
        assert called == [((5, 5), 3, 0.5)]


class TestSweepCommand:
    def _spec(self, tmp_path, eta="0.3,0.6,0.8"):
        spec = tmp_path / "sweep.spec"
        spec.write_text("d = 5\nn = 5\nk = 3\ndata_kind = low_rank\n"
                        f"eta_grid = {eta}\nstrategies = r1-opt,wr-opt\nseed = 11\n")
        return spec

    def test_low_rank_sweep_saturates_past_threshold(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", str(self._spec(tmp_path)), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eta_ratio,strategy,theta,theta_predicted,budget_used"
        rows = [line.split(",") for line in lines[1:]]
        past_threshold = [float(r[2]) for r in rows
                          if r[1] == "wr-opt" and float(r[0]) > 1 / np.sqrt(2)]
        assert past_threshold
        assert all(abs(t - np.pi / 2) < 1e-8 for t in past_threshold)

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = self._spec(tmp_path)
        assert main(["sweep", str(spec), "--out", str(out1)]) == 0
        assert main(["sweep", str(spec), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_grid_exits_2(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("d = 5\nn = 5\nk = 3\neta_grid = \n")
        assert main(["sweep", str(spec), "--out", str(tmp_path / "o.csv")]) == 2

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("d = 5\nn = 5\nk = 3\nseed = -1\n")
        assert main(["sweep", str(spec), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: {spec}: seed must be >= 0\n"

    @pytest.mark.parametrize("lines, message", [
        ("seed = -1\noracle_seed = 3\n", "seed must be >= 0"),
        ("oracle_seed = -2\n", "oracle_seed must be >= 0"),
        ("seed = 1_0\n", "seed must be an integer >= 0, got '1_0'"),
        ("trials = 1_0\n", "trials must be an integer >= 1, got '1_0'"),
    ], ids=["seed-with-oracle-seed", "oracle-seed", "seed-underscore", "trials-underscore"])
    def test_bad_count_exits_2_naming_its_key(self, tmp_path, capsys, lines, message):
        spec = tmp_path / "bad.spec"
        spec.write_text("d = 5\nn = 5\nk = 3\ndata_kind = gaussian\n" + lines)
        out = tmp_path / "o.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("d", "1_0", "d must be an integer >= 1, got '1_0'"),
        ("n", "0", "n must be >= 1"),
        ("k", "0_3", "k must be an integer >= 1, got '0_3'"),
        ("k", "0", "k must be >= 1"),
    ], ids=["d-underscore", "n-zero", "k-underscore", "k-zero"])
    def test_bad_dimension_exits_2_naming_its_key(self, tmp_path, capsys, key, value, message):
        spec = tmp_path / "bad.spec"
        dims = {"d": "5", "n": "5", "k": "3", key: value}
        spec.write_text("".join(f"{name} = {text}\n" for name, text in dims.items())
                        + "data_kind = gaussian\n")
        out = tmp_path / "o.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"
        assert not out.exists()


class TestPcrCommand:
    def test_synthetic_run(self, tmp_path):
        out = tmp_path / "pcr.csv"
        code = main(["pcr", "--synthetic", "--k", "4",
                     "--eta-grid", "0.0,0.3,0.8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eta_ratio,strategy,r2_train,r2_test"
        assert len(lines) == 4

    def test_zero_budget_first_row_is_baseline(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["pcr", "--synthetic", "--k", "4", "--eta-grid", "0.0,0.5",
              "--out", str(out1)])
        main(["pcr", "--synthetic", "--k", "4", "--eta-grid", "0.0",
              "--out", str(out2)])
        assert out1.read_text().splitlines()[1] == out2.read_text().splitlines()[1]

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["pcr", str(tmp_path / "nothing.csv"), "--k", "4",
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_non_finite_target_exits_2(self, tmp_path):
        features, targets = synthetic_collinear(seed=0)
        targets[5] = np.nan
        path = tmp_path / "f.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in np.column_stack([features.T, targets])))
        assert main(["pcr", str(path), "--k", "4", "--out", str(tmp_path / "o.csv")]) == 2

    def test_no_data_source_exits_2(self, tmp_path):
        assert main(["pcr", "--k", "4", "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    def test_k_above_training_rank_exits_2(self, tmp_path, capsys, strategy):
        # 12 features of centered rank 3: both strategies reject k = 4 alike,
        # before any attack runs
        rng = np.random.default_rng(5)
        features = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 12)) + 2.0
        path = tmp_path / "f.csv"
        np.savetxt(path, np.column_stack([features, rng.standard_normal(30)]), delimiter=",")
        out = tmp_path / "o.csv"
        assert main(["pcr", str(path), "--k", "4", "--strategy", strategy,
                     "--out", str(out)]) == 2
        assert "k=4 exceeds the numerical rank 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    def test_k_equal_min_d_n_train_exits_2(self, tmp_path, capsys, svd_calls, strategy):
        # 5 features of full row rank over 32 training samples: at k = d
        # neither attack has room, and both strategies say so before factoring
        features, targets = synthetic_collinear(seed=8, d=5, n=40, n_factors=3)
        path = tmp_path / "f.csv"
        np.savetxt(path, np.column_stack([features.T, targets]), delimiter=",")
        svd_calls.clear()
        assert main(["pcr", str(path), "--k", "5", "--strategy", strategy,
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert svd_calls == []
        assert capsys.readouterr().err == ("error: attack needs room at index k+1=6 "
                                           "in the 5x32 training features\n")

    def test_data_file_and_synthetic_exits_2(self, tmp_path):
        features, targets = synthetic_collinear(seed=0)
        path = tmp_path / "f.csv"
        np.savetxt(path, np.column_stack([features.T, targets]), delimiter=",")
        out = tmp_path / "o.csv"
        assert main(["pcr", str(path), "--synthetic", "--k", "4", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.3,0.3", "", "-0.5,0.2"])
    def test_bad_grid_exits_2(self, tmp_path, grid):
        out = tmp_path / "o.csv"
        assert main(["pcr", "--synthetic", "--k", "4", f"--eta-grid={grid}",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_ratio_that_is_not_a_number_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["pcr", "--synthetic", "--k", "4", "--eta-grid", "0.3,x",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: eta_grid ratio 'x' is not a number\n"
        assert not out.exists()

    def test_repeated_ratio_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["pcr", "--synthetic", "--k", "4", "--eta-grid", "0.3,0.3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: eta_grid ratio 0.3 is repeated\n"
        assert not out.exists()

    def test_negative_zero_ratio_writes_0(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["pcr", "--synthetic", "--k", "4", "--eta-grid=-0,0.5",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0.5"]
        assert main(["pcr", "--synthetic", "--k", "4", "--eta-grid=-0,0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: eta_grid ratio 0.0 is repeated\n"

    def test_grid_in_any_order_writes_the_sorted_grid(self, tmp_path):
        unsorted, ordered = tmp_path / "a.csv", tmp_path / "b.csv"
        for grid, out in (("0.5,0.1,0.3", unsorted), ("0.1,0.3,0.5", ordered)):
            assert main(["pcr", "--synthetic", "--k", "4", "--eta-grid", grid,
                         "--out", str(out)]) == 0
        assert unsorted.read_bytes() == ordered.read_bytes()


    @pytest.mark.parametrize("seed", ["-1", "2.5"])
    def test_bad_seed_exits_2_naming_it(self, tmp_path, capsys, seed):
        out = tmp_path / "o.csv"
        assert main(["pcr", "--synthetic", "--k", "2", "--seed", seed, "--out", str(out)]) == 2
        assert f"argument --seed: must be an integer >= 0, got '{seed}'" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_clean_instance_passes(self, low_rank_csv, capsys):
        code = main(["verify", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--trials", "400", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out and "VIOLATION" not in out

    def test_injected_offset_detected(self, low_rank_csv, monkeypatch, capsys):
        family = experiments.ATTACKS["rank_one"]

        def overshooting_oracle(x, k, eta, cfg):
            attack, theta = family.oracle(x, k, eta, cfg)
            return attack, theta + 0.2

        monkeypatch.setitem(experiments.ATTACKS, "rank_one",
                            family._replace(oracle=overshooting_oracle))
        code = main(["verify", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--trials", "400", "--seed", "3"])
        assert code == 4
        status = {line[:22].strip(): line.split()[-1]
                  for line in capsys.readouterr().out.splitlines()[1:]}
        assert status == {"rank-one random": "VIOLATION", "unconstrained random": "ok"}

    @pytest.mark.parametrize("seed", ["-1", "2.5"])
    def test_bad_seed_exits_2_naming_it(self, low_rank_csv, capsys, seed):
        assert main(["verify", str(low_rank_csv), "--k", "1", "--eta", "0.1",
                     "--seed", seed]) == 2
        assert f"argument --seed: must be an integer >= 0, got '{seed}'" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["1_0", "-3"])
    def test_bad_trials_exits_2_naming_it(self, low_rank_csv, capsys, trials):
        assert main(["verify", str(low_rank_csv), "--k", "1", "--eta", "0.1",
                     f"--trials={trials}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --trials: must be an integer >= 1, got '{trials}'" in captured.err

    def test_zero_trials_exits_2(self, low_rank_csv):
        assert main(["verify", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--trials", "0"]) == 2

    def test_k_below_rank_instance(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        write_matrix_csv(path, np.diag([3.0, 2.0, 1.0]))
        code = main(["verify", str(path), "--k", "2", "--eta", "0.5",
                     "--trials", "400", "--seed", "1"])
        assert code == 0
        assert "rank-one grid" in capsys.readouterr().out

    def test_k_above_rank_skips_rank_one(self, tmp_path, capsys):
        # attack --strategy unconstrained runs on this input; rank-one has no regime
        rng = np.random.default_rng(0)
        path = tmp_path / "r2.csv"
        write_matrix_csv(path, rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5)))
        assert main(["verify", str(path), "--k", "3", "--eta", "0.5", "--trials", "300"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 2
        assert lines[0] == ("rank-one               skipped: no attack regime for k=3 "
                            "with rank=2 on a 6x5 matrix")
        assert lines[1].startswith("unconstrained random") and lines[1].endswith(" tied")

    def test_every_family_skipped_keeps_the_regime_exit(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        write_matrix_csv(path, np.random.default_rng(0).standard_normal((5, 5)))
        assert main(["verify", str(path), "--k", "5", "--eta", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d = n: no direction leaves the column space\n"

    @pytest.fixture
    def full_column_rank_csv(self, tmp_path):
        path = tmp_path / "g.csv"
        write_matrix_csv(path, synth_gaussian(9, 6, seed=3))
        return path

    def test_k_equal_n_checks_rank_one_and_skips_unconstrained(self, full_column_rank_csv,
                                                              capsys):
        code = main(["verify", str(full_column_rank_csv), "--k", "6", "--eta", "0.3",
                     "--trials", "400", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 2
        assert lines[0].startswith("rank-one random") and lines[0].endswith(" ok")
        assert lines[1] == ("unconstrained          skipped: attack needs room "
                            "at index k+1=7 in a 9x6 matrix")

    @pytest.mark.parametrize("k, expected", [
        ("2", "rank-one random          0.10624147   0.18804631    +8.18e-02  ok\n"
              "rank-one grid            0.18804630   0.18804631    +8.48e-09  ok\n"
              "unconstrained random     0.09395547   0.23805600    +1.44e-01  ok\n"),
        ("6", "rank-one random          0.57277837   0.97047003    +3.98e-01  ok\n"
              "unconstrained          skipped: attack needs room at index k+1=7 "
              "in a 9x6 matrix\n"),
    ], ids=["k2", "k6"])
    def test_output_is_pinned(self, full_column_rank_csv, capsys, k, expected):
        assert main(["verify", str(full_column_rank_csv), "--k", k, "--eta", "0.3",
                     "--trials", "300"]) == 0
        header = "check                        oracle       closed       margin  status\n"
        assert capsys.readouterr().out == header + expected

    def test_k_equal_n_exit_code_follows_the_checked_family(self, full_column_rank_csv,
                                                            monkeypatch):
        family = experiments.ATTACKS["rank_one"]

        def overshooting_oracle(x, k, eta, cfg):
            attack, theta = family.oracle(x, k, eta, cfg)
            return attack, theta + 2.0

        monkeypatch.setitem(experiments.ATTACKS, "rank_one",
                            family._replace(oracle=overshooting_oracle))
        assert main(["verify", str(full_column_rank_csv), "--k", "6", "--eta", "0.3",
                     "--trials", "400", "--seed", "1"]) == 4

    @pytest.mark.parametrize("x", [np.diag([2.0, 2.0, 2.0]), 2.0 * np.linalg.qr(
        np.random.default_rng(0).standard_normal((3, 3)))[0]], ids=["diag", "rotated"])
    def test_tied_truncation_is_flagged_not_failed(self, tmp_path, capsys, x):
        # sigma = (2, 2, 2) at k = 2: the top-2 subspace is a tie-break, so
        # the oracles' and the closed forms' differ by one and no check can fail
        path = tmp_path / "t.csv"
        write_matrix_csv(path, x)
        assert main(["verify", str(path), "--k", "2", "--eta", "0", "--trials", "64"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines and all(line.endswith("  tied") for line in lines), lines

    def test_no_applicable_family_exits_2(self, full_column_rank_csv, monkeypatch, capsys):
        def no_room(at, eta):
            raise InvalidDimension("no room")

        monkeypatch.setitem(experiments.ATTACKS, "rank_one",
                            experiments.ATTACKS["rank_one"]._replace(closed_form=no_room))
        assert main(["verify", str(full_column_rank_csv), "--k", "6", "--eta", "0.3",
                     "--trials", "400", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "attack needs room at index k+1=7" in captured.err


@pytest.mark.parametrize("argv", [
    ["attack", "{x}", "--k", "2", "--eta", "1"],
    ["attack", "{x}", "--k", "5", "--eta", "1", "--strategy", "rank_one"],
    ["verify", "{x}", "--k", "2", "--eta", "1", "--trials", "50"],
    ["verify", "{x}", "--k", "5", "--eta", "1", "--trials", "50"],
    ["sweep", "{spec}", "--out", "{out}"],
], ids=["attack-k2", "attack-k5", "verify-k2", "verify-k5", "sweep"])
def test_sigma_1_past_the_float64_range_exits_2(tmp_path, capsys, argv):
    # finite entries, but a first column of +-1.5e308 has an infinite norm
    x = synth_gaussian(20, 5, seed=3)
    x[:, 0] = 1.5e308 * np.where(np.arange(20) % 2, 1.0, -1.0)
    path, spec, out = tmp_path / "x.csv", tmp_path / "s.txt", tmp_path / "o.csv"
    write_matrix_csv(path, x)
    spec.write_text(f"d=20\nn=5\nk=2\ndata_kind=from_file\ndata_path={path}\n"
                    "eta_grid=0.3,0.9\nstrategies=r1-opt,wr-opt\n")
    assert main([a.format(x=path, spec=spec, out=out) for a in argv]) == 2
    assert capsys.readouterr().err == ("error: entries are finite, but the largest singular "
                                       "value exceeds the float64 range (1.798e+308)\n")
    assert not out.exists()


@pytest.mark.parametrize("strategies", ["r1-rnd", "wr-rnd"])
def test_budget_near_the_float64_maximum_runs_the_oracles(tmp_path, capsys, strategies):
    # eta / ||a|| overflowed for this budget: every trial scored nan, and the
    # oracle returned no trial at all
    x = synth_gaussian(2, 3, seed=0)
    path, spec, out = tmp_path / "m.csv", tmp_path / "s.txt", tmp_path / "o.csv"
    write_matrix_csv(path, x / np.linalg.svd(x, compute_uv=False)[0] * 2e307)
    spec.write_text(f"d=2\nn=3\nk=1\ndata_kind=from_file\ndata_path={path}\n"
                    f"eta_grid=0.5,1,2\nstrategies={strategies}\ntrials=64\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [main(["verify", str(path), "--k", "1", "--eta", "1.5e308", "--trials", "64"]),
                 main(["sweep", str(spec), "--out", str(out)])]
    err = capsys.readouterr().err
    assert set(codes) <= {0, 2}, codes
    assert "Traceback" not in err and all(line.startswith("error: ")
                                          for line in err.splitlines())
    if codes[1] == 0:
        assert "nan" not in out.read_text() and "inf" not in out.read_text()


@pytest.mark.parametrize("k", ["1_0", "0", "+2"])
@pytest.mark.parametrize("argv", [
    ["attack", "{x}", "--eta", "0.5", "--out", "{out}"],
    ["verify", "{x}", "--eta", "0.5", "--trials", "50"],
    ["pcr", "--synthetic", "--out", "{out}"],
], ids=["attack", "verify", "pcr"])
def test_bad_k_exits_2_naming_it(low_rank_csv, tmp_path, capsys, argv, k):
    out = tmp_path / "o.out"
    assert main([a.format(x=low_rank_csv, out=out) for a in argv] + [f"--k={k}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --k: must be an integer >= 1, got '{k}'" in captured.err
    assert not out.exists()
