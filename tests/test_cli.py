import json

import numpy as np
import pytest

from pcattack import (ParseError, experiments, read_matrix_csv, synth_low_rank,
                      synthetic_collinear, write_matrix_csv)
from pcattack.cli import main


@pytest.fixture
def low_rank_csv(tmp_path):
    path = tmp_path / "x.csv"
    write_matrix_csv(path, synth_low_rank(5, 5, 3, seed=11))
    return path


class TestMatrixCsv:
    def test_round_trip_relative_error(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 7)) * np.exp(rng.uniform(-6, 6, (4, 7)))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, x)
        back = read_matrix_csv(path)
        assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-300)) < 1e-9

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

    def test_bad_k_exits_2(self, low_rank_csv):
        assert main(["attack", str(low_rank_csv), "--k", "9", "--eta", "0.5"]) == 2

    def test_regime_error_exits_3(self, tmp_path):
        path = tmp_path / "sq.csv"
        write_matrix_csv(path, np.diag([3.0, 2.0]))
        assert main(["attack", str(path), "--k", "2", "--eta", "0.5"]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["attack", str(tmp_path / "nope.csv"), "--k", "2",
                     "--eta", "0.5"]) == 2

    def test_overflowing_budget_exits_2(self, low_rank_csv, tmp_path):
        tall = tmp_path / "tall.csv"
        write_matrix_csv(tall, np.random.default_rng(1).standard_normal((6, 3)))
        out = tmp_path / "r.json"
        for path, k in ((low_rank_csv, "2"), (low_rank_csv, "3"), (tall, "3")):
            for strategy in ("rank_one", "unconstrained"):
                code = main(["attack", str(path), "--k", k, "--eta", "1e200",
                             "--strategy", strategy, "--out", str(out)])
                assert code == 2

    def test_unknown_flag_exits_2(self, low_rank_csv):
        assert main(["attack", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--frobulate"]) == 2


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


class TestVerifyCommand:
    def test_clean_instance_passes(self, low_rank_csv, capsys):
        code = main(["verify", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--trials", "400", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out and "VIOLATION" not in out

    def test_injected_offset_detected(self, low_rank_csv, monkeypatch, capsys):
        closed_form, oracle = experiments.ATTACKS["rank_one"]

        def overshooting_oracle(x, k, eta, cfg):
            attack, theta = oracle(x, k, eta, cfg)
            return attack, theta + 0.2

        monkeypatch.setitem(experiments.ATTACKS, "rank_one",
                            (closed_form, overshooting_oracle))
        code = main(["verify", str(low_rank_csv), "--k", "3", "--eta", "0.5",
                     "--trials", "400", "--seed", "3"])
        assert code == 4
        status = {line[:22].strip(): line.split()[-1]
                  for line in capsys.readouterr().out.splitlines()[1:]}
        assert status == {"rank-one random": "VIOLATION", "unconstrained random": "ok"}

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
