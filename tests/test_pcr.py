import dataclasses

import numpy as np
import pytest
from conftest import random_orthogonal, spearman
from oracles import _least_squares

from pcattack import (InvalidDimension, InvalidMatrix, ParseError, PcattackError,
                      UndefinedR2, attack_pcr, fit_pcr, full_svd, load_feature_csv, pcr,
                      r_squared, synthetic_collinear)
from pcattack.errors import SingularFit
from pcattack.experiments import ATTACKS
from pcattack.linalg import check_eta, leading_svd
from pcattack.pcr import DEFAULT_ETA_RATIOS, _Targets
from pcattack.report import _core_split, attack_factor, frames, lift


def toy_features(seed=0, d=6, n=30):
    return np.random.default_rng(seed).standard_normal((d, n))


def low_rank_features(rank, seed=0, d=12, n=30):
    """Features whose centered training set has rank exactly ``rank``."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
    return features + rng.standard_normal((d, 1)), rng.standard_normal(n)


def _pcr_outcome(features, targets, k, ratio, strategy):
    try:
        [report] = attack_pcr(features, targets, k, [ratio], strategy, split_seed=3)
    except PcattackError as exc:
        return type(exc)
    return report


# Ratios at least 1% away from the regime thresholds 1/sqrt(2) and 1, where
# the dense SVD of the attacked features is ill-conditioned.
AGREEMENT_RATIOS = (0.0, 0.05, 0.3, 0.6, 0.69, 0.72, 0.85, 0.98, 1.02, 1.5)
AGREEMENT_SETS = {
    "wide-k1": (synthetic_collinear(seed=8, d=20, n=40), 1),
    "wide-k4": (synthetic_collinear(seed=8, d=20, n=40), 4),
    "tall-k1": (synthetic_collinear(seed=9, d=40, n=20, n_factors=3), 1),
    "tall-k3": (synthetic_collinear(seed=9, d=40, n=20, n_factors=3), 3),
    "low-rank-k3": (low_rank_features(3), 3),
    "k-above-rank": (low_rank_features(3), 4),
}


class TestRSquared:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 5.0])
        assert r_squared(y, y) == 1.0

    def test_mean_prediction(self):
        y = np.array([1.0, 2.0, 5.0])
        assert r_squared(np.full(3, y.mean()), y) == 0.0

    def test_hand_value(self):
        # ||y - ybar||^2 = 2, ||y - yhat||^2 = 1
        assert r_squared([1.0, 1.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)

    def test_constant_actual(self):
        with pytest.raises(UndefinedR2):
            r_squared([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidDimension):
            r_squared([1.0, 2.0], [1.0, 2.0, 3.0])


class TestFitPcr:
    def test_target_on_first_component(self):
        x = toy_features(1)
        xc = x - x.mean(axis=1, keepdims=True)
        u1 = full_svd(xc).u[:, 0]
        y = 2.5 * (u1 @ xc) + 0.7
        model = fit_pcr(x, y, k=2)
        assert model.r2_train == pytest.approx(1.0, abs=1e-10)

    def test_target_orthogonal_to_components(self):
        x = toy_features(2, d=4, n=12)
        xc = x - x.mean(axis=1, keepdims=True)
        scores = full_svd(xc).u[:, :2].T @ xc
        rng = np.random.default_rng(3)
        y = rng.standard_normal(12)
        design = np.column_stack([scores.T, np.ones(12)])
        y -= design @ np.linalg.lstsq(design, y, rcond=None)[0]
        model = fit_pcr(x, y, k=2)
        assert model.r2_train == pytest.approx(0.0, abs=1e-10)

    def test_collinear_benchmark_fits(self):
        features, targets = synthetic_collinear(seed=0)
        model = fit_pcr(features, targets, k=4)
        assert model.r2_train > 0.99

    def test_k_too_large(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 20))
        with pytest.raises(InvalidDimension):
            fit_pcr(x, np.arange(20.0), k=3)  # centered rank is 2

    def test_one_target_too_few_rejected(self):
        features, targets = synthetic_collinear(seed=0)
        with pytest.raises(InvalidDimension, match=r"^one target per sample column is required$"):
            fit_pcr(features, targets[:-1], k=4)

    def test_predict_on_one_feature_too_few_rejected(self):
        features, targets = synthetic_collinear(seed=0)
        model = fit_pcr(features, targets, k=4)
        with pytest.raises(InvalidDimension,
                           match=r"^feature dimension does not match the model$"):
            model.predict(features[:-1])

    def test_train_r2_reproducible_from_predictions(self):
        features, targets = synthetic_collinear(seed=1)
        model = fit_pcr(features, targets, k=4)
        again = r_squared(model.predict(features), targets)
        assert abs(again - model.r2_train) < 1e-12

    def test_prediction_invariant_under_component_rotation(self):
        features, targets = synthetic_collinear(seed=2)
        model = fit_pcr(features, targets, k=4)
        q = random_orthogonal(np.random.default_rng(5), 4)
        rotated = dataclasses.replace(
            model, components=model.components @ q,
            coefficients=q.T @ model.coefficients)
        ref = model.predict(features)
        rot = rotated.predict(features)
        assert np.max(np.abs(ref - rot)) < 1e-10


def test_synthetic_collinear_values_are_pinned():
    # The sampler's stream, pinned as in test_experiments: O(1) moves on a
    # changed stream, far inside 1e-12 relative across platforms.
    features, targets = synthetic_collinear(seed=0)
    assert features.shape == (20, 40) and targets.shape == (40,)
    np.testing.assert_allclose(
        [*features[0, :3], *features[-1, -2:], *targets[:3], targets[-1]],
        [1.5258403357788215, 1.020449835515905, 2.4089543372276156,
         -1.3875465438104917, 0.578666667737693,
         0.3988450653566909, 0.3750083758107713, -0.8004569963485496,
         -0.04213357162584401], rtol=1e-12)


def test_synthetic_collinear_needs_a_factor():
    with pytest.raises(InvalidDimension, match=r"^n_factors must leave room below min\(d, n\)$"):
        synthetic_collinear(0, n_factors=0)


class TestAttackPcr:
    def test_grid_is_read_and_sorted_as_numbers(self):
        # as text, "10" sorts before "9"; the grid rule sorts the numbers
        features, targets = synthetic_collinear(seed=0)
        reports = attack_pcr(features, targets, 4, ["0.5", "10", "9"])
        assert [rep.eta_ratio for rep in reports] == [0.5, 9.0, 10.0]

    def test_zero_budget_equals_baseline(self):
        features, targets = synthetic_collinear(seed=3)
        rep1 = attack_pcr(features, targets, 4, [0.0, 0.4], "unconstrained",
                          split_seed=7)
        rep2 = attack_pcr(features, targets, 4, [0.0], "unconstrained",
                          split_seed=7)
        assert rep1[0] == rep2[0]
        assert rep1[0].eta_ratio == 0.0

    def test_degradation_grows_with_budget(self):
        features, targets = synthetic_collinear(seed=4)
        reports = attack_pcr(features, targets, 4, [0.1, 0.9], "unconstrained",
                             split_seed=0)
        assert reports[1].r2_test < reports[0].r2_test

    def test_rank_one_strategy_runs(self):
        features, targets = synthetic_collinear(seed=5)
        reports = attack_pcr(features, targets, 4, [0.2, 0.6], "rank_one",
                             split_seed=0)
        assert [r.eta_ratio for r in reports] == [0.2, 0.6]
        assert all(r.strategy == "rank_one" for r in reports)

    def test_monotone_degradation_single_seed(self):
        features, targets = synthetic_collinear(seed=6)
        reports = attack_pcr(features, targets, 4, DEFAULT_ETA_RATIOS,
                             "unconstrained", split_seed=6)
        grid = [r.eta_ratio for r in reports]
        r2_test = [r.r2_test for r in reports]
        assert spearman(grid, r2_test) <= -0.9

    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    @pytest.mark.parametrize("name", AGREEMENT_SETS)
    def test_core_refit_agrees_with_dense_refit(self, name, strategy, monkeypatch):
        (features, targets), k = AGREEMENT_SETS[name]
        core = [_pcr_outcome(features, targets, k, r, strategy) for r in AGREEMENT_RATIOS]
        monkeypatch.setattr(pcr, "_core_split", lambda at, core: None)
        dense = [_pcr_outcome(features, targets, k, r, strategy) for r in AGREEMENT_RATIOS]
        for ratio, got, want in zip(AGREEMENT_RATIOS, core, dense):
            if isinstance(want, type):
                assert got is want, ratio
            else:
                assert abs(got.r2_train - want.r2_train) < 1e-10, ratio
                assert abs(got.r2_test - want.r2_test) < 1e-10, ratio

    def test_invalid_strategy(self):
        features, targets = synthetic_collinear(seed=0)
        with pytest.raises(InvalidDimension):
            attack_pcr(features, targets, 4, [0.5], "both")

    @pytest.mark.parametrize("grid, named", [([], "empty"), ([0.6, 0.2, 0.6], "0.6"),
                                             ([0.2, -1.0], "-1.0"), ([0.2, np.inf], "inf")])
    def test_bad_grid_names_the_ratio(self, grid, named):
        features, targets = synthetic_collinear(seed=0)
        with pytest.raises(ParseError, match=named):
            attack_pcr(features, targets, 4, grid)

    def test_grid_is_sorted(self):
        features, targets = synthetic_collinear(seed=0)
        reports = attack_pcr(features, targets, 4, [0.6, 0.2])
        assert [r.eta_ratio for r in reports] == [0.2, 0.6]


    def test_non_finite_targets_rejected(self):
        features, targets = synthetic_collinear(seed=0)
        for bad in (np.nan, np.inf):
            targets = targets.copy()
            targets[3] = bad
            with pytest.raises(InvalidMatrix):
                fit_pcr(features, targets, 4)
            with pytest.raises(InvalidMatrix):
                attack_pcr(features, targets, 4, [0.5])


def _lstsq_outcome(features, targets, k, ratio, strategy, split):
    """``_pcr_outcome``'s (r2_train, r2_test), or its error type, with the
    attacked features formed densely and fitted by lstsq
    (``oracles._least_squares``).  The components are those ``attack_pcr``
    reads: from the core's split when ``split`` holds and the core splits,
    else from a dense SVD of the attacked features."""
    try:
        n = features.shape[1]
        n_train = int(round(pcr.SPLIT_FRACTION * n))
        perm = np.random.Generator(np.random.PCG64(3)).permutation(n)
        train, test = perm[:n_train], perm[n_train:]
        means = features[:, train].mean(axis=1, keepdims=True)
        xc, test_c = features[:, train] - means, features[:, test] - means
        svd, at = attack_factor(xc, k)
        if at.rank < k:
            return InvalidDimension
        _, _, core = ATTACKS[strategy].closed_form(at, check_eta(ratio * at.ratio_scale))
        left, right = frames(svd, k)
        attacked = xc + lift(left, right, core, at.unit)
        w = _core_split(at, core) if split else None
        if w is None:
            dense = leading_svd(attacked, k)
            if dense.rank < k:
                return InvalidDimension
            components = dense.u
        else:
            components = np.column_stack([svd.u[:, :k - 1], left @ np.array(w)])
        coef, intercept, r2_train = _least_squares(components.T @ attacked, targets[train])
        return r2_train, r_squared(coef @ (components.T @ test_c) + intercept, targets[test])
    except PcattackError as exc:
        return type(exc)


class TestClosedFormFit:
    """The refit is ``_Targets.fit``'s closed form, not a least-squares
    solve; lstsq on the scores formed densely is its reference."""

    @pytest.mark.parametrize("path", ["split", "dense"])
    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    @pytest.mark.parametrize("name", AGREEMENT_SETS)
    def test_attack_refit_agrees_with_lstsq(self, name, strategy, path, monkeypatch):
        (features, targets), k = AGREEMENT_SETS[name]
        if path == "dense":
            monkeypatch.setattr(pcr, "_core_split", lambda at, core: None)
        for ratio in AGREEMENT_RATIOS:
            got = _pcr_outcome(features, targets, k, ratio, strategy)
            want = _lstsq_outcome(features, targets, k, ratio, strategy, path == "split")
            if isinstance(want, type):
                assert got is want, ratio
            else:
                assert abs(got.r2_train - want[0]) < 1e-12, ratio
                assert abs(got.r2_test - want[1]) < 1e-12, ratio

    @pytest.mark.parametrize("name", AGREEMENT_SETS)
    def test_fit_pcr_agrees_with_lstsq(self, name):
        (features, targets), k = AGREEMENT_SETS[name]
        try:
            model = fit_pcr(features, targets, k)
        except InvalidDimension:
            xc = features - features.mean(axis=1, keepdims=True)
            assert leading_svd(xc, k).rank < k
            return
        # lstsq on the scores of the model's own components
        scores = model.components.T @ (features - model.feature_means[:, None])
        coefficients, intercept, r2_train = _least_squares(scores, targets)
        scale = max(1.0, np.max(np.abs(coefficients)))
        assert np.max(np.abs(model.coefficients - coefficients)) < 1e-12 * scale
        assert abs(model.intercept - intercept) < 1e-12 * max(1.0, abs(intercept))
        assert abs(model.r2_train - r2_train) < 1e-12

    @pytest.mark.parametrize("m", [-900, -540, 0, 520, 900])
    def test_r2_bit_identical_at_every_power_of_two_target_scale(self, m):
        # at the parent's raw squares, 2^-540 read the targets as constant
        # (UndefinedR2) and 2^520 overflowed (r2 nan)
        features, targets = synthetic_collinear(seed=0)

        def r2(y):
            out = [fit_pcr(features, y, 4).r2_train]
            for strategy in ("rank_one", "unconstrained"):
                out += [v for rep in attack_pcr(features, y, 4, [0.3, *DEFAULT_ETA_RATIOS],
                                                strategy) for v in (rep.r2_train, rep.r2_test)]
            return out

        assert r2(np.ldexp(targets, m)) == r2(targets)

    @pytest.mark.parametrize("strategy", ["rank_one", "unconstrained"])
    def test_singular_fit_when_the_constant_is_the_only_null_vector(self, strategy):
        # d >= n_train and k = n_train - 1: the centered training features
        # have rank k, and their only null vector v_{k+1} is the constant.
        # Past the budget that turns the last component onto it, its scores
        # are constant, which lstsq finds singular too.
        rng = np.random.default_rng(0)
        features, targets = rng.standard_normal((12, 10)), rng.standard_normal(10)
        [kept] = attack_pcr(features, targets, 7, [0.5], strategy, split_seed=3)
        assert np.isfinite([kept.r2_train, kept.r2_test]).all()
        with pytest.raises(SingularFit, match=r"^component scores do not determine the fit$"):
            attack_pcr(features, targets, 7, [1.5], strategy, split_seed=3)
        assert _lstsq_outcome(features, targets, 7, 1.5, strategy, True) is SingularFit

    @pytest.mark.parametrize("sine2, singular", [(2.0**-20, False), (2.0**-32, True)])
    def test_singular_fit_tolerance(self, sine2, singular):
        # right vectors whose span holds the constant direction c up to a
        # squared sine of sine2: 1 - m.m = sine2
        rng = np.random.default_rng(1)
        n = 16
        c = np.full(n, 1.0 / np.sqrt(n))
        q = np.linalg.qr(np.column_stack([c, rng.standard_normal((n, 2))]))[0]
        v = np.column_stack([q[:, 2], np.sqrt(1.0 - sine2) * q[:, 0] + np.sqrt(sine2) * q[:, 1]])
        x = random_orthogonal(rng, 5)[:, :2] @ np.diag([3.0, 1.0]) @ v.T
        svd = leading_svd(x, 2)
        y = _Targets(rng.standard_normal(n))
        assert abs(1.0 - float(np.sum(y.moments(svd, 2)[1] ** 2)) - sine2) < 1e-14
        assert (sine2 <= _Targets.SINGULAR_FIT) == singular
        if singular:
            with pytest.raises(SingularFit):
                y.fit(y.moments(svd, 2), svd.sigma[:2])
        else:
            _, r2_train, _ = y.fit(y.moments(svd, 2), svd.sigma[:2])
            assert abs(r2_train - _least_squares(svd.u.T @ x, y.y)[2]) < 1e-9


class TestFeatureCsv:
    def test_toy_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1,2,10\n3,4,20\n5,6,30\n")
        features, targets = load_feature_csv(path)
        assert features.shape == (2, 3)
        assert np.array_equal(features, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))
        assert np.array_equal(targets, [10.0, 20.0, 30.0])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("f1,f2,target\n1,2,10\n3,4,20\n")
        features, targets = load_feature_csv(path)
        assert features.shape == (2, 2)
        assert np.array_equal(targets, [10.0, 20.0])

    def test_byte_order_mark_skipped(self, tmp_path):
        # a headerless file keeps its first sample; a header is still skipped
        path = tmp_path / "bom.csv"
        for header in ("", "f1,f2,target\n"):
            path.write_text(header + "1,2,10\n3,4,20\n5,6,30\n7,8,40\n", encoding="utf-8-sig")
            features, targets = load_feature_csv(path)
            assert features.shape == (2, 4)
            assert np.array_equal(targets, [10.0, 20.0, 30.0, 40.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_feature_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,10\n3,4\n")
        with pytest.raises(ParseError, match="ragged.csv:2"):
            load_feature_csv(path)

    def test_header_must_match_data_width(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("\nf1,target\n1,2,10\n3,4,20\n")
        with pytest.raises(ParseError, match="hdr.csv:2"):
            load_feature_csv(path)

    @pytest.mark.parametrize("header", ["", "f1,f2,target\n"], ids=["no-header", "header"])
    def test_comment_lines_skipped(self, tmp_path, header):
        plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
        plain.write_text(header + "1,2,10\n3,4,20\n5,6,30\n")
        commented.write_text("# before\n" + header + "1,2,10\n# between\n3,4,20\n"
                             "  # indented\n5,6,30\n# d=3 n=2")
        for got, expected in zip(load_feature_csv(commented), load_feature_csv(plain)):
            assert np.array_equal(got, expected)
        assert load_feature_csv(plain)[0].shape == (2, 3)

    def test_commented_names_are_not_a_header(self, tmp_path):
        # the header is the first line that is neither blank nor a comment
        path = tmp_path / "hdr.csv"
        path.write_text("# a,b,y\nf1,f2,target\n1,2,10\n3,4,20\n")
        features, targets = load_feature_csv(path)
        assert np.array_equal(features, [[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(targets, [10.0, 20.0])

    def test_comments_never_meet_the_header_width_check(self, tmp_path):
        path = tmp_path / "hdr.csv"
        for first in ("# note\n", "# one,two,three,four\n", "# note\nf1,f2,target\n"):
            path.write_text(first + "1,2,10\n3,4,20\n")
            assert load_feature_csv(path)[0].shape == (2, 2)
        path.write_text("# one,two,three\nf1,target\n1,2,10\n3,4,20\n")
        with pytest.raises(ParseError, match="hdr.csv:2: header is not as wide"):
            load_feature_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,10\n3,oops,20\n")
        with pytest.raises(ParseError, match="bad.csv:2"):
            load_feature_csv(path)
