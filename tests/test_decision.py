"""Scores, resolution prefixes, k search and the full decision pipeline."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimred import (Dataset, DecisionConfig, DecisionReport, EXTRACTION, ParameterError,
                    SELECTION, decide, decision, frsd, kmeans_fits, run_decision_detailed)
from dimred.decision import best_silhouette_over_k, select_for_resolution
from dimred.kmeans import kmeans_fit
from dimred.validation import (REFERENCE_EXTRACTION_WEIGHTS,
                               REFERENCE_SELECTION_WEIGHTS)
from helpers import make_dataset


def config_for(alpha, target=0.85, **kwargs):
    return DecisionConfig(
        interpretability=alpha,
        target_resolution=target,
        **kwargs,
    )


def trunc4(x):
    """Truncate to 4 decimals, the display convention of the quoted scores."""
    import math
    return math.floor(x * 10000.0 + 1e-9) / 10000.0


class TestDecisionConfig:
    @pytest.mark.parametrize("interpretability", [-0.5, 1.5, float("nan"), "0.5", True])
    def test_preference_range(self, interpretability):
        with pytest.raises(ParameterError,
                           match=r"^interpretability must be in \[0, 1\]$"):
            DecisionConfig(interpretability=interpretability)

    def test_target_resolution_range(self):
        with pytest.raises(ParameterError):
            config_for(0.5, target=0.0)
        with pytest.raises(ParameterError):
            config_for(0.5, target=1.2)

    def test_k_range(self):
        with pytest.raises(ParameterError, match=r"^need 2 <= k_min <= k_max, got \[1, 4\]$"):
            config_for(0.5, k_min=1, k_max=4)
        with pytest.raises(ParameterError, match=r"^need 2 <= k_min <= k_max, got \[5, 4\]$"):
            config_for(0.5, k_min=5, k_max=4)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_must_be_at_least_one(self, restarts):
        with pytest.raises(ParameterError, match="^restarts must be at least 1$"):
            DecisionConfig(restarts=restarts)

    @pytest.mark.parametrize("name, value", [("k_min", 3.5), ("k_max", 4.0), ("seed", 1.5),
                                             ("restarts", 2.0), ("seed", "1"), ("seed", True),
                                             ("restarts", True)])
    def test_sweep_fields_must_be_integers(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer$"):
            DecisionConfig(**{name: value})

    def test_numpy_integers_pass(self):
        config = DecisionConfig(k_min=np.int64(3), k_max=np.int32(4), seed=np.uint8(7),
                                restarts=np.int16(2))
        assert (config.k_min, config.k_max, config.seed, config.restarts) == (3, 4, 7, 2)


class TestSelectForResolution:
    def test_reference_fs_targets(self):
        m, achieved = select_for_resolution(REFERENCE_SELECTION_WEIGHTS, 0.85)
        assert m == 7
        assert achieved == pytest.approx(0.8828, abs=5e-4)
        m, achieved = select_for_resolution(REFERENCE_SELECTION_WEIGHTS, 0.50)
        assert m == 4
        assert achieved == pytest.approx(0.5227, abs=5e-4)

    def test_reference_fe_targets(self):
        m, achieved = select_for_resolution(REFERENCE_EXTRACTION_WEIGHTS, 0.85)
        assert m == 7
        assert achieved == pytest.approx(0.9069, abs=5e-4)
        m, achieved = select_for_resolution(REFERENCE_EXTRACTION_WEIGHTS, 0.50)
        assert m == 4
        assert achieved == pytest.approx(0.5420, abs=5e-4)

    def test_target_one_takes_every_positive_weight(self):
        m, achieved = select_for_resolution(REFERENCE_SELECTION_WEIGHTS, 1.0)
        assert m == 8
        assert achieved == pytest.approx(1.0, abs=1e-9)

    def test_target_validation(self):
        with pytest.raises(ParameterError):
            select_for_resolution(REFERENCE_SELECTION_WEIGHTS, 0.0)

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=10),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=80)
    def test_prefix_monotone_in_target(self, raws, t1, t2):
        from dimred import FeatureWeights
        weights = FeatureWeights.from_scores(
            [f"f{i}" for i in range(len(raws))], raws, source="FRSD")
        lo, hi = sorted((t1, t2))
        m_lo, a_lo = select_for_resolution(weights, lo)
        m_hi, a_hi = select_for_resolution(weights, hi)
        assert m_lo <= m_hi
        assert a_lo >= lo - 1e-9
        assert a_hi >= hi - 1e-9


class TestDecide:
    @pytest.mark.parametrize(
        "si_fs,si_fe,alpha,method,interp,integ",
        [
            (0.3905, 0.3530, 0.9, SELECTION, 0.3514, 0.0353),
            (0.3905, 0.3530, 0.1, EXTRACTION, 0.0390, 0.3177),
            (0.3905, 0.3530, 0.5, SELECTION, 0.1952, 0.1765),
            (0.4393, 0.3775, 0.9, SELECTION, 0.3953, 0.0377),
            (0.4393, 0.3775, 0.1, EXTRACTION, 0.0439, 0.3397),
        ],
    )
    def test_published_scenarios(self, si_fs, si_fe, alpha, method, interp, integ):
        got_method, got_interp, got_integ = decide(si_fs, si_fe, alpha)
        assert got_method == method
        # quoted scores are 4-decimal truncations (0.9 * 0.4393 = 0.39537 is
        # quoted as 0.3953, not 0.3954), so compare displayed values
        assert trunc4(got_interp) == interp
        assert trunc4(got_integ) == integ

    def test_tie_goes_to_selection(self):
        method, interp, integ = decide(0.4, 0.4, 0.5)
        assert interp == integ
        assert method == SELECTION

    def test_si_range_checked(self):
        with pytest.raises(ParameterError):
            decide(1.5, 0.0, 0.5)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100),
           st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    @settings(max_examples=100)
    def test_scaling_both_sis_never_flips(self, fs, fe, a, c):
        si_fs, si_fe, alpha = fs / 100.0, fe / 100.0, a / 100.0
        if max(si_fs, si_fe) * c > 1.0:
            c = 0.25  # keep scaled values inside [-1, 1]
        base, _, _ = decide(si_fs, si_fe, alpha)
        scaled, _, _ = decide(si_fs * c, si_fe * c, alpha)
        assert base == scaled

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_monotone_in_interpretability(self, si_fs, si_fe, a1, a2):
        lo, hi = sorted((a1, a2))
        method_lo, _, _ = decide(si_fs, si_fe, lo)
        method_hi, _, _ = decide(si_fs, si_fe, hi)
        if method_lo == SELECTION:
            assert method_hi == SELECTION


class TestBestSilhouetteOverK:
    def test_three_blobs_found(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [8.0, 8.0], [0.0, 8.0]])
        data = np.vstack([c + rng.normal(scale=0.3, size=(10, 2)) for c in centers])
        fit = best_silhouette_over_k(data, DecisionConfig(k_min=2, k_max=6, seed=1, restarts=5))
        assert fit.k == 3
        assert fit.mean_silhouette > 0.8

    def test_single_candidate(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(size=(20, 2))
        config = DecisionConfig(k_min=4, k_max=4, seed=2, restarts=2)
        assert best_silhouette_over_k(data, config).k == 4

    def test_returns_the_winning_fit(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(40, 3))
        fit = best_silhouette_over_k(data, DecisionConfig(k_min=2, k_max=5, seed=3, restarts=4))
        fits = kmeans_fits(data, range(2, 6), [3] * 4, restarts=4)
        assert fit.mean_silhouette == max(f.mean_silhouette for f in fits)
        refit = kmeans_fit(data, fit.k, seed=3, restarts=4)
        np.testing.assert_array_equal(fit.labels, refit.labels)
        np.testing.assert_array_equal(fit.centroids, refit.centroids)
        assert fit.inertia == refit.inertia
        np.testing.assert_array_equal(fit.sample_silhouettes, refit.sample_silhouettes)

    def test_ties_go_to_the_smallest_k(self, monkeypatch):
        def equal_silhouettes(*args, **kwargs):
            return [dataclasses.replace(fit, mean_silhouette=0.5)
                    for fit in kmeans_fits(*args, **kwargs)]

        monkeypatch.setattr(decision, "kmeans_fits", equal_silhouettes)
        data = np.random.default_rng(5).uniform(size=(30, 2))
        config = DecisionConfig(k_min=3, k_max=6, seed=4, restarts=2)
        assert best_silhouette_over_k(data, config).k == 3


class TestRunDecision:
    def test_two_feature_full_width(self):
        rng = np.random.default_rng(3)
        data = make_dataset(rng.uniform(size=(16, 2)))
        config = config_for(0.5, target=1.0, k_min=2, k_max=3, restarts=2, seed=5)
        report = run_decision_detailed(data, config).report
        assert report.n_selected == 2
        assert report.achieved_resolution >= config.target_resolution - 1e-9
        assert report.interpretability_score == \
            config.interpretability * report.best_si_fs
        assert report.integrity_score == \
            (1.0 - config.interpretability) * report.best_si_fe
        expected = SELECTION if report.interpretability_score >= report.integrity_score \
            else EXTRACTION
        assert report.chosen_method == expected
        assert config.k_min <= report.best_k <= config.k_max

    def test_outcome_carries_consistent_artifacts(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng.uniform(size=(20, 3)))
        config = config_for(0.9, target=0.6, k_min=2, k_max=3, restarts=2, seed=7)
        outcome = run_decision_detailed(data, config)
        report = outcome.report
        chosen = outcome.chosen
        assert chosen.reduced_values.shape == (20, report.n_selected)
        assert len(chosen.axis_labels) == report.n_selected
        assert chosen.clustering.k == report.best_k
        if report.chosen_method == SELECTION:
            assert set(chosen.axis_labels) <= set(data.feature_names)
            assert chosen.clustering.mean_silhouette == pytest.approx(
                report.best_si_fs, abs=1e-12)
        else:
            assert all(label.startswith("PC") for label in chosen.axis_labels)
            assert chosen.clustering.mean_silhouette == pytest.approx(
                report.best_si_fe, abs=1e-12)

    def test_one_fit_per_branch_and_k(self, fake_pools, monkeypatch):
        fit_calls = []

        def counting_fits(*args, **kwargs):
            fit_calls.extend(args[1])
            return kmeans_fits(*args, **kwargs)

        monkeypatch.setattr(decision, "kmeans_fits", counting_fits)
        rng = np.random.default_rng(6)
        data = make_dataset(rng.uniform(size=(24, 3)))
        config = config_for(0.5, target=0.7, k_min=2, k_max=4, restarts=2, seed=3)
        serial = run_decision_detailed(data, config)
        assert sorted(fit_calls) == [2, 2, 3, 3, 4, 4]
        assert fake_pools == []
        fit_calls.clear()
        pooled = run_decision_detailed(data, config, max_workers=2)
        assert sorted(fit_calls) == [2, 2, 3, 3, 4, 4]
        pool, = fake_pools  # the sweep's pool, whose chunks fitted both branches
        assert pool.items(frsd._score_subset)
        assert len(pool.items(decision.best_silhouette_over_k)) == 2
        assert pooled.report.to_json_dict() == serial.report.to_json_dict()

    @pytest.mark.parametrize("names", [[0, 1, 2], [1, "a", "b"]])
    def test_non_string_names_decide_like_their_strings(self, names):
        values = np.random.default_rng(8).uniform(size=(20, 3))
        config = DecisionConfig(k_min=2, k_max=3, restarts=2)
        data = Dataset(names, values)
        assert data.feature_names == tuple(str(name) for name in names)
        strings = Dataset([str(name) for name in names], values)
        assert run_decision_detailed(data, config).report.to_json_dict() == \
            run_decision_detailed(strings, config).report.to_json_dict()

    def test_report_json_roundtrip(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng.uniform(size=(14, 2)))
        config = config_for(0.3, target=0.9, k_min=2, k_max=2, restarts=1, seed=2)
        report = run_decision_detailed(data, config).report
        doc = json.loads(json.dumps(report.to_json_dict()))
        parsed = DecisionReport.from_json_dict(doc)
        assert parsed.chosen_method == report.chosen_method
        assert parsed.best_k == report.best_k
        assert parsed.frsd_weights.entries == report.frsd_weights.entries
        assert parsed.achieved_resolution == report.achieved_resolution

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError, match="^unknown method 'CLUSTERING'$"):
            DecisionReport(
                frsd_weights=REFERENCE_SELECTION_WEIGHTS,
                pca_weights=REFERENCE_EXTRACTION_WEIGHTS,
                best_si_fs=0.5, best_si_fe=0.5,
                interpretability_score=0.25, integrity_score=0.25,
                chosen_method="CLUSTERING", n_selected=4,
                achieved_resolution=0.9, best_k=3,
            )

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ParameterError, match="contradicts"):
            DecisionReport(
                frsd_weights=REFERENCE_SELECTION_WEIGHTS,
                pca_weights=REFERENCE_EXTRACTION_WEIGHTS,
                best_si_fs=0.5, best_si_fe=0.5,
                interpretability_score=0.1, integrity_score=0.4,
                chosen_method=SELECTION, n_selected=4,
                achieved_resolution=0.9, best_k=3,
            )


class TestRank:
    """``rank`` opens the one pool, on ``worker_pool``'s rule, and fits the
    sweep and the branches of its target resolutions on it."""

    DATA = make_dataset(np.random.default_rng(9).uniform(size=(24, 3)))
    WORK = 24 * 4 * 2 * 2  # rows x subsets x k values x restarts of the sweep below

    @staticmethod
    def _rank(max_workers, targets):
        config = DecisionConfig(k_min=2, k_max=3, seed=4, restarts=2)
        return decision.rank(TestRank.DATA, config, max_workers=max_workers, targets=targets)

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        calls = []

        def counting_fits(*args, **kwargs):
            calls.append(args[0].shape)
            return kmeans_fits(*args, **kwargs)

        monkeypatch.setattr(decision, "kmeans_fits", counting_fits)
        return calls

    def test_one_pool_runs_the_sweep_and_each_width_once(self, fake_pools, fit_calls,
                                                         monkeypatch):
        monkeypatch.setattr(frsd, "_POOL_MIN_WORK", self.WORK)  # at the threshold: pooled
        targets = (0.5, 0.85, 0.5)
        rankings = self._rank(2, targets)
        pool, = fake_pools
        assert pool._max_workers == 2
        assert pool.items(frsd._score_subset) == list(frsd.subsets(range(3)))
        branches = list({id(b): b for pair in rankings.branches(targets) for b in pair}.values())
        assert [id(v) for v in pool.items(decision.best_silhouette_over_k)] == \
            [id(b.reduced_values) for b in branches]
        assert fit_calls == [b.reduced_values.shape for b in branches]
        for target, pair in zip(targets, rankings.branches(targets)):
            for branch, weights in zip(pair, (rankings.frsd_weights, rankings.pca_weights)):
                m, achieved = select_for_resolution(weights, target)
                assert (branch.axis_labels, branch.resolution) == (weights.names[:m], achieved)
        del fit_calls[:]
        for target in targets:
            outcome = decision.evaluate(rankings, 0.5, target)
            assert outcome.report.achieved_resolution == outcome.chosen.resolution
        assert fit_calls == []

    def test_no_pool_below_the_threshold_or_on_one_worker(self, fake_pools, fit_calls,
                                                          monkeypatch):
        for max_workers, min_work in ((2, self.WORK + 1), (1, 0)):
            monkeypatch.setattr(frsd, "_POOL_MIN_WORK", min_work)
            del fit_calls[:]
            rankings = self._rank(max_workers, (0.85,))
            assert fake_pools == [], max_workers
            assert len(fit_calls) == 2, max_workers  # both branches, in-process
            decision.evaluate(rankings, 0.5, 0.85)
            assert len(fit_calls) == 2, max_workers

    @pytest.mark.parametrize("target", [1.5, 0.0, float("nan"), "x", True])
    def test_bad_target_rejected_before_the_sweep(self, monkeypatch, target):
        monkeypatch.setattr(decision, "frsd_rank", lambda *args, **kwargs: pytest.fail("swept"))
        with pytest.raises(ParameterError, match=r"^target_resolution must be in \(0, 1\]$"):
            self._rank(1, (0.85, target))

    @pytest.mark.parametrize("max_workers, message", [
        (0, "must be at least 1"), (-1, "must be at least 1"), (True, "must be an integer"),
        (2.5, "must be an integer"), ("2", "must be an integer"),
    ])
    def test_bad_max_workers_rejected_before_the_pair_scan(self, fake_pools, monkeypatch,
                                                           max_workers, message):
        monkeypatch.setattr(frsd, "require_distinct", lambda *args: pytest.fail("scanned"))
        config = DecisionConfig(k_min=2, k_max=3, seed=4, restarts=2)
        for call in (lambda: self._rank(max_workers, (0.85,)),
                     lambda: decision.run_decision_detailed(self.DATA, config, max_workers)):
            with pytest.raises(ParameterError, match=f"^max_workers {message}$"):
                call()
        assert fake_pools == []  # no pool opened, so no worker started

    def test_evaluate_fits_another_targets_branches_in_process_once(self, fake_pools,
                                                                    fit_calls):
        rankings = self._rank(2, (1.0,))
        pool, = fake_pools
        submitted = pool.submitted
        del fit_calls[:]
        decision.evaluate(rankings, 0.9, 0.2)
        assert fit_calls == [(24, 1), (24, 1)]  # the top feature and PC1
        assert (fake_pools, pool.submitted) == ([pool], submitted)
        decision.evaluate(rankings, 0.1, 0.2)  # the same widths: no fit
        assert len(fit_calls) == 2


class TestRowScaling:
    def test_memory_grows_a_few_hundred_bytes_a_row(self):
        def peak(n_rows):
            data = make_dataset(np.random.default_rng(n_rows).uniform(size=(n_rows, 3)))
            tracemalloc.start()
            try:
                decision.rank(data, DecisionConfig(k_min=3, k_max=3, seed=42, restarts=2),
                              max_workers=1, targets=(0.85,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # about 150 B a row from 2000 to 4000 rows; a dense n x n silhouette
        # matrix would add about 48 KB a row
        assert (peak(4000) - peak(2000)) / 2000 < 512


class TestEvaluate:
    def test_bad_preferences_rejected_before_any_fit(self, monkeypatch):
        data = make_dataset(np.random.default_rng(8).uniform(size=(16, 3)))
        rankings = decision.rank(data, DecisionConfig(k_min=2, k_max=3, seed=1, restarts=1))
        monkeypatch.setattr(decision, "kmeans_fits",
                            lambda *args, **kwargs: pytest.fail("fitted"))
        with pytest.raises(ParameterError, match="must be in"):
            decision.evaluate(rankings, 1.5, 0.85)
