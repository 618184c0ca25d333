"""Subset enumeration, silhouette decomposition and weight normalization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimred import (FeatureWeights, ParameterError, enumerate_subsets, frsd, frsd_rank,
                    kmeans_fit, kmeans_fits, minmax_normalize, write_subset_scores)
from dimred.frsd import task_seed
from helpers import make_blobs_with_noise, make_dataset, powerset_subsets


class TestEnumerateSubsets:
    def test_two_features(self):
        assert enumerate_subsets(2) == [(0, 1)]

    def test_three_features(self):
        assert enumerate_subsets(3) == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def test_eight_features_count(self):
        assert len(enumerate_subsets(8)) == 247  # 2^8 - 8 - 1

    def test_rejects_below_two(self):
        with pytest.raises(ParameterError):
            enumerate_subsets(1)

    @given(st.integers(2, 10))
    def test_matches_powerset_oracle(self, n):
        subsets = enumerate_subsets(n)
        assert len(subsets) == 2**n - n - 1
        assert set(subsets) == powerset_subsets(n)
        assert len(set(subsets)) == len(subsets)

    def test_ordered_by_size_then_lexicographic(self):
        subsets = enumerate_subsets(4)
        keys = [(len(s), s) for s in subsets]
        assert keys == sorted(keys)


class TestFeatureWeights:
    def test_from_scores_normalizes_and_sorts(self):
        w = FeatureWeights.from_scores(["a", "b", "c"], [1.0, 3.0, 2.0], source="FRSD")
        assert w.names == ("b", "c", "a")
        np.testing.assert_allclose(w.weights, [0.5, 1 / 3, 1 / 6])
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_rejected(self):
        with pytest.raises(ParameterError, match="zero"):
            FeatureWeights.from_scores(["a", "b"], [1.0, -1.0], source="FRSD")

    def test_negative_aggregate_warns(self):
        with pytest.warns(UserWarning, match="negative"):
            FeatureWeights.from_scores(["a", "b"], [-0.5, 2.5], source="FRSD")

    def test_constructor_enforces_sum(self):
        with pytest.raises(ParameterError, match="sum"):
            FeatureWeights(entries=(("a", 0.6), ("b", 0.5)), source="FRSD")

    def test_constructor_enforces_descending(self):
        with pytest.raises(ParameterError, match="descending"):
            FeatureWeights(entries=(("a", 0.4), ("b", 0.6)), source="FRSD")

    def test_minmax_view(self):
        w = FeatureWeights.from_scores(["a", "b", "c"], [4.0, 3.0, 1.0], source="FRSD")
        view = dict(w.minmax_view())
        assert view["a"] == pytest.approx(1.0)
        assert view["c"] == pytest.approx(0.0)


class TestTaskSeed:
    def test_depends_on_names_not_positions(self):
        assert task_seed(7, ["x", "y"], 3) == task_seed(7, ["y", "x"], 3)

    def test_distinguishes_seed_names_k(self):
        base = task_seed(7, ["x", "y"], 3)
        assert task_seed(8, ["x", "y"], 3) != base
        assert task_seed(7, ["x", "z"], 3) != base
        assert task_seed(7, ["x", "y"], 4) != base


class TestFrsdRank:
    def test_two_features_split_evenly(self):
        rng = np.random.default_rng(0)
        data = minmax_normalize(make_dataset(rng.uniform(size=(16, 2))))
        weights, scores = frsd_rank(data, 2, 3, seed=1, restarts=2)
        assert weights.weights[0] == 0.5
        assert weights.weights[1] == 0.5
        assert len(scores) == 2  # one subset, two k values

    def test_score_table_cardinality(self):
        rng = np.random.default_rng(1)
        data = minmax_normalize(make_dataset(rng.uniform(size=(20, 4))))
        k_min, k_max = 2, 4
        weights, scores = frsd_rank(data, k_min, k_max, seed=3, restarts=2)
        assert len(scores) == (2**4 - 4 - 1) * (k_max - k_min + 1)
        subsets_seen = {(s.subset, s.k) for s in scores}
        assert len(subsets_seen) == len(scores)

    def test_reconstruction_from_score_table(self):
        rng = np.random.default_rng(2)
        data = minmax_normalize(make_dataset(rng.uniform(size=(18, 3))))
        weights, scores = frsd_rank(data, 2, 4, seed=9, restarts=2)
        raw = np.zeros(3)
        for score in scores:
            for feature in score.subset:
                raw[feature] += score.si
        expected = raw / raw.sum()
        got = dict(weights.entries)
        for j, name in enumerate(data.feature_names):
            assert got[name] == pytest.approx(expected[j], abs=1e-12)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(size=(18, 4))
        names = ["alpha", "beta", "gamma", "delta"]
        data = minmax_normalize(make_dataset(values, names))
        perm = [2, 0, 3, 1]
        permuted = minmax_normalize(
            make_dataset(values[:, perm], [names[i] for i in perm]))
        w1, _ = frsd_rank(data, 2, 3, seed=6, restarts=2)
        w2, _ = frsd_rank(permuted, 2, 3, seed=6, restarts=2)
        # identical weights per feature name, bit for bit
        assert dict(w1.entries) == dict(w2.entries)

    def test_worker_count_does_not_change_results(self):
        data = minmax_normalize(make_blobs_with_noise(seed=10, n_samples=30))
        serial_w, serial_s = frsd_rank(data, 2, 3, seed=5, restarts=2, max_workers=1)
        pooled_w, pooled_s = frsd_rank(data, 2, 3, seed=5, restarts=2, max_workers=2)
        assert serial_w.entries == pooled_w.entries
        assert serial_s == pooled_s

    def test_one_batch_per_subset_with_a_seed_per_k(self, monkeypatch):
        data = minmax_normalize(make_dataset(np.random.default_rng(3).uniform(size=(24, 8))))
        calls = []

        def counting_fits(values, ks, seeds, *args):
            calls.append((values.shape[1], tuple(ks), tuple(seeds)))
            return kmeans_fits(values, ks, seeds, *args)

        monkeypatch.setattr(frsd, "kmeans_fits", counting_fits)
        _, scores = frsd_rank(data, 2, 3, seed=4, restarts=1)
        subsets = enumerate_subsets(8)
        assert len(calls) == len(subsets) == 247
        for (width, ks, seeds), subset in zip(calls, subsets):
            names = [data.feature_names[i] for i in subset]
            assert width == len(subset) and ks == (2, 3)
            assert seeds == tuple(task_seed(4, names, k) for k in ks)
        # each score is the one a separate fit of its (subset, k) gives
        for score in scores[::7]:
            cols = sorted(score.subset, key=lambda i: data.feature_names[i])
            seed = task_seed(4, [data.feature_names[i] for i in cols], score.k)
            fit = kmeans_fit(data.values[:, cols], score.k, seed, restarts=1)
            assert score.si == fit.mean_silhouette

    def test_informative_features_outrank_noise(self):
        data = minmax_normalize(make_blobs_with_noise(seed=42))
        weights, _ = frsd_rank(data, 2, 4, seed=0, restarts=3)
        ranked = dict(weights.entries)
        worst_informative = min(ranked[f"inf{i}"] for i in (1, 2, 3))
        best_noise = max(ranked[f"noise{i}"] for i in (1, 2))
        assert worst_informative > best_noise

    def test_k_range_validation(self):
        data = minmax_normalize(make_dataset(np.random.default_rng(0).uniform(size=(10, 2))))
        with pytest.raises(ParameterError):
            frsd_rank(data, 1, 3, seed=0)
        with pytest.raises(ParameterError):
            frsd_rank(data, 4, 3, seed=0)
        with pytest.raises(ParameterError):
            frsd_rank(data, 2, 11, seed=0)

    def test_subset_scores_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        data = minmax_normalize(make_dataset(rng.uniform(size=(12, 3))))
        _, scores = frsd_rank(data, 2, 2, seed=1, restarts=1)
        path = tmp_path / "scores.csv"
        write_subset_scores(scores, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "subset,k,si"
        assert len(lines) == len(scores) + 1
        # subsets rendered as 1-based positions, quoted because of the comma
        assert lines[1].startswith('"1,2"')
