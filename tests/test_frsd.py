"""Subset enumeration, silhouette decomposition and weight normalization."""

import json
import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimred import (DecisionConfig, FeatureWeights, ParameterError, cli, frsd, kmeans_fits,
                    rank, run_decision_detailed, write_subset_scores)
from dimred.dataset import minmax_normalize
from dimred.frsd import frsd_rank, task_seed
from dimred.kmeans import kmeans_fit
from helpers import (make_blobs_with_noise, make_dataset, outputs_by_name, powerset_subsets,
                     write_dataset_csv)


def pooled_rank(data, config, max_workers):
    """``frsd_rank`` on the pool a command with ``max_workers`` opens for it."""
    with frsd.worker_pool(data, config, max_workers) as pool:
        return frsd_rank(data, config, pool)


class TestEnumerateSubsets:
    def test_two_features(self):
        assert list(frsd.subsets(range(2))) == [(0, 1)]

    def test_three_features(self):
        assert list(frsd.subsets(range(3))) == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def test_eight_features_count(self):
        assert len(list(frsd.subsets(range(8)))) == 247  # 2^8 - 8 - 1

    @given(st.integers(2, 10))
    def test_matches_powerset_oracle(self, n):
        subsets = list(frsd.subsets(range(n)))
        assert len(subsets) == 2**n - n - 1
        assert set(subsets) == powerset_subsets(n)
        assert len(set(subsets)) == len(subsets)

    def test_ordered_by_size_then_lexicographic(self):
        subsets = list(frsd.subsets(range(4)))
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
            FeatureWeights(entries=(("a", 0.6), ("b", 0.5)))

    def test_constructor_enforces_descending(self):
        with pytest.raises(ParameterError, match="descending"):
            FeatureWeights(entries=(("a", 0.4), ("b", 0.6)))

    @pytest.mark.parametrize("entries, message", [
        ((), "weights are empty"),
        ((("a", 0.5), ("a", 0.5)), "duplicate names in weights"),
    ])
    def test_constructor_rejects(self, entries, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            FeatureWeights(entries=entries)

    def test_from_scores_needs_one_score_per_name(self):
        with pytest.raises(ParameterError, match="^one score per name required$"):
            FeatureWeights.from_scores(["a", "b"], [1.0, 2.0, 3.0], source="FRSD")


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
        weights, scores = frsd_rank(data, DecisionConfig(k_min=2, k_max=3, seed=1, restarts=2))
        assert weights.weights[0] == 0.5
        assert weights.weights[1] == 0.5
        assert scores.shape == (1, 2)  # one subset, two k values

    def test_score_table_cardinality(self):
        rng = np.random.default_rng(1)
        data = minmax_normalize(make_dataset(rng.uniform(size=(20, 4))))
        weights, scores = frsd_rank(data, DecisionConfig(k_min=2, k_max=4, seed=3, restarts=2))
        assert scores.shape == (2**4 - 4 - 1, 3)  # k 2..4
        assert scores.dtype == np.float64 and np.isfinite(scores).all()  # every run stored

    def test_reconstruction_from_score_table(self):
        rng = np.random.default_rng(2)
        data = minmax_normalize(make_dataset(rng.uniform(size=(18, 3))))
        weights, scores = frsd_rank(data, DecisionConfig(k_min=2, k_max=4, seed=9, restarts=2))
        raw = np.zeros(3)
        for subset, row in zip(frsd.subsets(range(3)), scores):
            for si in row:
                for feature in subset:
                    raw[feature] += si
        expected = raw / raw.sum()
        got = dict(weights.entries)
        for j, name in enumerate(data.feature_names):
            assert got[name] == expected[j]

    def test_column_permutation_equivariance(self, tmp_path):
        # every file `run` writes, byte for byte, in any column order; the score
        # table numbers subsets by input position, so it is compared by name
        names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        methods = set()
        for n in range(3, 8):
            rng = np.random.default_rng(n)
            values = rng.uniform(size=(24, n))
            outputs = []
            for trial in range(7):  # the table as drawn, then 6 permutations
                perm = rng.permutation(n) if trial else np.arange(n)
                data = make_dataset(values[:, perm], [names[i] for i in perm])
                csv_path, out = tmp_path / "in.csv", tmp_path / f"out{n}_{trial}"
                write_dataset_csv(data, csv_path)
                assert cli.main(["run", "--input", str(csv_path), "--out", str(out),
                                 "--subset-scores", "--interpretability", "0.9" if n % 2 else "0.1",
                                 "--k-min", "2", "--k-max", "3", "--restarts", "1",
                                 "--threads", "1"]) == 0
                outputs.append(outputs_by_name(out, data.feature_names))
            assert all(output == outputs[0] for output in outputs[1:]), n
            methods.add(json.loads(outputs[0]["report.json"])["chosen_method"])
        assert methods == {"SELECTION", "EXTRACTION"}  # both branches' figures compared

    def test_tied_weights_rank_in_name_order(self):
        # two features always tie at 0.5; a resolution of 0.5 keeps the first
        rng = np.random.default_rng(0)
        values = np.column_stack([rng.choice([0.0, 0.5, 1.0], 40) + rng.normal(0, 0.05, 40),
                                  rng.uniform(size=40)])
        config = DecisionConfig(interpretability=0.9, target_resolution=0.5, k_min=2, k_max=3,
                                seed=0, restarts=2)
        forward = run_decision_detailed(make_dataset(values, ["a", "b"]), config).report
        reversed_ = run_decision_detailed(make_dataset(values[:, ::-1], ["b", "a"]),
                                          config).report
        assert forward.frsd_weights.entries == reversed_.frsd_weights.entries
        assert forward.frsd_weights.names == ("a", "b")
        assert forward.best_si_fs == reversed_.best_si_fs

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(frsd, "_POOL_MIN_WORK", 0)  # a sweep this small runs in-process
        monkeypatch.setattr(frsd, "usable_cpus", lambda: 2)  # 2 workers on any machine
        data = minmax_normalize(make_blobs_with_noise(seed=10, n_samples=30))
        config = DecisionConfig(k_min=2, k_max=3, seed=5, restarts=2)
        serial_w, serial_s = pooled_rank(data, config, 1)
        pooled_w, pooled_s = pooled_rank(data, config, 2)
        assert serial_w.entries == pooled_w.entries
        assert serial_s.tobytes() == pooled_s.tobytes()
        for weights, scores in ((serial_w, serial_s), (pooled_w, pooled_s)):
            assert frsd.weights(scores, data.feature_names).entries == weights.entries

    def test_small_sweeps_run_in_process(self, monkeypatch):
        data = minmax_normalize(make_blobs_with_noise(seed=10, n_samples=30))
        work = 30 * 26 * 2 * 2  # rows x subsets x k values x restarts
        pools = []

        def counting_pool(workers):
            pools.append(workers)
            return ProcessPoolExecutor(max_workers=workers)

        monkeypatch.setattr(frsd, "_process_pool", counting_pool)
        monkeypatch.setattr(frsd, "_POOL_MIN_WORK", work + 1)
        monkeypatch.setattr(frsd, "usable_cpus", lambda: 2)  # 2 workers on any machine
        config = DecisionConfig(k_min=2, k_max=3, seed=5, restarts=2)
        serial = pooled_rank(data, config, 2)
        assert pools == []
        monkeypatch.setattr(frsd, "_POOL_MIN_WORK", work)
        pooled = pooled_rank(data, config, 2)
        assert pools == [2]
        assert serial[0].entries == pooled[0].entries
        assert serial[1].tobytes() == pooled[1].tobytes()

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_threshold_follows_the_start_method(self, fake_pools, monkeypatch, method):
        monkeypatch.setattr(frsd, "_POOL_MIN_WORK", 50_000)
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: method)
        config = DecisionConfig(k_min=3, k_max=6, seed=0, restarts=10)
        # 346 rows x 4 subsets x 4 k values x 10 restarts = 55 360: a fork pool pays
        # off, a pool of freshly started workers does not
        with frsd.worker_pool(make_dataset(np.zeros((346, 3))), config, 2) as pool:
            assert (pool is not None) == (method == "fork")
        # 960 x 26 x 4 x 10 = 998 400, above the threshold of every start method
        with frsd.worker_pool(make_dataset(np.zeros((960, 5))), config, 2) as pool:
            assert pool is fake_pools[-1] and pool._max_workers == 2

    def test_never_more_workers_than_subsets(self, fake_pools):
        rng = np.random.default_rng(6)
        three = minmax_normalize(make_dataset(rng.uniform(size=(20, 3))))
        config = DecisionConfig(k_min=2, k_max=3, seed=2, restarts=2)
        serial = pooled_rank(three, config, 1)
        pooled = pooled_rank(three, config, 16)
        assert [pool._max_workers for pool in fake_pools] == [4]  # 3 features form 4 subsets
        assert serial[0].entries == pooled[0].entries
        assert serial[1].tobytes() == pooled[1].tobytes()
        two = minmax_normalize(make_dataset(rng.uniform(size=(20, 2))))
        pooled_rank(two, config, 2)
        assert len(fake_pools) == 1  # a single subset runs in-process

    def test_never_more_workers_than_usable_cpus(self, fake_pools, monkeypatch):
        monkeypatch.setattr(frsd, "usable_cpus", lambda: 2)
        ten = make_dataset(np.random.default_rng(7).uniform(size=(20, 10)))
        config = DecisionConfig(k_min=2, k_max=2, seed=0, restarts=1)
        with frsd.worker_pool(ten, config, 1000) as pool:
            assert fake_pools == [pool] and pool._max_workers == 2  # not min(1000, 1013 subsets)
        monkeypatch.setattr(frsd, "usable_cpus", lambda: 1)
        with frsd.worker_pool(ten, config, 1000) as pool:
            assert pool is None and len(fake_pools) == 1  # one CPU runs in-process

    def test_infeasible_pair_rejected_before_any_pool(self, fake_pools):
        rng = np.random.default_rng(0)
        data = minmax_normalize(make_dataset(np.column_stack(
            [rng.uniform(size=40), rng.integers(0, 2, 40), rng.integers(0, 2, 40)])))
        # features 2 and 3 are binary: 4 distinct rows, so k=5 is the first that fails
        with pytest.raises(ParameterError,
                           match="fewer than k=5 distinct points in features 'f2' and 'f3'"):
            pooled_rank(data, DecisionConfig(k_min=3, k_max=6, seed=0, restarts=2), 2)
        assert len(fake_pools) == 1 and fake_pools[0].submitted == 0
        with pytest.raises(ParameterError, match="fewer than k=5 distinct points"):
            kmeans_fits(data.values[:, [1, 2]], [3, 4, 5, 6], [0] * 4)

    def test_too_wide_table_rejected_before_any_pool(self, fake_pools, monkeypatch):
        pair_checks = []
        monkeypatch.setattr(frsd, "require_distinct", lambda *args: pair_checks.append(args))
        # 2^70 - 71 subsets: the score table exceeds numpy's largest dimension
        data = minmax_normalize(make_dataset(np.random.default_rng(0).uniform(size=(75, 70))))
        with pytest.raises(ParameterError, match=rf"^70 features give {2**70 - 71} subsets "
                                                 r"x 1 k values: too many to score$"):
            pooled_rank(data, DecisionConfig(k_min=2, k_max=2, seed=0, restarts=1), 2)
        assert len(fake_pools) == 1 and fake_pools[0].submitted == 0
        assert pair_checks == []  # none of the 2415 feature pairs scanned first

    @staticmethod
    def _stubbed_pooled_sweep(n_features, fake_pools, monkeypatch):
        """The pool of a 40-row, ``n_features``-wide sweep on 2 workers whose fits
        are stubbed, once its scores and weights match the in-process sweep's."""
        # a fit per (subset, k) stubbed to a score of its seed, so every run differs
        monkeypatch.setattr(frsd, "kmeans_fits", lambda values, ks, seeds, restarts: [
            SimpleNamespace(mean_silhouette=seed % 1000 / 1000) for seed in seeds])
        data = make_dataset(np.random.default_rng(0).uniform(size=(40, n_features)))
        config = DecisionConfig(k_min=3, k_max=4, seed=0, restarts=1)
        serial_w, serial_s = frsd_rank(data, config)
        pooled_w, pooled_s = pooled_rank(data, config, 2)
        assert pooled_s.tobytes() == serial_s.tobytes()
        assert pooled_w.entries == serial_w.entries
        pool, = fake_pools
        assert pool.taken == pool.submitted
        return pool

    def test_pooled_sweep_keeps_a_bounded_window_of_chunks(self, fake_pools, monkeypatch):
        pool = self._stubbed_pooled_sweep(12, fake_pools, monkeypatch)
        assert pool.submitted == 65  # 4083 subsets in chunks of isqrt(4083) = 63
        assert pool.most_in_flight == 4  # 2 chunks a worker

    def test_window_is_bounded_in_subsets(self, fake_pools, monkeypatch):
        pool = self._stubbed_pooled_sweep(14, fake_pools, monkeypatch)
        # 16 369 subsets in chunks of isqrt(16369) = 127, not 16369 // 16 = 1023
        assert [len(chunk) for _, chunk in pool.tasks] == [127] * 128 + [113]
        assert pool.most_in_flight <= 4  # so at most 4 * 127 subsets in flight

    def test_one_batch_per_subset_with_a_seed_per_k(self, monkeypatch):
        data = minmax_normalize(make_dataset(np.random.default_rng(3).uniform(size=(24, 8))))
        calls = []

        def counting_fits(values, ks, seeds, *args):
            calls.append((values.shape[1], tuple(ks), tuple(seeds)))
            return kmeans_fits(values, ks, seeds, *args)

        monkeypatch.setattr(frsd, "kmeans_fits", counting_fits)
        _, scores = frsd_rank(data, DecisionConfig(k_min=2, k_max=3, seed=4, restarts=1))
        subsets = list(frsd.subsets(range(8)))
        assert len(calls) == len(subsets) == 247
        for (width, ks, seeds), subset in zip(calls, subsets):
            names = [data.feature_names[i] for i in subset]
            assert width == len(subset) and ks == (2, 3)
            assert seeds == tuple(task_seed(4, names, k) for k in ks)
        # each score is the one a separate fit of its (subset, k) gives
        for run in range(0, scores.size, 7):  # row-major: two k values a subset
            subset, k = subsets[run // 2], 2 + run % 2
            seed = task_seed(4, [data.feature_names[i] for i in subset], k)
            fit = kmeans_fit(data.values[:, subset], k, seed, restarts=1)
            assert scores.flat[run] == fit.mean_silhouette

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(), min_size=2, max_size=6, unique=True))
    @example(["", " ", "\t", "b", "B"])
    @example(["\u00e9", "e\u0301", "z", "\U0001f600", ""])
    def test_tasks_run_in_the_name_order_of_a_sorted_aggregation(self, names):
        tasks = []

        def recording_score(values, names, config, ks, cols):
            tasks.append(tuple(names[i] for i in cols))
            return [0.5] * len(ks)

        data = make_dataset(np.random.default_rng(0).uniform(size=(8, len(names))), names)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frsd, "_score_subset", recording_score)
            rank(data, DecisionConfig(k_min=2, k_max=3, seed=0, restarts=1))
        # reference: a sort of every run by (size, sorted subset names, k)
        subsets = frsd.subsets(range(len(names)))
        keyed = sorted((len(n), n, k) for n in
                       (tuple(sorted(names[i] for i in s)) for s in subsets) for k in (2, 3))
        assert [(len(c), c, k) for c in tasks for k in (2, 3)] == keyed

    def test_sweep_holds_a_few_bytes_a_run(self, monkeypatch):
        fits = [SimpleNamespace(mean_silhouette=0.25)] * 8
        monkeypatch.setattr(frsd, "kmeans_fits", lambda *args: fits)
        data = make_dataset(np.random.default_rng(0).uniform(size=(40, 12)))
        tracemalloc.start()
        try:
            frsd_rank(data, DecisionConfig(k_min=3, k_max=10, seed=0, restarts=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the score array holds 8 bytes a run; the rest is a task at a time
        assert peak / ((2**12 - 12 - 1) * 8) <= 32

    def test_informative_features_outrank_noise(self):
        data = minmax_normalize(make_blobs_with_noise(seed=42))
        weights, _ = frsd_rank(data, DecisionConfig(k_min=2, k_max=4, seed=0, restarts=3))
        ranked = dict(weights.entries)
        worst_informative = min(ranked[f"inf{i}"] for i in (1, 2, 3))
        best_noise = max(ranked[f"noise{i}"] for i in (1, 2))
        assert worst_informative > best_noise

    def test_k_range_validation(self, fake_pools):
        data = minmax_normalize(make_dataset(np.random.default_rng(0).uniform(size=(10, 3))))
        config = DecisionConfig(k_min=2, k_max=11, seed=0, restarts=1)
        for call in (lambda: frsd_rank(data, config), lambda: pooled_rank(data, config, 2)):
            with pytest.raises(ParameterError, match="^k_max=11 exceeds 10 samples$"):
                call()
        assert fake_pools == []  # rejected before the pool opened

    def test_subset_scores_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        data = minmax_normalize(make_dataset(rng.uniform(size=(12, 3))))
        _, scores = frsd_rank(data, DecisionConfig(k_min=2, k_max=2, seed=1, restarts=1))
        path = tmp_path / "scores.csv"
        write_subset_scores(scores, (0, 1, 2), 2, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "subset,k,si"
        assert len(lines) == scores.size + 1
        # subsets rendered as 1-based positions, quoted because of the comma
        assert lines[1].startswith('"1,2"')
        # a ranked table whose columns are input columns 3, 1 and 2: each row
        # keeps its place and names its subset by ascending input positions
        write_subset_scores(scores, (2, 0, 1), 2, path)
        assert [line.split('",')[0] for line in path.read_text().splitlines()[1:]] == [
            '"1,3', '"2,3', '"1,2', '"1,2,3']
