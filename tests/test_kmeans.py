"""K-means fits and the silhouette index, checked against brute-force oracles."""

import importlib.machinery
import importlib.util
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from dimred import (MetricUndefinedError, ParameterError, kmeans, kmeans_fit, kmeans_fits,
                    silhouette)
from dimred.kmeans import _BLOCK_BYTES, require_distinct
import helpers
from helpers import brute_silhouette, exhaustive_best_inertia, per_restart_kmeans, pp_init

TWO_BLOBS_1D = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])


class TestKmeansFit:
    @pytest.mark.parametrize("data, restarts, message", [
        (np.arange(4.0), 1, "data must be a nonempty 2-D matrix"),
        (np.empty((0, 2)), 1, "data must be a nonempty 2-D matrix"),
        (np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 1.0]]), 1,
         "data contains non-finite entries"),
        (np.arange(6.0).reshape(3, 2), 0, "restarts must be at least 1"),
    ])
    def test_kmeans_fits_rejects_bad_input(self, data, restarts, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            kmeans_fits(data, [2], [0], restarts)

    @pytest.mark.parametrize("k, seed, restarts, message", [
        (2.5, 0, 1, "k must be an integer"),
        (True, 0, 1, "k must be an integer"),
        (3, 1.5, 1, "seed must be an integer"),
        (3, True, 1, "seed must be an integer"),
        (3, 0, 2.0, "restarts must be an integer"),
        (3, 0, True, "restarts must be an integer"),
    ])
    def test_non_integer_k_seed_or_restarts_rejected_before_any_fit(self, monkeypatch, k, seed,
                                                                    restarts, message):
        for name in ("require_distinct", "_best_of_restarts"):
            monkeypatch.setattr(kmeans, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        with pytest.raises(ParameterError, match=f"^{message}$"):
            kmeans_fit(TWO_BLOBS_1D, k, seed, restarts)

    def test_numpy_integer_arguments_pass(self):
        fit = kmeans_fit(TWO_BLOBS_1D, np.int64(2), np.uint64(7), np.int8(10))
        assert fit.inertia == kmeans_fit(TWO_BLOBS_1D, 2, 7, 10).inertia

    def test_exact_fit_k_equals_n(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        fit = kmeans_fit(data, 4, seed=0, restarts=5)
        assert fit.inertia == 0.0
        sorted_centroids = sorted(map(tuple, fit.centroids))
        assert sorted_centroids == sorted(map(tuple, data))
        np.testing.assert_array_equal(fit.sample_silhouettes, 0.0)

    def test_two_blobs_match_enumeration_oracle(self):
        fit = kmeans_fit(TWO_BLOBS_1D, 2, seed=7, restarts=10)
        assert fit.inertia == pytest.approx(0.04, abs=1e-9)
        np.testing.assert_allclose(sorted(fit.centroids[:, 0]), [0.1, 10.1], atol=1e-6)
        oracle = exhaustive_best_inertia(TWO_BLOBS_1D, 2)
        assert fit.inertia == pytest.approx(oracle, abs=1e-9)

    def test_more_restarts_never_worse(self):
        one = kmeans_fit(TWO_BLOBS_1D, 2, seed=3, restarts=1)
        many = kmeans_fit(TWO_BLOBS_1D, 2, seed=3, restarts=20)
        assert many.inertia <= one.inertia

    def test_deterministic_labels(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(size=(40, 3))
        a = kmeans_fit(data, 4, seed=123, restarts=5)
        b = kmeans_fit(data, 4, seed=123, restarts=5)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_fit(np.zeros((3, 2)) + np.arange(3)[:, None], 4, seed=0)

    def test_too_few_distinct_points_rejected(self):
        data = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5)
        with pytest.raises(ParameterError, match="distinct"):
            kmeans_fit(data, 3, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_fit(TWO_BLOBS_1D, 1, seed=0)

    def test_batch_rejects_bad_k_lists(self):
        data = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5 + [[3.0, 3.0]] * 2)
        with pytest.raises(ParameterError, match="fewer than k=5 distinct"):
            kmeans_fits(data, [2, 5, 4], [0, 0, 0])  # the first infeasible k
        with pytest.raises(ParameterError, match="one seed per k"):
            kmeans_fits(data, [2, 3], [0])
        with pytest.raises(ParameterError, match="at least one k"):
            kmeans_fits(data, [], [])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_distinct_count_matches_np_unique(self, draw):
        # rows drawn with repeats from a few, over values with -0.0 next to 0.0
        d = draw.draw(st.integers(1, 5))
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                           st.floats(allow_nan=False, allow_infinity=False, width=64))
        pool = draw.draw(arrays(np.float64, (draw.draw(st.integers(1, 6)), d), elements=values))
        picks = draw.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
        data = pool[picks]
        distinct = np.unique(data, axis=0).shape[0]  # the oracle
        require_distinct(data, [distinct])
        with pytest.raises(ParameterError, match=f"fewer than k={distinct + 1} distinct"):
            require_distinct(data, [distinct + 1])

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_no_empty_clusters_with_heavy_duplicates(self, seed):
        # many coincident points force empty clusters during iteration
        rng = np.random.default_rng(seed)
        base = rng.uniform(size=(6, 2))
        data = base[rng.integers(0, 6, size=30)]
        data[:6] = base  # keep 6 distinct rows
        fit = kmeans_fit(data, 6, seed=seed, restarts=2)
        assert set(fit.labels) == set(range(6))

    @given(st.integers(0, 2**32), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_result_invariants(self, seed, k):
        rng = np.random.default_rng(seed)
        data = rng.uniform(size=(30, 2))
        fit = kmeans_fit(data, k, seed=seed, restarts=3)
        # no empty clusters
        assert set(fit.labels) == set(range(k))
        # inertia identity against the assignment actually returned
        recomputed = ((data - fit.centroids[fit.labels]) ** 2).sum()
        assert fit.inertia == pytest.approx(recomputed, rel=1e-9)
        # mean silhouette identity
        assert fit.mean_silhouette == pytest.approx(
            fit.sample_silhouettes.mean(), abs=1e-12)
        assert np.all(fit.sample_silhouettes >= -1.0)
        assert np.all(fit.sample_silhouettes <= 1.0)


def _table(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(size=(n, d))
    if kind == "blobs":
        return rng.normal(scale=0.4, size=(n, d)) + 3.0 * rng.integers(0, 4, size=(n, 1))
    if kind == "grid":  # many coincident points
        return rng.integers(0, 3, size=(n, d)).astype(float)
    # two binary columns next to continuous ones
    data = rng.uniform(size=(n, d))
    data[:, :2] = rng.integers(0, 2, size=(n, 2))
    return data


def _assert_same_fit(fit, reference):
    labels, centroids, inertia, sample_s = reference
    assert fit.labels.dtype == labels.dtype
    np.testing.assert_array_equal(fit.labels, labels)
    np.testing.assert_array_equal(fit.centroids, centroids)
    assert fit.inertia == inertia
    np.testing.assert_array_equal(fit.sample_silhouettes, sample_s)


class TestRestartsTogether:
    """All restarts of a fit iterate together, with the bits of one at a time."""

    @pytest.mark.parametrize("kind, n, d, k, restarts", [
        ("uniform", 5, 1, 2, 13),
        ("grid", 12, 2, 3, 10),
        ("blobs", 40, 8, 10, 13),
        ("binary", 200, 3, 5, 1),
        ("blobs", 630, 8, 4, 10),
        ("uniform", 630, 1, 6, 10),
        ("binary", 1500, 4, 10, 13),
        ("blobs", 6000, 3, 5, 10),
        ("uniform", 6000, 1, 2, 10),
    ])
    def test_matches_one_restart_at_a_time(self, kind, n, d, k, restarts):
        data = _table(kind, n, d, seed=n + d + k)
        fit = kmeans_fit(data, k, seed=n, restarts=restarts)
        _assert_same_fit(fit, per_restart_kmeans(data, k, seed=n, restarts=restarts))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    @pytest.mark.parametrize("kind, d", [("grid", 2), ("blobs", 1), ("blobs", 5)])
    def test_restarts_leave_at_different_iterations(self, monkeypatch, kind, d, max_iter):
        # some restarts converge and leave while others run to max_iter; with
        # tol=0 no move is small enough, so only a repeated assignment ends one
        # early, and with tol=inf every restart leaves after its first move
        data = _table(kind, 90, d, seed=max_iter)
        monkeypatch.setattr(kmeans, "_MAX_ITER", max_iter)
        for tol in (1e-4, 0.0, np.inf):
            monkeypatch.setattr(kmeans, "_TOL", tol)
            fit = kmeans_fit(data, 4, seed=9, restarts=13)
            _assert_same_fit(fit, per_restart_kmeans(data, 4, seed=9, restarts=13,
                                                     max_iter=max_iter, tol=tol))

    @pytest.mark.parametrize("d", [1, 3])
    def test_repeated_assignment_ends_a_restart(self, monkeypatch, d):
        # with tol=0 the reference makes all 300 moves; the last ones move nothing
        data = _table("blobs", 150, d, seed=d)
        updates = []
        cluster_sums = kmeans._cluster_sums

        def counting_sums(*args):
            updates.append(1)
            return cluster_sums(*args)

        monkeypatch.setattr(kmeans, "_cluster_sums", counting_sums)
        monkeypatch.setattr(kmeans, "_TOL", 0.0)
        fit = kmeans_fit(data, 3, seed=2, restarts=1)
        assert 0 < len(updates) < 50
        _assert_same_fit(fit, per_restart_kmeans(data, 3, seed=2, restarts=1, tol=0.0))

    @pytest.mark.parametrize("d", [1, 3])
    def test_cluster_emptied_during_lloyd(self, monkeypatch, d):
        data = _table("blobs", 120, d, seed=d)
        seed_restarts, seed_one = kmeans._pp_seeds, helpers.pp_init

        def one_centroid_far_away(data, k, rngs):
            seeds = seed_restarts(data, k, rngs)
            seeds[:, -1] = data.max(axis=0) + 100.0
            return seeds

        def one_far_away_alone(data, k, rng):
            centroids = seed_one(data, k, rng)
            centroids[-1] = data.max(axis=0) + 100.0
            return centroids

        refills = []
        fix_empty = kmeans._fix_empty

        def counting_fix_empty(labels, own_d2, counts):
            refills.append(counts.min() == 0)
            return fix_empty(labels, own_d2, counts)

        # the package seeds all restarts at once, the reference one at a time
        monkeypatch.setattr(kmeans, "_pp_seeds", one_centroid_far_away)
        monkeypatch.setattr(helpers, "pp_init", one_far_away_alone)
        monkeypatch.setattr(kmeans, "_fix_empty", counting_fix_empty)
        fit = kmeans_fit(data, 5, seed=4, restarts=10)
        assert any(refills)
        _assert_same_fit(fit, per_restart_kmeans(data, 5, seed=4, restarts=10))

    def test_refill_updates_the_sizes_it_is_given(self):
        # clusters 1, 3 and 4 are empty, so three points move
        rng = np.random.default_rng(5)
        labels = rng.choice([0, 2], size=40)
        own_d2 = rng.uniform(1.0, 2.0, size=40)
        counts = np.bincount(labels, minlength=5)
        before = labels.copy()
        kmeans._fix_empty(labels, own_d2, counts)
        moved = labels != before
        np.testing.assert_array_equal(counts, np.bincount(labels, minlength=counts.size))
        assert counts.min() > 0 and moved.sum() == 3
        assert (own_d2[moved] == 0.0).all()

    @pytest.mark.parametrize("d", [1, 3])
    def test_each_restart_of_a_group_is_its_fit_alone(self, monkeypatch, d):
        # the restarts leave the group at different iterations, so its arrays
        # shrink while others run on, and restart 2 starts with a centroid far
        # from every point, so its first assignment needs a refill
        data = _table("blobs", 120, d, seed=d)
        seeds = kmeans._pp_seeds(data, 5, [np.random.default_rng(r) for r in range(8)])
        seeds[2, -1] = data.max(axis=0) + 100.0
        group = kmeans._lloyd_group(data, seeds)
        moves, refills = [], []  # per restart alone: its moves, and which refilled
        cluster_sums, fix_empty = kmeans._cluster_sums, kmeans._fix_empty

        def counting_sums(*args):
            moves[-1] += 1
            return cluster_sums(*args)

        def counting_fix_empty(labels, own_d2, counts):
            refills.append(len(moves) - 1)
            return fix_empty(labels, own_d2, counts)

        monkeypatch.setattr(kmeans, "_cluster_sums", counting_sums)
        monkeypatch.setattr(kmeans, "_fix_empty", counting_fix_empty)
        for r, (inertia, labels, centroids) in enumerate(group):
            moves.append(0)
            single = kmeans._lloyd_group(data, seeds[r : r + 1])[0]
            assert inertia == single[0]
            for ours, alone in ((labels, single[1]), (centroids, single[2])):
                assert (ours.dtype, ours.shape) == (alone.dtype, alone.shape)
                assert ours.tobytes() == alone.tobytes()
        assert len(set(moves)) > 2
        assert 2 in refills

    @pytest.mark.parametrize("group", [1, 2])
    def test_first_of_equal_inertias_wins(self, monkeypatch, group):
        # restart 1 starts from restart 0's centroids in another order, so it
        # takes the same steps and reaches the same inertia with permuted labels
        n, k = 90, 4
        data = _table("blobs", n, 3, seed=7)
        seed_restarts, seeded = kmeans._pp_seeds, []

        def second_permutes_first(data, k, rngs):
            seeds = seed_restarts(data, k, rngs)
            seeds[1] = seeds[0, ::-1]
            seeded.append(seeds)
            return seeds

        monkeypatch.setattr(kmeans, "_pp_seeds", second_permutes_first)
        monkeypatch.setattr(kmeans, "_BLOCK_BYTES", group * 8 * n * k)
        fit = kmeans_fit(data, k, seed=3, restarts=2)
        first, second = (kmeans._lloyd_group(data, seeded[0][r : r + 1])[0] for r in range(2))
        assert first[0] == second[0]
        assert not np.array_equal(first[1], second[1])
        np.testing.assert_array_equal(fit.labels, first[1])
        np.testing.assert_array_equal(fit.centroids, first[2])
        assert fit.inertia == first[0]

    @pytest.mark.parametrize("kind, n, d, ks, restarts", [
        ("uniform", 5, 1, [2, 3, 5], 13),
        ("grid", 12, 2, [3, 2], 10),
        ("blobs", 40, 8, [10, 2, 6], 3),
        ("binary", 200, 3, [5, 3, 4], 1),
        ("blobs", 630, 8, [3, 4], 10),
        ("uniform", 630, 1, [6, 2, 3, 4], 10),
        ("blobs", 3000, 3, [3, 4, 5], 10),
    ])
    def test_multi_k_batch_matches_one_fit_at_a_time(self, kind, n, d, ks, restarts):
        data = _table(kind, n, d, seed=n + d)
        seeds = [n + k for k in ks]
        fits = kmeans_fits(data, ks, seeds, restarts=restarts)
        assert [fit.k for fit in fits] == ks
        for fit, k, seed in zip(fits, ks, seeds):
            _assert_same_fit(fit, per_restart_kmeans(data, k, seed=seed, restarts=restarts))

    @pytest.mark.parametrize("group", [1, 3])
    def test_restart_groups_match_one_group(self, monkeypatch, group):
        n, k = 300, 4
        data = _table("blobs", n, 3, seed=12)
        whole = kmeans_fit(data, k, seed=6, restarts=10)
        assert kmeans._BLOCK_BYTES // (8 * n * k) >= 10
        monkeypatch.setattr(kmeans, "_BLOCK_BYTES", group * 8 * n * k)
        split = kmeans_fit(data, k, seed=6, restarts=10)
        _assert_same_fit(split, (whole.labels, whole.centroids, whole.inertia,
                                 whole.sample_silhouettes))
        _assert_same_fit(split, per_restart_kmeans(data, k, seed=6, restarts=10))


class TestLloydMemory:
    def test_one_distance_matrix_alive_per_restart_group(self):
        n, d, k, g = 6000, 3, 5, 4
        assert _BLOCK_BYTES // (8 * n * k) == g  # the group a 6000-row fit at k=5 runs
        data = _table("blobs", n, d, seed=n + d + k)
        seeds = kmeans._pp_seeds(data, k, [np.random.default_rng(r) for r in range(g)])
        tracemalloc.start()
        try:
            kmeans._lloyd_group(data, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one distance matrix is 8 * n * g * k bytes, the tiled data 8 * n * g * d,
        # and labels and bins a few 8 * n * g each; a second matrix would not fit
        assert peak < 8 * n * g * (k + d + 6)


@pytest.fixture(params=["loaded", "fallback", ImportError, OSError])
def kernels(request, monkeypatch):
    """(sqeuclidean, euclidean) from the loader, and from its public-cdist
    fallback, taken when the compiled module cannot be found or loading it
    raises ``ImportError`` or ``OSError`` (say, a library it links is missing)."""
    with monkeypatch.context() as patch:
        if request.param == "fallback":
            patch.setattr(importlib.machinery.PathFinder, "find_spec",
                          lambda *args, **kwargs: None)
        elif request.param != "loaded":
            def fail(spec):
                raise request.param(f"cannot load {spec.name}")
            patch.setattr(importlib.util, "module_from_spec", fail)
        found = kmeans._distance_kernels()
    assert (found[1] is cdist) == (request.param != "loaded")
    return found


class TestDistanceKernels:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_bit_equal_to_public_cdist(self, kernels, d):
        sqeuclidean, euclidean = kernels
        x = np.random.default_rng(d).normal(size=(37, d))
        x[5:9] = x[0]  # duplicated rows: exact zeros
        for a, b in ((x, x), (x[:1], x), (x, x[:1]), (x[:1], x[:1]), (x[::3], x[1::2])):
            assert np.array_equal(sqeuclidean(a, b), cdist(a, b, "sqeuclidean"))
            assert np.array_equal(euclidean(a, b), cdist(a, b))

    def test_out_forms_the_kmeans_code_passes(self, kernels):
        sqeuclidean, euclidean = kernels
        rng = np.random.default_rng(5)
        data, centroids = rng.random((50, 3)), rng.random((2 * 4, 3))
        # _silhouettes: the last, short row block in a prefix of the block buffer
        buffer = np.full((8, 50), np.nan)
        block = euclidean(data[45:], data, out=buffer[:5])
        assert np.shares_memory(block, buffer)
        assert np.array_equal(block, cdist(data[45:], data))
        # _lloyd_group: 2 live restarts at k=4 in a prefix of a group of 3's buffer
        flat = np.full(50 * 3 * 4, np.nan)
        d2 = sqeuclidean(data, centroids, out=flat[: 50 * 8].reshape(50, 8))
        assert np.shares_memory(d2, flat)
        assert np.array_equal(d2, cdist(data, centroids, "sqeuclidean"))


class TestSilhouette:
    def test_hand_computed_two_pairs(self):
        data = np.array([[0.0], [0.1], [10.0], [10.1]])
        s, mean = silhouette(data, np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(
            s, [0.990050, 0.989950, 0.989950, 0.990050], atol=1e-5)
        assert mean == pytest.approx(0.99000, abs=1e-5)

    def test_equidistant_point_scores_zero(self):
        # sample 1 (x=2): a = |2-0| = 2, b = mean(|2-4|, |2-4|) = 2 -> s = 0
        data = np.array([[0.0], [2.0], [4.0], [4.0]])
        labels = np.array([0, 0, 1, 1])
        s, _ = silhouette(data, labels)
        assert s[1] == 0.0

    def test_single_cluster_undefined(self):
        with pytest.raises(MetricUndefinedError):
            silhouette(np.array([[0.0], [1.0]]), np.array([0, 0]))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            silhouette(np.array([[0.0], [1.0]]), np.array([0, -1]))

    def test_one_label_per_sample_required(self):
        with pytest.raises(ParameterError, match="one entry per sample"):
            silhouette(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1]))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ParameterError, match="integer"):
            silhouette(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))

    def test_empty_cluster_index_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            silhouette(np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 2]))

    def test_non_finite_data_rejected(self):
        data = np.array([[0.0, 1.0], [np.nan, 1.0], [4.0, 0.0], [5.0, 0.0]])
        with pytest.raises(ParameterError, match="^data contains non-finite entries$"):
            silhouette(data, np.array([0, 0, 1, 1]))

    @pytest.mark.parametrize("data", [np.array([0.0, 1.0, 4.0, 5.0]), np.zeros((0, 2))])
    def test_data_must_be_a_nonempty_matrix(self, data):
        with pytest.raises(ParameterError, match="^data must be a nonempty 2-D matrix$"):
            silhouette(data, np.array([0, 0, 1, 1])[: len(data)])

    def test_singletons_score_zero(self):
        data = np.array([[0.0], [5.0], [9.0]])
        s, mean = silhouette(data, np.array([0, 1, 2]))
        np.testing.assert_array_equal(s, 0.0)
        assert mean == 0.0

    @given(st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, min(n, 4) + 1))
        data = rng.uniform(size=(n, int(rng.integers(1, 4))))
        labels = _labels_covering(rng, n, k)
        s, mean = silhouette(data, labels)
        expected = brute_silhouette(data, labels)
        np.testing.assert_allclose(s, expected, atol=1e-12, rtol=0)
        assert mean == pytest.approx(np.mean(expected), abs=1e-12)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(size=(12, 3))
        labels = _labels_covering(rng, 12, 3)
        s, mean = silhouette(data, labels)
        perm = rng.permutation(12)
        s_perm, mean_perm = silhouette(data[perm], labels[perm])
        np.testing.assert_allclose(s_perm, s[perm], atol=1e-12, rtol=0)
        assert mean_perm == pytest.approx(mean, abs=1e-12)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(size=(10, 2))
        labels = _labels_covering(rng, 10, 3)
        s, _ = silhouette(data, labels)
        mapping = rng.permutation(3)
        s_renamed, _ = silhouette(data, mapping[labels])
        np.testing.assert_array_equal(s_renamed, s)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_values_in_range(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        data = rng.normal(size=(n, 2))
        labels = _labels_covering(rng, n, int(rng.integers(2, 5)))
        s, mean = silhouette(data, labels)
        assert np.all(s >= -1.0) and np.all(s <= 1.0)
        assert -1.0 <= mean <= 1.0

    def test_row_blocks_match_dense_oracle_in_bounded_memory(self):
        n, k = 3000, 4
        assert n > 2 * (_BLOCK_BYTES // (8 * n))  # the input spans 3+ row blocks
        rng = np.random.default_rng(5)
        data = rng.uniform(size=(n, 3))
        labels = rng.permutation(np.arange(n) % k)
        # dense reference: full n x n distances times a one-hot membership matrix
        membership = np.zeros((n, k))
        membership[np.arange(n), labels] = 1.0
        sums = cdist(data, data) @ membership
        counts = np.bincount(labels)
        means = sums / counts
        means[np.arange(n), labels] = np.inf
        b = means.min(axis=1)
        a = sums[np.arange(n), labels] / (counts[labels] - 1)
        expected = (b - a) / np.maximum(a, b)

        tracemalloc.start()
        try:
            s, mean = silhouette(data, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(s, expected, atol=1e-12, rtol=0)
        assert mean == pytest.approx(np.mean(expected), abs=1e-12)
        # one row block of distances, plus a few n x k and n x d arrays
        assert peak < _BLOCK_BYTES + 8 * n * (4 * k + 8)

    def test_shared_blocks_hold_at_most_two_blocks_of_distances(self):
        n, ks = 6000, (3, 4, 5)
        rng = np.random.default_rng(13)
        data = rng.uniform(size=(n, 3))
        labellings = [rng.permutation(np.arange(n) % k) for k in ks]
        tracemalloc.start()
        try:
            kmeans._silhouettes(data, labellings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the shared block and one gathered copy, plus per labelling its n x k
        # sums and a few n-vectors; a copy per labelling would not fit
        assert peak < 2 * _BLOCK_BYTES + 8 * n * (sum(ks) + 4 * len(ks) + 8)

    @pytest.mark.parametrize("rows_per_block", [None, 1])
    def test_shared_blocks_match_each_labelling_alone(self, monkeypatch, rows_per_block):
        n = 300
        rng = np.random.default_rng(8)
        data = _table("blobs", n, 3, seed=8)
        labellings = [_labels_covering(rng, n, k) for k in (2, 5, 3, 9)]
        assert _BLOCK_BYTES // (8 * n) >= n  # alone, the input is one block
        alone = [silhouette(data, labels) for labels in labellings]
        rows = rows_per_block or n // 3 - 1  # or 4 blocks, the last one short
        monkeypatch.setattr(kmeans, "_BLOCK_BYTES", 8 * n * rows)
        together = kmeans._silhouettes(data, labellings)
        for (s, mean), (s_alone, mean_alone) in zip(together, alone):
            np.testing.assert_array_equal(s, s_alone)
            assert mean == mean_alone


class TestSeeding:
    def test_weighted_index_matches_rng_choice(self):
        rng = np.random.default_rng(17)
        ours, oracle = np.random.default_rng(3), np.random.default_rng(3)
        for trial in range(3000):
            n = int(rng.integers(1, 60))
            weights = rng.uniform(size=n) ** 3
            weights[rng.uniform(size=n) < 0.3] = 0.0  # zero entries are never drawn
            weights[rng.integers(n)] += 1e-3
            total = weights.sum()
            assert kmeans._weighted_indices(weights[None], [ours]) == \
                [oracle.choice(n, p=weights / total)], trial
        assert ours.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("kind, n, d, k, restarts", [
        ("uniform", 5, 1, 5, 13),
        ("grid", 40, 2, 9, 10),  # 9 distinct rows: the last draws see zeros
        ("blobs", 630, 8, 10, 10),
        ("binary", 6000, 3, 5, 7),
        ("same", 30, 3, 4, 5),  # identical rows: every draw after the first is uniform
    ])
    def test_restarts_seeded_together_match_one_at_a_time(self, kind, n, d, k, restarts):
        data = np.ones((n, d)) if kind == "same" else _table(kind, n, d, seed=n)
        ours = [np.random.default_rng(np.random.SeedSequence([n, r])) for r in range(restarts)]
        alone = [np.random.default_rng(np.random.SeedSequence([n, r])) for r in range(restarts)]
        seeds = kmeans._pp_seeds(data, k, ours)
        assert seeds.shape == (restarts, k, d)
        for r in range(restarts):
            np.testing.assert_array_equal(seeds[r], pp_init(data, k, alone[r]))
            assert ours[r].bit_generator.state == alone[r].bit_generator.state


def _labels_covering(rng, n, k):
    """Random labels over [0, k) guaranteed to use every cluster."""
    labels = rng.integers(0, k, size=n)
    labels[rng.permutation(n)[:k]] = np.arange(k)
    return labels
