"""The numpy behaviours that dimred's output bytes rest on, one test each.

The golden digests (``test_golden.py``) say that a byte moved; these say
which behaviour moved it, so a numpy upgrade that changes one fails here by
name. The ``cdist`` kernels' transposition symmetry is checked in
``test_kmeans.py::TestDistanceKernels``.
"""

import functools
import operator

import numpy as np
import pytest


def sequential_sum(values) -> float:
    """0.0 plus each value in turn (builtin ``sum`` compensates from Python 3.12)."""
    return functools.reduce(operator.add, map(float, values), 0.0)


@pytest.mark.parametrize("seed, restart, draws", [
    (42, 0, (10, 0.4388784397520523, 0.8585979199113825)),
    (42, 1, (76, 0.24595865734140498, 0.40442633394152905)),
    # frsd.task_seed(42, ["a", "b"], 3) % 2**63, as kmeans seeds it
    (2784130004190308839, 0, (13, 0.9395402311295703, 0.11906740565313967)),
    (2784130004190308839, 1, (38, 0.6446692813952472, 0.39430460650909815)),
])
def test_seed_sequence_of_seed_and_restart_gives_the_recorded_pcg64_first_draws(
        seed, restart, draws):
    rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
    assert type(rng.bit_generator) is np.random.PCG64
    assert (int(rng.integers(120)), rng.random(), rng.random()) == draws


# run lengths around numpy's pairwise-summation block of 8 and its 128-element
# unrolling, where pairwise and sequential sums part
@pytest.mark.parametrize("rows, lengths", [
    (21, [1, 9, 128, 129, 5733]),  # a 6000-row table's block at k=5
    (208, [1, 2, 7, 8, 16, 17, 100, 127, 343, 9]),  # a 630-row table's at k=10
])
def test_reduceat_along_a_row_block_adds_each_runs_first_element_to_the_pairwise_rest(
        rows, lengths):
    # a silhouette row block (kmeans._silhouettes): the columns sorted by
    # cluster, one run of distances per cluster, summed along axis 1 into
    # the block's rows of the per-cluster sums
    n, k = sum(lengths), len(lengths)
    rng = np.random.default_rng(n)
    block = rng.uniform(0.0, 2.0, size=(rows, n)) * 10.0 ** rng.integers(-3, 4, size=(rows, n))
    starts = np.cumsum(lengths) - lengths
    sums = np.empty((rows + 3, k))
    np.add.reduceat(block, starts, axis=1, out=sums[3:])
    for row, out in zip(block, sums[3:]):
        assert out.tolist() == [row[s] + np.add.reduce(row[s + 1 : s + m])
                                for s, m in zip(starts, lengths)]
    assert any(sequential_sum(row[s : s + m]) != total for row, out in zip(block, sums[3:])
               for s, m, total in zip(starts, lengths, out))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_bincount_weights_add_rows_in_sequential_order_with_the_bits_of_a_columns_mean(dim):
    # kmeans._cluster_sums: a centroid is this row-order sum over its size at
    # every dimension count; ``mean(axis=0)`` has its bits from 2 columns on
    rng = np.random.default_rng(dim)
    k = 4
    data = rng.uniform(-1.0, 1.0, size=(600, dim)) * 10.0 ** rng.integers(-3, 4, size=(600, dim))
    labels = rng.integers(k, size=600)
    counts = np.bincount(labels, minlength=k)
    for j in range(dim):
        sums = np.bincount(labels, weights=data[:, j], minlength=k)
        assert sums.tolist() == [sequential_sum(data[labels == c, j]) for c in range(k)]
        if dim > 1:
            np.testing.assert_array_equal(
                sums / counts, [data[labels == c].mean(axis=0)[j] for c in range(k)])


def test_take_with_mode_wrap_into_out_equals_fancy_indexing():
    rng = np.random.default_rng(1)
    block = rng.uniform(size=(7, 300))
    buffer = np.empty((16, 300))
    cols = rng.permutation(300)
    taken = np.take(block, cols, axis=1, out=buffer[:7], mode="wrap")
    assert np.shares_memory(taken, buffer)
    np.testing.assert_array_equal(taken, block[:, cols])
    np.testing.assert_array_equal(buffer[:7], block[:, cols])
