"""K-means clustering (Lloyd iterations, multi-restart) and the silhouette index.

The silhouette index is the consistency metric used everywhere in this
package: per sample, s = (b - a) / max(a, b) where a is the mean distance to
the other members of the sample's own cluster and b is the smallest mean
distance to any other cluster. Distances are Euclidean throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import MetricUndefinedError, ParameterError

# upper bound on the pairwise distances that silhouette holds at once (1 MiB
# of float64), so a row block and its per-labelling column gather stay in
# cache instead of going out to RAM and back; a 6000-row table takes 21 rows
# per block
_BLOCK_BYTES = 2**20
# upper bound on the point-to-centroid distances that one group of k-means
# restarts holds at once (1 MiB of float64); demo-sized fits run all 10
# restarts as one group, a 6000-row table at k=5 runs 4 at a time
_GROUP_BYTES = 2**20


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Outcome of one k-means fit, including per-sample silhouettes."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    sample_silhouettes: np.ndarray
    mean_silhouette: float
    k: int
    seed: int


def silhouette(data, labels) -> tuple[np.ndarray, float]:
    """Per-sample silhouette values and their arithmetic mean.

    ``labels`` must contain integer cluster indices in [0, k) with every
    cluster nonempty and at least 2 clusters present. A sample alone in its
    cluster gets s = 0.

    The values are exact (Rousseeuw 1987), built from per-cluster sums of
    pairwise distances. Time is O(n^2); memory is O(n * (k + d)) plus one
    row block of distances, at most ``_BLOCK_BYTES``. No BLAS routine is
    called, so the result does not depend on the BLAS thread count. It is
    bit for bit the silhouette that ``kmeans_fit`` and ``kmeans_fits``
    compute for the same labels.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != (data.shape[0],):
        raise ParameterError("labels must have one entry per sample")
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        raise ParameterError("cluster indices must be integers")
    if labels.size and labels.min() < 0:
        raise ParameterError("cluster indices must be nonnegative")
    k = int(labels.max()) + 1 if labels.size else 0
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        empty = np.flatnonzero(counts == 0)
        raise ParameterError(f"empty cluster index {empty[0]} (labels must cover [0, k))")
    if k < 2:
        raise MetricUndefinedError("silhouette needs at least 2 clusters")
    return _silhouettes(data, [labels])[0]


def _silhouettes(data, labellings) -> list[tuple[np.ndarray, float]]:
    """Silhouettes of several valid labellings of ``data``, in one pass over
    row blocks of pairwise distances that every labelling shares.

    Sorted by label, each cluster's members form one contiguous run of
    columns, so a cluster's distance sum is one ``np.add.reduceat`` over a
    block whose columns are in that order. A block's columns are computed
    in the first labelling's order, and every other labelling gathers its
    own order from them: the same pairs, added in the same order, as a block
    computed against the data sorted its way.
    """
    n = data.shape[0]
    orders, starts, sums = [], [], []
    for labels in labellings:
        counts = np.bincount(labels)
        orders.append(np.argsort(labels, kind="stable"))
        starts.append(np.concatenate(([0], np.cumsum(counts)[:-1])))
        # sums[i, c] = sum of distances from sample i to members of cluster c
        sums.append(np.empty((n, counts.size)))
    by_first = data[orders[0]]
    position = np.argsort(orders[0])  # column of each sample in a block
    columns = [slice(None)] + [position[order] for order in orders[1:]]
    rows = max(1, _BLOCK_BYTES // (8 * n))
    # one block's memory, reused: freeing and allocating a block per step
    # lets malloc hand it back to the system and fault it in again, which
    # cost 2 s of a 7 s run on a 6000-row table
    buffer = np.empty((min(rows, n), n))
    for lo in range(0, n, rows):
        block = cdist(data[lo : lo + rows], by_first, out=buffer[: n - lo])
        for cols, start, out in zip(columns, starts, sums):
            out[lo : lo + rows] = np.add.reduceat(block[:, cols], start, axis=1)
    del buffer, block  # not held while the scores are computed
    return [_scores(out, labels) for out, labels in zip(sums, labellings)]


def _scores(cluster_sums, labels) -> tuple[np.ndarray, float]:
    """Per-sample silhouettes and their mean from per-cluster distance sums."""
    n = labels.size
    counts = np.bincount(labels)
    own = counts[labels]
    idx = np.arange(n)
    means = cluster_sums / counts
    means[idx, labels] = np.inf  # exclude the own cluster from the b(i) minimum
    b = means.min(axis=1)
    a = np.zeros(n)
    multi = own > 1
    a[multi] = cluster_sums[idx, labels][multi] / (own[multi] - 1)
    denom = np.maximum(a, b)
    s = np.zeros(n)
    defined = multi & (denom > 0.0)  # singletons (and all-coincident points) get 0
    s[defined] = (b[defined] - a[defined]) / denom[defined]
    return s, float(np.mean(s))


def _weighted_index(weights, total, rng) -> int:
    """``rng.choice(weights.size, p=weights / total)`` without its per-call
    checks: the same index from the same single draw of ``rng``."""
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _pp_init(data, k, rng) -> np.ndarray:
    """Distance-weighted (k-means++-style) centroid seeding."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    closest = cdist(data, centroids[:1], "sqeuclidean")[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total > 0.0:
            idx = _weighted_index(closest, total, rng)
        else:
            idx = rng.integers(n)
        centroids[j] = data[idx]
        d = cdist(data, centroids[j : j + 1], "sqeuclidean")[:, 0]
        np.minimum(closest, d, out=closest)
    return centroids


def _fix_empty(data, labels, own_d2, k) -> np.ndarray:
    """Give every empty cluster the point currently farthest from its centroid.

    Points are only stolen from clusters with more than one member, so the
    fix never creates a new empty cluster.
    """
    counts = np.bincount(labels, minlength=k)
    if not np.any(counts == 0):
        return labels
    labels = labels.copy()
    own_d2 = own_d2.copy()
    for c in np.flatnonzero(counts == 0):
        candidates = np.where(counts[labels] > 1, own_d2, -np.inf)
        idx = int(candidates.argmax())
        counts[labels[idx]] -= 1
        labels[idx] = c
        counts[c] = 1
        own_d2[idx] = 0.0
    return labels


def _cluster_sums(data, flat, counts) -> np.ndarray:
    """Column sums of the rows in each bin, with the bits of ``ndarray.mean``.

    ``flat[j, i]`` is the bin of row i in restart j, and ``counts`` holds
    the size of every bin. numpy's
    ``data[mask].mean(axis=0)`` adds several columns row by row, as
    ``np.bincount`` does, but a single column pairwise. ``np.add.reduceat``
    adds each run pairwise to its first element, so every run gets a leading
    0.0, the value the reduction starts from.
    """
    bins = counts.size
    if data.shape[1] > 1:
        bin_of = flat.ravel()
        weights = np.empty(flat.shape)  # one row of the column per restart
        out = np.empty((bins, data.shape[1]))
        for j, column in enumerate(data.T):
            weights[:] = column
            out[:, j] = np.bincount(bin_of, weights=weights.ravel(), minlength=bins)
        return out
    counts = counts.ravel()
    padded = np.zeros(flat.size + bins)
    padded[np.arange(flat.size) + np.repeat(np.arange(1, bins + 1), counts)] = \
        data[np.argsort(flat, axis=None, kind="stable") % data.shape[0], 0]
    return np.add.reduceat(padded, np.arange(bins) + np.cumsum(counts) - counts)[:, None]


def _lloyd_group(data, seeds, max_iter, tol) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Lloyd iterations for a group of restarts, advanced together.

    ``seeds`` holds each restart's initial centroids, shape (g, k, d). Every
    restart takes the same steps, in the same floating-point order, as it
    would alone: assign each point to its nearest centroid, refill empty
    clusters, move the centroids to their cluster means, and stop once the
    largest move is below ``tol`` or after ``max_iter`` moves; a last
    assignment then gives its labels and inertia. Returns (inertia, labels,
    centroids) per restart, in seed order.
    """
    n, dim = data.shape
    g, k, _ = seeds.shape
    centroids = seeds.copy()
    offsets = k * np.arange(g)[:, None]
    live = np.arange(g)  # restarts still in the group
    last = np.full(g, max_iter <= 0)  # the next assignment is the restart's last
    moves = 0
    out = [None] * g
    while True:
        a = live.size
        # one distance call for every live restart; each pair is computed as alone
        d2 = cdist(data, centroids[live].reshape(a * k, dim), "sqeuclidean").reshape(n, a, k)
        labels = np.ascontiguousarray(d2.argmin(axis=2).T)
        flat = labels + offsets[:a]
        counts = np.bincount(flat.ravel(), minlength=a * k).reshape(a, k)
        for j in np.flatnonzero((counts == 0).any(axis=1)):
            labels[j] = _fix_empty(data, labels[j], d2[np.arange(n), j, labels[j]], k)
            flat[j] = labels[j] + offsets[j]
            counts[j] = np.bincount(labels[j], minlength=k)
        leaving = last[live]
        if leaving.any():
            for j in np.flatnonzero(leaving):
                c = centroids[live[j]].copy()
                out[live[j]] = (float(((data - c[labels[j]]) ** 2).sum()), labels[j].copy(), c)
            live, labels, counts = live[~leaving], labels[~leaving], counts[~leaving]
            if not live.size:
                return out
            a = live.size
            flat = labels + offsets[:a]
        new = _cluster_sums(data, flat, counts).reshape(a, k, dim) / counts[:, :, None]
        shift = np.sqrt(((new - centroids[live]) ** 2).sum(axis=2)).max(axis=1)
        centroids[live] = new
        moves += 1
        last[live] = (shift < tol) | (moves == max_iter)


def kmeans_fit(data, k: int, seed: int, restarts: int = 10,
               max_iter: int = 300, tol: float = 1e-4) -> ClusteringResult:
    """Best-of-``restarts`` Lloyd k-means, deterministic for fixed arguments.

    Each restart r draws its own generator from (seed, r), seeds centroids
    with distance-weighted sampling, and iterates until the largest centroid
    displacement falls below ``tol`` or ``max_iter`` is reached. The restarts
    iterate together, in groups that hold at most ``_GROUP_BYTES`` of
    distances at once; the result is bit for bit the one of running them one
    by one. The first restart with the lowest inertia wins; silhouettes are
    computed once on its final assignment. The returned result never
    contains an empty cluster. This is ``kmeans_fits`` with one k.
    """
    return kmeans_fits(data, [k], [seed], restarts, max_iter, tol)[0]


def kmeans_fits(data, ks, seeds, restarts: int = 10, max_iter: int = 300,
                tol: float = 1e-4) -> list[ClusteringResult]:
    """``kmeans_fit(data, k, seed, ...)`` for each pair of ``ks`` and
    ``seeds``, bit for bit, with the work that does not depend on k done once.

    The checks and the distinct-point count run once, before any fit; the
    first k that exceeds the number of distinct rows raises. The silhouettes
    of all the winning assignments are then computed in one pass over row
    blocks of pairwise distances, so each block is computed once and shared
    by every k.
    """
    data = np.asarray(data, dtype=np.float64)
    ks, seeds = list(ks), list(seeds)
    if not ks:
        raise ParameterError("need at least one k")
    if len(ks) != len(seeds):
        raise ParameterError("one seed per k required")
    if data.ndim != 2 or data.shape[0] == 0:
        raise ParameterError("data must be a nonempty 2-D matrix")
    if not np.isfinite(data).all():
        raise ParameterError("data contains non-finite entries")
    for k in ks:
        if k < 2:
            raise ParameterError("k must be at least 2")
        if k > data.shape[0]:
            raise ParameterError(f"k={k} exceeds {data.shape[0]} samples")
    if restarts < 1:
        raise ParameterError("restarts must be at least 1")
    distinct = np.unique(data, axis=0).shape[0]
    for k in ks:
        if distinct < k:
            raise ParameterError(f"fewer than k={k} distinct points")

    best = [_best_of_restarts(data, k, seed, restarts, max_iter, tol)
            for k, seed in zip(ks, seeds)]
    silhouettes = _silhouettes(data, [labels for _, labels, _ in best])
    return [
        ClusteringResult(
            labels=labels,
            centroids=centroids,
            inertia=inertia,
            sample_silhouettes=sample_s,
            mean_silhouette=mean_s,
            k=k,
            seed=seed,
        )
        for k, seed, (inertia, labels, centroids), (sample_s, mean_s)
        in zip(ks, seeds, best, silhouettes)
    ]


def _best_of_restarts(data, k, seed, restarts, max_iter,
                      tol) -> tuple[float, np.ndarray, np.ndarray]:
    """(inertia, labels, centroids) of the first restart with the lowest inertia."""
    seeds = np.stack([
        _pp_init(data, k, np.random.default_rng(np.random.SeedSequence([seed % (2**63), r])))
        for r in range(restarts)
    ])
    group = max(1, _GROUP_BYTES // (8 * data.shape[0] * k))
    best = None
    for lo in range(0, restarts, group):
        fits = _lloyd_group(data, seeds[lo : lo + group], max_iter, tol)
        for inertia, labels, centroids in fits:
            if best is None or inertia < best[0]:
                best = (inertia, labels, centroids)
    return best
