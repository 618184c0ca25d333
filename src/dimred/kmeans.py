"""K-means clustering (Lloyd iterations, multi-restart) and the silhouette index.

The silhouette index is the consistency metric used everywhere in this
package: per sample, s = (b - a) / max(a, b) where a is the mean distance to
the other members of the sample's own cluster and b is the smallest mean
distance to any other cluster. Distances are Euclidean throughout.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import numbers
from dataclasses import dataclass
from itertools import chain
from math import inf

import numpy as np

from .errors import MetricUndefinedError, ParameterError


def _distance_kernels():
    """The kernels ``scipy.spatial.distance.cdist`` runs for "sqeuclidean" and
    "euclidean": their compiled module, found by a path search through the
    ``scipy`` and ``scipy.spatial`` directories and loaded alone, so no scipy
    package ``__init__`` runs (README: Dependencies); else ``cdist``."""
    locations = None
    for name in ("scipy", "scipy.spatial", "scipy.spatial._distance_pybind"):
        spec = importlib.machinery.PathFinder.find_spec(name, locations)
        if spec is None:
            break
        locations = spec.submodule_search_locations
    else:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            module = None
        if hasattr(module, "cdist_sqeuclidean") and hasattr(module, "cdist_euclidean"):
            return module.cdist_sqeuclidean, module.cdist_euclidean
    from scipy.spatial.distance import cdist
    return functools.partial(cdist, metric="sqeuclidean"), cdist


_sqeuclidean, _euclidean = _distance_kernels()

# upper bound on the distances held at once (1 MiB of float64), so they stay
# in cache instead of going out to RAM and back: the pairwise distances of
# one silhouette row block (a 6000-row table takes 21 rows per block) and the
# point-to-centroid distances of one group of k-means restarts (demo-sized
# fits run all 10 restarts as one group, a 6000-row table at k=5 runs 4)
_BLOCK_BYTES = 2**20

_MAX_ITER = 300  # centroid moves a k-means restart makes at most
_TOL = 1e-4  # a restart stops once its largest centroid move is below this


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Outcome of one k-means fit, including per-sample silhouettes."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    sample_silhouettes: np.ndarray
    mean_silhouette: float
    k: int


def require_integer(name: str, value, minimum=-inf) -> None:
    """Raise ``ParameterError`` unless ``value`` is an integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer")
    if value < minimum:
        raise ParameterError(f"{name} must be at least {minimum}")


def _check_data(data) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ParameterError("data must be a nonempty 2-D matrix")
    if not np.isfinite(data).all():
        raise ParameterError("data contains non-finite entries")
    return data


def silhouette(data, labels) -> tuple[np.ndarray, float]:
    """Per-sample silhouette values and their arithmetic mean.

    ``data`` must be a nonempty finite 2-D matrix, and ``labels`` must
    contain integer cluster indices in [0, k) with every cluster nonempty and
    at least 2 clusters present. A sample alone in its cluster gets s = 0.

    The values are exact (Rousseeuw 1987), built from per-cluster sums of
    pairwise distances. Time is O(n^2); memory is O(n * (k + d)) plus one
    row block of distances, at most ``_BLOCK_BYTES``. No BLAS routine is
    called, so the result does not depend on the BLAS thread count. It is
    bit for bit the silhouette that ``kmeans_fit`` and ``kmeans_fits``
    compute for the same labels.
    """
    data = _check_data(data)
    labels = np.asarray(labels)
    if labels.shape != (data.shape[0],):
        raise ParameterError("labels must have one entry per sample")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ParameterError("cluster indices must be integers")
    if labels.min() < 0:
        raise ParameterError("cluster indices must be nonnegative")
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        empty = np.flatnonzero(counts == 0)
        raise ParameterError(f"empty cluster index {empty[0]} (labels must cover [0, k))")
    if k < 2:
        raise MetricUndefinedError("silhouette needs at least 2 clusters")
    return _silhouettes(data, [(labels, counts)])[0]


def _silhouettes(data, labellings) -> list[tuple[np.ndarray, float]]:
    """Silhouettes of several valid labellings of ``data``, each given as
    (labels, cluster sizes), in one pass over row blocks of pairwise
    distances that every labelling shares.

    Sorted by label, each cluster's members form one contiguous run of
    columns, so a cluster's distance sum is one ``np.add.reduceat`` over a
    block whose columns are in that order. A block's columns are computed
    in the first labelling's order, and every other labelling gathers its
    own order from them into one buffer, reused for every block and
    labelling: the same pairs, added in the same order, as a block computed
    against the data sorted its way.
    """
    n = data.shape[0]
    orders = [np.argsort(labels, kind="stable") for labels, _ in labellings]
    starts = [np.cumsum(counts) - counts for _, counts in labellings]
    # sums[i, c] = sum of distances from sample i to members of cluster c
    sums = [np.empty((n, counts.size)) for _, counts in labellings]
    by_first = data[orders[0]]
    position = np.argsort(orders[0])  # column of each sample in a block
    columns = [None] + [position[order] for order in orders[1:]]  # None: the block's own
    rows = max(1, _BLOCK_BYTES // (8 * n))
    # one block's memory, reused: freeing and allocating a block per step
    # lets malloc hand it back to the system and fault it in again, which
    # cost 2 s of a 7 s run on a 6000-row table; the gathers share a second
    buffer = np.empty((min(rows, n), n))
    gathered = np.empty_like(buffer) if len(labellings) > 1 else None
    for lo in range(0, n, rows):
        block = _euclidean(data[lo : lo + rows], by_first, out=buffer[: n - lo])
        for cols, start, out in zip(columns, starts, sums):
            # "wrap" never wraps these columns, but unlike "raise" it lets
            # numpy write into ``out`` directly instead of through a copy
            ordered = block if cols is None else np.take(
                block, cols, axis=1, out=gathered[: len(block)], mode="wrap")
            np.add.reduceat(ordered, start, axis=1, out=out[lo : lo + len(block)])
    del buffer, gathered, block  # not held while the scores are computed
    return [_scores(out, labels, counts) for out, (labels, counts) in zip(sums, labellings)]


def _scores(cluster_sums, labels, counts) -> tuple[np.ndarray, float]:
    """Per-sample silhouettes and their mean from per-cluster distance sums and sizes."""
    n = labels.size
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


def _weighted_indices(weights, rngs) -> list[int]:
    """``rng.choice(n, p=row / row.sum())`` for each row of ``weights`` and
    its own generator, without the per-call checks: the same index from the
    same single draw. A row of zeros draws ``rng.integers(n)`` instead."""
    n = weights.shape[1]
    totals = weights.sum(axis=1)
    with np.errstate(invalid="ignore"):  # a row of zeros gives NaNs, never read
        cdf = (weights / totals[:, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
    return [int(row.searchsorted(rng.random(), side="right")) if total > 0.0
            else int(rng.integers(n)) for row, total, rng in zip(cdf, totals, rngs)]


def _pp_seeds(data, k, rngs) -> np.ndarray:
    """Distance-weighted (k-means++-style) initial centroids of a group of
    restarts, shape (len(rngs), k, d); restart r draws from ``rngs[r]``.

    A restart's first centroid is a uniform row, and each next one a row
    drawn with weight its squared distance to the nearest centroid so far.
    One distance call per centroid serves every restart, and the sums,
    cumulative sums and normalisation run row-wise; per restart these are
    the operations, and the draws, of seeding it alone.
    """
    n = data.shape[0]
    seeds = np.empty((len(rngs), k, data.shape[1]))
    seeds[:, 0] = data[[rng.integers(n) for rng in rngs]]
    closest = _sqeuclidean(seeds[:, 0], data)
    for j in range(1, k):
        seeds[:, j] = data[_weighted_indices(closest, rngs)]
        np.minimum(closest, _sqeuclidean(seeds[:, j], data), out=closest)
    return seeds


def _fix_empty(labels, own_d2, counts) -> None:
    """Give every empty cluster the point currently farthest from its centroid,
    refilling ``labels``, ``own_d2`` (each point's squared distance to its own
    centroid) and ``counts`` (the size of every cluster of ``labels``) in place.

    Points are only stolen from clusters with more than one member, so the
    fix never creates a new empty cluster.
    """
    for c in np.flatnonzero(counts == 0):
        candidates = np.where(counts[labels] > 1, own_d2, -np.inf)
        idx = int(candidates.argmax())
        counts[labels[idx]] -= 1
        labels[idx] = c
        counts[c] = 1
        own_d2[idx] = 0.0


def _cluster_sums(flat, bins, tiled) -> np.ndarray:
    """Column sums of the rows in each of ``bins`` bins, added row after row.

    ``flat[j, i]`` is the bin of row i in live restart j. ``tiled[c, j]`` is
    data column c, once per restart of the group; restarts that have left
    the group leave its last rows unused. ``np.bincount`` adds each column's
    weights in row order, so at every dimension count a centroid is this
    sequential sum over its cluster's size: for 2 or more columns, the bits
    of ``data[mask].mean(axis=0)``, which adds several columns row by row.
    """
    bin_of = flat.ravel()
    out = np.empty((bins, tiled.shape[0]))
    for j, column in enumerate(tiled[:, : flat.shape[0]]):
        out[:, j] = np.bincount(bin_of, weights=column.ravel(), minlength=bins)
    return out


def _lloyd_group(data, seeds) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Lloyd iterations for a group of restarts, advanced together.

    ``seeds`` holds each restart's initial centroids, shape (g, k, d). Every
    restart takes the same steps, in the same floating-point order, as it
    would alone: assign each point to its nearest centroid, refill empty
    clusters, move the centroids to their cluster means, and stop once the
    largest move is below ``_TOL`` or after ``_MAX_ITER`` moves; a last
    assignment then gives its labels and inertia. A restart whose assignment
    repeats the previous one stops at once: its centroids are already the
    means of those labels, so every further move would be exactly 0 and
    every further assignment the same one again. Every per-restart array of
    the loop holds the live restarts only, in seed order, and all of them
    drop a restart together when it stops. Returns (inertia, labels,
    centroids, cluster sizes) per restart, in seed order.

    The distances are laid out centroid-major, (k, live restarts, n), so the
    nearest distance is a minimum over k contiguous rows, and a label is the
    number of leading centroids whose distance differs from it: the first
    index at the minimum, as ``argmin`` gives. (x - c)^2 equals (c - x)^2,
    so each distance has the bits of the point-major layout.
    """
    n, dim = data.shape
    g, k, _ = seeds.shape
    centroids = seeds
    offsets = k * np.arange(g)[:, None]
    # the data columns the centroid sums add, built once for the group
    tiled = np.repeat(data.T[:, None], g, axis=1)
    index = np.arange(g)  # each live restart's place in ``seeds``
    last = np.zeros(g, dtype=bool)  # the next assignment is the restart's last
    previous = np.full((g, n), -1)  # labels at the previous assignment
    moves = 0
    out = [None] * g
    # one distance matrix's memory, reused: the live restarts' distances fill
    # its prefix, so the previous matrix is never alive next to the next one
    buffer = np.empty(n * g * k)
    while True:
        a = index.size
        # one distance call for every live restart; d2[c, j, i] is point i's
        # distance to centroid c of live restart j
        d2 = _sqeuclidean(centroids.transpose(1, 0, 2).reshape(k * a, dim), data,
                          out=buffer[: k * a * n].reshape(k * a, n)).reshape(k, a, n)
        own = np.minimum.reduce(d2, axis=0)
        # counted in the smallest type that holds k - 1: adding a bool array
        # to it takes about half the time of adding one to intp
        ahead = np.ones((a, n), dtype=bool)
        labels = np.zeros((a, n), dtype=np.min_scalar_type(k - 1))
        for c in range(k - 1):
            ahead &= d2[c] != own
            labels += ahead
        labels = labels.astype(np.intp)
        counts = np.bincount((labels + offsets[:a]).ravel(), minlength=a * k).reshape(a, k)
        for j in np.flatnonzero((counts == 0).any(axis=1)):
            _fix_empty(labels[j], own[j], counts[j])
        # freed before the centroid sums allocate: held through them, they
        # raised a 6000-row run's peak RSS by about 0.7 MB
        del own, ahead
        leaving = last | (labels == previous).all(axis=1)
        for j in np.flatnonzero(leaving):
            c = centroids[j].copy()
            out[index[j]] = (float(((data - c[labels[j]]) ** 2).sum()), labels[j].copy(), c,
                             counts[j].copy())
        if leaving.all():
            return out
        if leaving.any():
            keep = ~leaving
            index, centroids, labels, counts = (x[keep] for x in (index, centroids, labels, counts))
            a = index.size
        previous = labels
        sums = _cluster_sums(labels + offsets[:a], a * k, tiled).reshape(a, k, dim)
        new = sums / counts[:, :, None]
        shift = np.sqrt(((new - centroids) ** 2).sum(axis=2)).max(axis=1)
        centroids = new
        moves += 1
        last = (shift < _TOL) | (moves == _MAX_ITER)


def kmeans_fit(data, k: int, seed: int, restarts: int = 10) -> ClusteringResult:
    """Best-of-``restarts`` Lloyd k-means, deterministic for fixed arguments.

    Each restart r draws its own generator from (seed, r), seeds centroids
    with distance-weighted sampling, and iterates until the largest centroid
    displacement falls below ``_TOL`` (1e-4) or after ``_MAX_ITER`` (300)
    moves; it also stops as soon as an assignment repeats, which changes no
    result, since its centroids could not move again. All restarts are
    seeded together, one distance call per centroid, and iterate together,
    in groups that hold at most ``_BLOCK_BYTES`` of distances at once; the
    result is bit for bit the one of running them one by one. The first
    restart with the lowest inertia wins; silhouettes are computed once on
    its final assignment. The returned result never contains an empty
    cluster. This is ``kmeans_fits`` with one k.
    """
    return kmeans_fits(data, [k], [seed], restarts)[0]


def kmeans_fits(data, ks, seeds, restarts: int = 10) -> list[ClusteringResult]:
    """``kmeans_fit(data, k, seed, ...)`` for each pair of ``ks`` and
    ``seeds``, bit for bit, with the work that does not depend on k done once.

    The checks and the distinct-point count (``require_distinct``) run once
    per call, before any fit (each FRSD sweep task re-runs them, as they are
    cheap); the first k that exceeds the number of distinct rows raises. The
    silhouettes of all the winning assignments are then computed in one pass
    over row blocks of pairwise distances, so each block is computed once and
    shared by every k.
    """
    ks, seeds = list(ks), list(seeds)
    if not ks:
        raise ParameterError("need at least one k")
    if len(ks) != len(seeds):
        raise ParameterError("one seed per k required")
    data = _check_data(data)
    for k, seed in zip(ks, seeds):
        require_integer("k", k, 2)
        require_integer("seed", seed)
        if k > data.shape[0]:
            raise ParameterError(f"k={k} exceeds {data.shape[0]} samples")
    require_integer("restarts", restarts, 1)
    require_distinct(data, ks)
    best = [_best_of_restarts(data, k, seed, restarts) for k, seed in zip(ks, seeds)]
    silhouettes = _silhouettes(data, [(labels, sizes) for _, labels, _, sizes in best])
    return [
        ClusteringResult(
            labels=labels,
            centroids=centroids,
            inertia=inertia,
            sample_silhouettes=sample_s,
            mean_silhouette=mean_s,
            k=k,
        )
        for k, (inertia, labels, centroids, _), (sample_s, mean_s) in zip(ks, best, silhouettes)
    ]


def require_distinct(data, ks, where: str = "") -> None:
    """Raise ``ParameterError`` for the first k in ``ks`` that exceeds the
    number of distinct rows of the nonempty finite matrix ``data``: no
    k-means fit can fill k clusters then. ``where`` is appended to the
    message. Sorted lexicographically, equal rows are adjacent, so the
    distinct rows are the first and each that differs from the one before;
    -0.0 equals 0.0, as in ``np.unique(data, axis=0)``."""
    rows = data[np.lexsort(data.T)] if data.shape[1] else data
    distinct = 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))
    for k in ks:
        if distinct < k:
            raise ParameterError(f"fewer than k={k} distinct points{where}")


def _best_of_restarts(data, k, seed, restarts) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(inertia, labels, centroids, sizes) of the first restart with the lowest inertia."""
    seeds = _pp_seeds(data, k, [np.random.default_rng(np.random.SeedSequence([seed % (2**63), r]))
                                for r in range(restarts)])
    group = max(1, _BLOCK_BYTES // (8 * data.shape[0] * k))
    fits = chain.from_iterable(_lloyd_group(data, seeds[lo : lo + group])
                               for lo in range(0, restarts, group))
    return min(fits, key=lambda fit: fit[0])  # the first of equal inertias
