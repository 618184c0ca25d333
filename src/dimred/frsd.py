"""Feature ranking by silhouette decomposition.

Every feature subset of size 2..n is clustered with k-means for every k in
a configured range, and the mean silhouette of each run is recorded. A
feature's raw score is the sum of the silhouettes of all runs whose subset
contains it; dividing by the grand total of raw scores yields normalized
importance weights (proportions summing to 1), the basis of "resolution"
downstream.

The sweep is embarrassingly parallel, with one task per subset: the task
fits every k of the range on the subset's columns, so the column slice and
the silhouette's pairwise distances are shared by all its k. ``pool_map``
runs the tasks (and the decision branches) on the command's one pool
(``worker_pool``) in chunks of at most sqrt(subsets), a few at a time, or
in-process. Each task re-runs the cheap checks of ``kmeans_fits``. The
output does not depend on execution order or worker count: each (subset, k)
run derives its k-means seed from a stable hash of the base seed, the
subset's sorted feature names and k, and ``weights``, the one owner of the
aggregation rule, sums the finished score table in task order (by size, then
in combination order), so a table read back from disk gives the same weights.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import isqrt

import numpy as np

from .dataset import Dataset, minmax_columns, write_csv
from .errors import ParameterError
from .kmeans import kmeans_fit  # noqa: F401  (kept importable: perfbench/spans.py wraps it)
from .kmeans import kmeans_fits, require_distinct, require_integer

# a command whose sweep has less work than this (rows x subsets x k values x
# restarts) runs in-process, its branches too, even when workers are allowed.
# One `run` in a fresh process on 2 CPUs, k 3..6, 10 restarts, median of 6 pairs:
# 2 workers lost on a 150x3 table (24 000: 0.122 s in-process, 0.153 s pooled)
# and were about even on a 346x3 table (55 360: 0.217 s against 0.211 s)
_POOL_MIN_WORK = 50_000


@dataclass(frozen=True, eq=False)
class FeatureWeights:
    """Ranked, normalized importance weights from FRSD or PCA.

    ``entries`` is a descending list of (name, weight) pairs whose weights
    sum to 1; ``source`` records which ranking produced them.
    """

    entries: tuple[tuple[str, float], ...]
    source: str

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((str(n), float(w)) for n, w in self.entries))
        if self.source not in ("FRSD", "PCA"):
            raise ParameterError(f"unknown weight source {self.source!r}")
        if not self.entries:
            raise ParameterError("weights are empty")
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ParameterError("duplicate names in weights")
        w = np.array([w for _, w in self.entries])
        if abs(w.sum() - 1.0) > 1e-9:
            raise ParameterError(f"weights sum to {w.sum()!r}, expected 1")
        if np.any(w[:-1] < w[1:]):
            raise ParameterError("weights are not in descending order")

    @classmethod
    def from_scores(cls, names, scores, source: str) -> "FeatureWeights":
        """Sum-normalize raw scores into weights, sorted descending.

        Ties keep the input order. Negative aggregates are allowed (they can
        arise from negative silhouettes) but flagged with a warning.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if len(names) != scores.size:
            raise ParameterError("one score per name required")
        total = scores.sum()
        if total == 0.0:
            raise ParameterError("scores sum to zero; weights undefined")
        if np.any(scores < 0.0) or total < 0.0:
            warnings.warn(
                f"negative aggregate score in {source} weights", stacklevel=2
            )
        normalized = scores / total
        order = sorted(range(len(names)), key=lambda i: -normalized[i])
        return cls(entries=tuple((names[i], float(normalized[i])) for i in order),
                   source=source)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.entries])

    def minmax_view(self) -> tuple[tuple[str, float], ...]:
        """Display-only MinMax rescaling of the weights to [0, 1]."""
        scaled = minmax_columns(self.weights[:, None])[:, 0]
        return tuple(zip(self.names, scaled.tolist()))


def subsets(indices):
    """The 2^n - n - 1 subsets of the n ``indices`` of size 2..n, lazily: by
    size, then in combination order."""
    return chain.from_iterable(combinations(indices, size)
                               for size in range(2, len(indices) + 1))


def task_seed(base_seed: int, names, k: int) -> int:
    """Stable per-task seed from (base seed, sorted subset names, k)."""
    key = f"{base_seed}|{'|'.join(sorted(names))}|{k}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _score_subset(values, names, config, ks, cols) -> list[float]:
    seeds = [task_seed(config.seed, [names[i] for i in cols], k) for k in ks]
    fits = kmeans_fits(values[:, cols], ks, seeds, config.restarts)
    return [fit.mean_silhouette for fit in fits]


def _process_pool(workers):
    """A pool of ``workers`` processes. Its machinery (``multiprocessing``
    and ``concurrent.futures.process``) is imported here, so only a command
    that starts workers loads it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def worker_pool(data: Dataset, config, max_workers: int):
    """The one pool, as a context manager, of a command that sweeps ``data``
    with ``config``: ``min(max_workers, subsets)`` processes, or ``None``
    (in-process) below ``_POOL_MIN_WORK``. A ``max_workers`` that is not an
    integer >= 1 (``require_integer``), then a k_max ``sweep_shape`` rejects,
    raise ``ParameterError`` first; workers start at the first task, so a sweep
    that ``frsd_rank``'s checks reject starts none."""
    require_integer("max_workers", max_workers, 1)
    n_subsets, ks = sweep_shape(data, config)
    workers = min(max_workers, n_subsets)  # the pool starts every worker up front
    work = data.n_samples * n_subsets * len(ks) * config.restarts
    if workers > 1 and work >= _POOL_MIN_WORK:
        return _process_pool(workers)
    return contextlib.nullcontext()


def _map_chunk(fn, chunk):
    return [fn(item) for item in chunk]


def pool_map(pool, fn, items, n_items: int):
    """``map(fn, items)`` in order on ``pool``'s workers (``None``: in-process),
    the package's one way to map fits. A chunk holds at most n_items / (8 x
    workers) items, so short maps reach every worker, and at most sqrt(n_items);
    with at most 2 chunks per worker in flight, the parent holds only a few."""
    if pool is None:
        yield from map(fn, items)
        return
    workers = pool._max_workers  # a ProcessPoolExecutor's worker count
    items, pending = iter(items), deque()
    chunksize = max(1, min(n_items // (8 * workers), isqrt(n_items)))
    for chunk in iter(lambda: list(islice(items, chunksize)), []):
        pending.append(pool.submit(_map_chunk, fn, chunk))
        if len(pending) == 2 * workers:
            yield from pending.popleft().result()
    while pending:
        yield from pending.popleft().result()


def sweep_shape(data: Dataset, config) -> tuple[int, range]:
    """The subset count, 2^n - n - 1, and the k values of the FRSD sweep of ``data``
    with the ``DecisionConfig`` ``config``; a k_max above its rows raises ``ParameterError``."""
    if config.k_max > data.n_samples:
        raise ParameterError(f"k_max={config.k_max} exceeds {data.n_samples} samples")
    return 2**data.n_features - data.n_features - 1, range(config.k_min, config.k_max + 1)


def frsd_rank(data: Dataset, config, pool=None) -> tuple[FeatureWeights, np.ndarray]:
    """Rank features by decomposed silhouette scores with ``config``'s sweep values.

    ``data`` is expected to be MinMax-normalized. Its features are ranked, ties
    included, in the column order given, which ``decision.rank`` makes name
    order. Fills the score table, then returns its ``weights`` (the one owner
    of the aggregation rule) and the table: a float64 array with row i for
    subset i of ``subsets(range(n_features))`` and column j for k = k_min + j.
    The sweep runs on ``pool``'s workers (``None``: in-process), with the same
    output either way. A k_max above the row count (``sweep_shape``), a score
    table too large to allocate (too many features) or a k the data cannot
    support (named with the first feature pair that has too few distinct rows)
    raise ``ParameterError``, in that order, before any fit or task is submitted.
    """
    n_subsets, ks = sweep_shape(data, config)
    n = data.n_features
    try:
        scores = np.empty((n_subsets, len(ks)))
    except (MemoryError, ValueError):
        raise ParameterError(f"{n} features give {n_subsets} subsets x {len(ks)} k values: "
                             "too many to score") from None
    # a subset has no fewer distinct rows than a pair inside it, and pairs
    # come first: the first infeasible pair is the sweep's first infeasible
    # subset, found here before any fit runs or any worker starts
    for pair in combinations(range(n), 2):
        require_distinct(data.values[:, pair], ks, " in features "
                         + " and ".join(repr(data.feature_names[i]) for i in pair))
    score = functools.partial(_score_subset, data.values, data.feature_names, config, ks)
    for row, sis in enumerate(pool_map(pool, score, subsets(range(n)), n_subsets)):
        scores[row] = sis
    return weights(scores, data.feature_names), scores


def weights(scores, names) -> FeatureWeights:
    """FRSD weights of a table whose row i is subset i of ``subsets(range(len(names)))``:
    a feature's raw score sums, row by row, the cells of every row whose subset holds it."""
    raw = [0.0] * len(names)
    for cols, row in zip(subsets(range(len(names))), scores):
        for si in row.tolist():
            for c in cols:
                raw[c] += si
    return FeatureWeights.from_scores(names, raw, source="FRSD")


def write_subset_scores(scores, columns, k_min: int, path) -> None:
    """Dump the score table of ``frsd_rank`` as CSV with columns subset, k, si.

    ``columns[j]`` is the input position of the ranked table's column j; a
    subset is written as its ascending 1-based input positions, e.g. "1,3,7".
    """
    rows = zip(subsets(columns), scores)
    write_csv(path, ["subset", "k", "si"], ((",".join(str(c + 1) for c in sorted(s)), k, si)
              for s, row in rows for k, si in enumerate(row.tolist(), k_min)))
