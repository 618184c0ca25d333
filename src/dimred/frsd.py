"""Feature ranking by silhouette decomposition.

Every feature subset of size 2..n is clustered with k-means for every k in
a configured range, and the mean silhouette of each run is recorded. A
feature's raw score is the sum of the silhouettes of all runs whose subset
contains it; dividing by the grand total of raw scores yields normalized
importance weights (proportions summing to 1), the basis of "resolution"
downstream.

The sweep is embarrassingly parallel, with one task per subset: the task
fits every k of the range on the subset's columns, so the column slice and
the silhouette's pairwise distances are shared by all its k. The checks run
once per sweep, before any fit. Two choices make its output independent of
execution order, worker count and dataset column order:

* each (subset, k) run derives its k-means seed from a stable hash of the
  base seed, the subset's sorted feature names and k;
* subset columns are always presented to k-means in feature-name order, and
  aggregation walks the score table in a name-based canonical order.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dataset import Dataset, minmax_columns, write_csv
from .errors import ParameterError
from .kmeans import kmeans_fit  # noqa: F401  (kept importable: perfbench/spans.py wraps it)
from .kmeans import kmeans_fits_unchecked, require_distinct

# a sweep of less work than this (rows x subsets x k values x restarts) runs
# in-process even when workers are allowed. Timed as the first sweep of a
# fresh process on 2 CPUs, k 3..6 and 10 restarts, 2 workers lost on every
# 150x3 table (24 000; 0.055-0.059 s in-process against 0.064-0.096 s) and
# were about even on 330x3 tables (53 000)
_POOL_MIN_WORK = 50_000


@dataclass(frozen=True)
class SubsetScore:
    """Mean silhouette of one k-means run on one feature subset."""

    subset: tuple[int, ...]
    k: int
    si: float


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


def enumerate_subsets(n_features: int) -> list[tuple[int, ...]]:
    """All index subsets of size 2..n, ordered by size then lexicographically.

    The count is 2^n - n - 1 (the power set minus the empty set and the
    singletons).
    """
    if n_features < 2:
        raise ParameterError("need at least 2 features to form subsets")
    out: list[tuple[int, ...]] = []
    for size in range(2, n_features + 1):
        out.extend(combinations(range(n_features), size))
    return out


def task_seed(base_seed: int, names, k: int) -> int:
    """Stable per-task seed from (base seed, sorted subset names, k)."""
    key = f"{base_seed}|{'|'.join(sorted(names))}|{k}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _score_subset(values, cols, seeds, ks, restarts) -> list[float]:
    # unchecked: frsd_rank has checked the k range, the restarts and every
    # feature pair, and a subset has no fewer distinct rows than its pairs
    fits = kmeans_fits_unchecked(values[:, cols], ks, seeds, restarts)
    return [fit.mean_silhouette for fit in fits]


def _process_pool(workers):
    """A pool of ``workers`` processes. Its machinery (``multiprocessing``
    and ``concurrent.futures.process``) is imported here, so only a sweep
    that starts workers loads it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def frsd_rank(data: Dataset, k_min: int, k_max: int, seed: int, restarts: int = 10,
              max_workers: int = 1) -> tuple[FeatureWeights, list[SubsetScore]]:
    """Rank features by decomposed silhouette scores.

    ``data`` is expected to be MinMax-normalized. Returns the weights plus
    the full (subset, k, si) score table, one row per subset per k in
    [k_min, k_max]. Output is identical for any ``max_workers``: a sweep of
    less work than ``_POOL_MIN_WORK`` runs in-process whatever its value, and
    a k the data cannot support (named with the first feature pair that has
    too few distinct rows) or ``restarts`` below 1 raises before any fit or
    worker starts.
    """
    if not 2 <= k_min <= k_max:
        raise ParameterError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    if k_max > data.n_samples:
        raise ParameterError(f"k_max={k_max} exceeds {data.n_samples} samples")

    subsets = enumerate_subsets(data.n_features)
    ks = tuple(range(k_min, k_max + 1))
    # a subset has no fewer distinct rows than a pair inside it, and pairs come
    # first in `subsets`: the first infeasible pair is the sweep's first
    # infeasible subset, found here before any fit runs or any worker starts
    for pair in combinations(range(data.n_features), 2):
        require_distinct(data.values[:, pair], ks, " in features "
                         + " and ".join(repr(data.feature_names[i]) for i in pair))
    if restarts < 1:
        raise ParameterError("restarts must be at least 1")
    # columns in name order: results cannot depend on column position
    cols = [tuple(sorted(subset, key=lambda i: data.feature_names[i])) for subset in subsets]
    names = [tuple(data.feature_names[i] for i in c) for c in cols]
    seeds = [tuple(task_seed(seed, n, k) for k in ks) for n in names]
    score = functools.partial(_score_subset, data.values, ks=ks, restarts=restarts)
    workers = min(max_workers, len(cols))  # the pool starts every worker up front
    if workers > 1 and data.n_samples * len(cols) * len(ks) * restarts >= _POOL_MIN_WORK:
        # about 8 chunks per worker, so short sweeps still reach every worker
        chunksize = max(1, len(cols) // (8 * workers))
        with _process_pool(workers) as pool:
            per_subset = list(pool.map(score, cols, seeds, chunksize=chunksize))
    else:
        per_subset = list(map(score, cols, seeds))

    scores = [SubsetScore(subset=subset, k=k, si=si)
              for subset, sis in zip(subsets, per_subset) for k, si in zip(ks, sis)]
    # canonical name-keyed aggregation order, so sums are reproducible
    # bit-for-bit regardless of column permutation
    keyed = sorted((len(n), n, k, si) for n, sis in zip(names, per_subset)
                   for k, si in zip(ks, sis))
    raw = {name: 0.0 for name in data.feature_names}
    for _, subset_names, _, si in keyed:
        for name in subset_names:
            raw[name] += si
    weights = FeatureWeights.from_scores(
        list(data.feature_names), [raw[n] for n in data.feature_names], source="FRSD"
    )
    return weights, scores


def write_subset_scores(scores, path) -> None:
    """Dump the score table as CSV with columns subset, k, si.

    Subsets are rendered as comma-joined 1-based feature positions, e.g.
    "1,3,7".
    """
    write_csv(path, ["subset", "k", "si"],
              [(",".join(str(i + 1) for i in s.subset), s.k, s.si) for s in scores])
