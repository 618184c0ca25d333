"""Feature ranking by silhouette decomposition.

Every feature subset of size 2..n is clustered with k-means for every k in
a configured range, and the mean silhouette of each run is recorded. A
feature's raw score is the sum of the silhouettes of all runs whose subset
contains it; dividing by the grand total of raw scores yields normalized
importance weights (proportions summing to 1), the basis of "resolution"
downstream.

The sweep is embarrassingly parallel, with one task per subset: the task
fits every k of the range on the subset's columns, so the column slice, the
checks and the silhouette's pairwise distances are shared by all its k. Two
choices make its output independent of execution order, worker count and
dataset column order:

* each (subset, k) run derives its k-means seed from a stable hash of the
  base seed, the subset's sorted feature names and k;
* subset columns are always presented to k-means in feature-name order, and
  aggregation walks the score table in a name-based canonical order.
"""

from __future__ import annotations

import csv
import hashlib
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dataset import Dataset
from .errors import ParameterError
from .kmeans import kmeans_fit  # noqa: F401  (kept importable: perfbench/spans.py wraps it)
from .kmeans import kmeans_fits


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
        w = self.weights
        span = w.max() - w.min()
        if span == 0.0:
            return tuple((n, 0.0) for n, _ in self.entries)
        return tuple((n, float((v - w.min()) / span)) for n, v in self.entries)


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


def _score_subset(values, cols, ks, seeds, restarts, max_iter, tol) -> list[float]:
    fits = kmeans_fits(values[:, cols], ks, seeds, restarts, max_iter, tol)
    return [fit.mean_silhouette for fit in fits]


# worker-process state; set once per worker by the pool initializer
_POOL_VALUES: np.ndarray | None = None


def _pool_init(values: np.ndarray) -> None:
    global _POOL_VALUES
    _POOL_VALUES = values


def _pool_task(args) -> list[float]:
    return _score_subset(_POOL_VALUES, *args)


def frsd_rank(data: Dataset, k_min: int, k_max: int, seed: int,
              restarts: int = 10, max_iter: int = 300, tol: float = 1e-4,
              max_workers: int = 1) -> tuple[FeatureWeights, list[SubsetScore]]:
    """Rank features by decomposed silhouette scores.

    ``data`` is expected to be MinMax-normalized. Returns the weights plus
    the full (subset, k, si) score table, one row per subset per k in
    [k_min, k_max]. Output is identical for any ``max_workers``.
    """
    if not 2 <= k_min <= k_max:
        raise ParameterError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    if k_max > data.n_samples:
        raise ParameterError(f"k_max={k_max} exceeds {data.n_samples} samples")

    subsets = enumerate_subsets(data.n_features)
    ks = tuple(range(k_min, k_max + 1))
    tasks = []
    for subset in subsets:
        names = tuple(sorted(data.feature_names[i] for i in subset))
        # columns in name order: results cannot depend on column position
        cols = tuple(sorted(subset, key=lambda i: data.feature_names[i]))
        tasks.append((subset, names, cols))

    args = [(cols, ks, tuple(task_seed(seed, names, k) for k in ks), restarts, max_iter, tol)
            for _, names, cols in tasks]
    if max_workers > 1:
        # about 8 chunks per worker, so short sweeps still reach every worker
        chunksize = max(1, len(args) // (8 * max_workers))
        with ProcessPoolExecutor(max_workers=max_workers, initializer=_pool_init,
                                 initargs=(data.values,)) as pool:
            per_subset = list(pool.map(_pool_task, args, chunksize=chunksize))
    else:
        per_subset = [_score_subset(data.values, *a) for a in args]
    runs = [(subset, names, k, si) for (subset, names, _), sis in zip(tasks, per_subset)
            for k, si in zip(ks, sis)]

    scores = [SubsetScore(subset=subset, k=k, si=si) for subset, _, k, si in runs]

    # canonical name-keyed aggregation order, so sums are reproducible
    # bit-for-bit regardless of column permutation
    keyed = sorted((len(names), names, k, si) for _, names, k, si in runs)
    raw = {name: 0.0 for name in data.feature_names}
    for _, names, _, si in keyed:
        for name in names:
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subset", "k", "si"])
        for score in scores:
            writer.writerow([",".join(str(i + 1) for i in score.subset),
                             score.k, repr(score.si)])
