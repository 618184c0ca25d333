"""Independent oracles and data generators used across the test suite.

Everything here is deliberately written the slow, obvious way (plain loops,
closed-form roots, exhaustive enumeration) so it shares no code path with
the implementations it checks.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import islice, product
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from dimred import Dataset, kmeans


def brute_silhouette(data, labels):
    """Per-sample silhouettes by direct evaluation of the defining formulas."""
    data = [list(map(float, row)) for row in np.asarray(data)]
    labels = list(np.asarray(labels))
    n = len(data)
    out = []
    for i in range(n):
        mine = labels[i]
        same = [math.dist(data[i], data[j]) for j in range(n)
                if labels[j] == mine and j != i]
        if not same:
            out.append(0.0)
            continue
        a = sum(same) / len(same)
        b = math.inf
        for other in sorted(set(labels)):
            if other == mine:
                continue
            dists = [math.dist(data[i], data[j]) for j in range(n) if labels[j] == other]
            b = min(b, sum(dists) / len(dists))
        denom = max(a, b)
        out.append((b - a) / denom if denom > 0 else 0.0)
    return out


def exhaustive_best_inertia(data, k):
    """Globally optimal k-means inertia by enumerating every assignment."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    best = math.inf
    for assignment in product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        labels = np.array(assignment)
        inertia = 0.0
        for c in range(k):
            members = data[labels == c]
            center = members.mean(axis=0)
            inertia += ((members - center) ** 2).sum()
        best = min(best, inertia)
    return best


def pp_init(data, k, rng):
    """Distance-weighted (k-means++-style) seeding of one restart: a uniform
    first row, then each next row drawn with ``rng.choice`` weighted by its
    squared distance to the nearest centroid so far (uniform once all are 0)."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    closest = cdist(data, centroids[:1], "sqeuclidean")[:, 0]
    for j in range(1, k):
        total = closest.sum()
        idx = rng.choice(n, p=closest / total) if total > 0.0 else rng.integers(n)
        centroids[j] = data[idx]
        d = cdist(data, centroids[j : j + 1], "sqeuclidean")[:, 0]
        np.minimum(closest, d, out=closest)
    return centroids


def per_restart_kmeans(data, k, seed, restarts=10, max_iter=300, tol=1e-4):
    """``kmeans_fit`` the one-restart-at-a-time way: (labels, centroids,
    inertia, sample silhouettes).

    Each restart is seeded alone by ``pp_init`` and runs its own Lloyd loop
    with one distance call and a per-cluster mean per iteration: the
    members' running sum, row after row, over their count, at any number of
    columns (``.mean(axis=0)`` has these bits for 2 or more columns but sums
    a single column pairwise). Both
    ``pp_init`` and the package's empty-cluster refill are looked up at call
    time, so a test can patch them.
    """
    data = np.asarray(data, dtype=np.float64)
    rows = np.arange(data.shape[0])

    def assign(centroids):
        d2 = cdist(data, centroids, "sqeuclidean")
        labels = d2.argmin(axis=1)
        kmeans._fix_empty(labels, d2[rows, labels], np.bincount(labels, minlength=k))
        return labels

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed % (2**63), r]))
        centroids = pp_init(data, k, rng)
        for _ in range(max_iter):
            labels = assign(centroids)
            new_centroids = np.empty_like(centroids)
            for c in range(k):
                members = data[labels == c]
                new_centroids[c] = np.cumsum(members, axis=0)[-1] / len(members)
            shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
            centroids = new_centroids
            if shift < tol:
                break
        labels = assign(centroids)
        inertia = float(((data - centroids[labels]) ** 2).sum())
        if best is None or inertia < best[0]:
            best = (inertia, labels, centroids)
    inertia, labels, centroids = best
    return labels, centroids, inertia, kmeans.silhouette(data, labels)[0]


def charpoly_eigvals_2x2(m):
    """Descending eigenvalues of a symmetric 2x2 from the quadratic formula."""
    a, b = float(m[0][0]), float(m[0][1])
    d = float(m[1][1])
    disc = math.sqrt((a - d) ** 2 + 4.0 * b * b)
    return [(a + d + disc) / 2.0, (a + d - disc) / 2.0]


def charpoly_eigvals_3x3(m):
    """Descending eigenvalues of a symmetric 3x3 via the trigonometric solution
    of the characteristic cubic."""
    m = [[float(x) for x in row] for row in m]
    p1 = m[0][1] ** 2 + m[0][2] ** 2 + m[1][2] ** 2
    if p1 == 0.0:
        return sorted((m[0][0], m[1][1], m[2][2]), reverse=True)
    q = (m[0][0] + m[1][1] + m[2][2]) / 3.0
    p2 = (m[0][0] - q) ** 2 + (m[1][1] - q) ** 2 + (m[2][2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = [[(m[i][j] - (q if i == j else 0.0)) / p for j in range(3)] for i in range(3)]
    det_b = (
        b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
        - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
        + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0])
    )
    r = min(1.0, max(-1.0, det_b / 2.0))
    phi = math.acos(r) / 3.0
    eig1 = q + 2.0 * p * math.cos(phi)
    eig3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return sorted((eig1, eig2, eig3), reverse=True)


def hadamard_design(sigmas):
    """4-sample data whose sample covariance is diag(sigmas**2) up to rounding.

    Columns are mutually orthogonal, zero-mean Hadamard columns scaled so
    that column j has sample variance sigmas[j]**2.
    """
    h = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    return h * (np.asarray(sigmas) * np.sqrt(3.0) / 2.0)


SYMMETRIC_FIXTURES_2X2 = [
    [[4.0, 0.0], [0.0, 1.0]],
    [[2.0, 1.0], [1.0, 2.0]],
    [[1.0, -3.0], [-3.0, 5.0]],
    [[0.0, 1e-3], [1e-3, 0.0]],
]

SYMMETRIC_FIXTURES_3X3 = [
    [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.25]],
    [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]],
    [[5.0, -2.0, 0.5], [-2.0, 1.0, 0.3], [0.5, 0.3, 4.0]],
    [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
]


def powerset_subsets(n):
    """All index subsets of size >= 2, enumerated by bitmask."""
    out = set()
    for mask in range(1, 2**n):
        subset = tuple(i for i in range(n) if mask & (1 << i))
        if len(subset) >= 2:
            out.add(subset)
    return out


def make_blobs_with_noise(seed, n_samples=60, n_noise=2, spread=0.35):
    """Three well-separated blobs in 3 informative columns plus uniform noise.

    Constructed so that (a) informative features should outrank noise
    features in any sane importance ranking and (b) clustering only the
    informative columns is more consistent than clustering everything.
    """
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 0.0], [0.0, 8.0, 8.0]])
    per = n_samples // 3
    informative = np.vstack([
        center + rng.normal(scale=spread, size=(per, 3)) for center in centers
    ])
    noise = rng.uniform(0.0, 8.0, size=(informative.shape[0], n_noise))
    values = np.hstack([informative, noise])
    names = [f"inf{i + 1}" for i in range(3)] + [f"noise{i + 1}" for i in range(n_noise)]
    return Dataset(feature_names=names, values=values)


def make_dataset(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"f{i + 1}" for i in range(values.shape[1])]
    return Dataset(feature_names=names, values=values)


def outputs_by_name(out_dir, names):
    """The files in ``out_dir`` as bytes, but ``subset_scores.csv`` as its rows
    of (sorted feature names, k, si), each subset's 1-based positions read as
    positions in ``names``."""
    files = {path.name: path.read_bytes() for path in Path(out_dir).iterdir()}
    if "subset_scores.csv" in files:
        rows = csv.reader(io.StringIO(files["subset_scores.csv"].decode("utf-8")))
        files["subset_scores.csv"] = [
            (sorted(names[int(i) - 1] for i in subset.split(",")), k, si)
            for subset, k, si in islice(rows, 1, None)]
    return files


def write_dataset_csv(ds, path):
    lines = ["id," + ",".join(ds.feature_names)]
    for i, row in enumerate(ds.values):
        lines.append(f"r{i}," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class InProcessPool:
    """A stand-in for ``ProcessPoolExecutor`` that runs every task in this
    process, so spies see its fits. It records the arguments of each
    submitted task (``pool_map``'s bound function and chunk) and the most
    submitted tasks whose results were not yet taken."""

    def __init__(self, max_workers):
        self._max_workers = max_workers
        self.tasks = []
        self.taken = self.most_in_flight = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    @property
    def submitted(self):
        return len(self.tasks)

    def items(self, func):
        """The items of the submitted chunks whose bound function wraps ``func``."""
        return [item for fn, chunk in self.tasks if fn.func is func for item in chunk]

    def submit(self, fn, *args):
        value = fn(*args)
        self.tasks.append(args)
        self.most_in_flight = max(self.most_in_flight, self.submitted - self.taken)
        return _Done(self, value)


class _Done:
    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.taken += 1
        return self.value
