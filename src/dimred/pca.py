"""Principal component analysis via Jacobi eigendecomposition.

The sample covariance matrix (divisor n-1) is diagonalized with cyclic
Jacobi rotations, which is exact enough and fully deterministic for the
small feature counts this package targets (d up to ~20). Components carry a
fixed sign convention so projections are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .frsd import FeatureWeights
from .kmeans import _check_data

_JACOBI_TOL = 1e-10  # sweeps stop once the off-diagonal norm is below this
_MAX_SWEEPS = 100  # and after this many at most


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Fitted PCA basis: column means plus orthonormal principal directions.

    ``components`` rows are unit-norm directions ordered by descending
    eigenvalue; ``explained_variance`` holds the eigenvalues and
    ``explained_variance_ratio`` their fractions of the total.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def _rotate(x, y, c, s):
    """(x, y) turned by the plane rotation with cosine c and sine s."""
    return c * x - s * y, s * x + c * y


def jacobi_eigh(matrix):
    """Eigenvalues and eigenvectors of a symmetric matrix by cyclic Jacobi.

    At most ``_MAX_SWEEPS`` sweeps rotate away each off-diagonal pair in turn,
    until the off-diagonal Frobenius norm is below ``_JACOBI_TOL``. Returns
    (eigenvalues, eigenvectors) with eigenvectors in columns, unsorted.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ParameterError("matrix must be symmetric")
    d = a.shape[0]
    v = np.eye(d)
    upper = np.triu_indices(d, k=1)
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(2.0 * (a[upper] ** 2).sum())
        if off < _JACOBI_TOL:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:  # theta**2 would overflow
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                a[:, p], a[:, q] = _rotate(a[:, p], a[:, q], c, s)
                a[p, :], a[q, :] = _rotate(a[p, :], a[q, :], c, s)
                a[p, q] = a[q, p] = 0.0
                v[:, p], v[:, q] = _rotate(v[:, p], v[:, q], c, s)
    return np.diag(a).copy(), v


def pca_fit(data) -> PcaModel:
    """Fit a full-rank PCA model on the columns of ``data``.

    Centers by column means, eigendecomposes the sample covariance matrix
    and orders components by descending eigenvalue. Sign convention: the
    entry of largest absolute value in each component is nonnegative.
    """
    data = _check_data(data)
    if data.shape[0] == 1:
        raise ParameterError("PCA needs more than one sample")

    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigenvalues, eigenvectors = jacobi_eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    components = eigenvectors[:, order].T.copy()

    total = eigenvalues.sum()
    if total == 0.0:
        raise ParameterError("data has zero total variance")

    for row in components:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0

    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=eigenvalues,
        explained_variance_ratio=eigenvalues / total,
    )


def pca_importance(model: PcaModel) -> FeatureWeights:
    """Per-component importance weights: the explained-variance ratios.

    Entries are named PC1..PCd and are already in descending order because
    eigenvalues are.
    """
    names = [f"PC{i + 1}" for i in range(model.n_components)]
    return FeatureWeights.from_scores(names, model.explained_variance_ratio, source="PCA")


def pca_project(model: PcaModel, data, m: int) -> np.ndarray:
    """Coordinates of ``data`` on the first ``m`` principal directions."""
    data = np.asarray(data, dtype=np.float64)
    if not 1 <= m <= model.n_components:
        raise ParameterError(f"m={m} out of range [1, {model.n_components}]")
    return (data - model.mean) @ model.components[:m].T
