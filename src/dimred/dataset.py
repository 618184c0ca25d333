"""CSV ingestion and per-column MinMax normalization.

A dataset is a rectangular numeric table: one identifier column followed by
named feature columns. Every downstream stage (feature ranking, PCA,
clustering) operates on the MinMax-normalized table, so the raw scales of
the input columns never leak into distance computations.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConstantColumnWarning, IngestionError, ParameterError, SchemaError


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable numeric table with row identifiers and named columns.

    Invariants (enforced at construction): the value matrix is rectangular
    with one row per id and one column per feature name, feature names are
    unique, there are at least 2 features and at least as many samples as
    features, and every entry is finite.
    """

    ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ParameterError("values must be a 2-D matrix")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        n_samples, n_features = values.shape
        if len(self.ids) != n_samples:
            raise ParameterError(
                f"{len(self.ids)} ids for {n_samples} rows"
            )
        if len(self.feature_names) != n_features:
            raise ParameterError(
                f"{len(self.feature_names)} names for {n_features} columns"
            )
        if len(set(self.feature_names)) != n_features:
            raise SchemaError("feature names are not unique")
        if n_features < 2:
            raise ParameterError("need at least 2 feature columns")
        if n_samples < n_features:
            raise ParameterError(
                f"need at least as many samples ({n_samples}) as features ({n_features})"
            )
        if not np.isfinite(values).all():
            raise ParameterError("values contain non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def load_csv(path) -> Dataset:
    """Read a CSV file into a :class:`Dataset`.

    Expected layout: UTF-8, comma-delimited, '.' decimal point. The first
    row is a header; its first cell names the identifier column and the
    remaining cells name the feature columns. Every data row holds the row
    identifier followed by one real number per feature.

    Raises :class:`SchemaError` on duplicate header names and
    :class:`IngestionError` on malformed rows (naming the line and cell),
    on a file without data rows, on non-UTF-8 bytes and on over-long cells.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestionError(f"{path}: file is empty") from None
            if len(header) < 3:
                raise SchemaError(
                    f"{path}: header must name an id column and at least 2 features"
                )
            feature_names = [h.strip() for h in header[1:]]
            if len(set(feature_names)) != len(feature_names):
                dupes = sorted({n for n in feature_names if feature_names.count(n) > 1})
                raise SchemaError(f"{path}: duplicate header names {dupes}")

            ids: list[str] = []
            values = array("d")  # row after row, 8 bytes a value, not a 32-byte float
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                ids.append(row[0].strip())
                for name, cell in zip(feature_names, row[1:]):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise IngestionError(
                            f"{path}: line {lineno}, column {name!r}: "
                            f"cannot parse {cell.strip()!r} as a number"
                        ) from None
                    if not math.isfinite(value):
                        raise IngestionError(
                            f"{path}: line {lineno}, column {name!r}: "
                            f"non-finite value {cell.strip()!r}"
                        )
                    values.append(value)
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell over the csv limit
        raise IngestionError(f"{path}: cannot read as UTF-8 CSV: {exc}") from None
    if not ids:
        raise IngestionError(f"{path}: no data rows")

    return Dataset(ids=tuple(ids), feature_names=tuple(feature_names),
                   values=np.frombuffer(values).reshape(len(ids), len(feature_names)))


def write_csv(path, header, rows) -> None:
    """Write a header row and then ``rows`` as a UTF-8 CSV file.

    A float is written as its ``repr``, which reads back exactly; ``None``
    becomes an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def minmax_columns(matrix) -> np.ndarray:
    """Per-column MinMax of a plain matrix onto [0, 1]; constants map to 0.

    Silent counterpart of :func:`minmax_normalize` for derived matrices
    (e.g. principal-component coordinates before radar rendering).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    out = np.zeros_like(matrix)
    nonconst = (span > 0.0) & (span < np.inf)
    out[:, nonconst] = (matrix[:, nonconst] - lo[nonconst]) / span[nonconst]
    # a span above the float64 maximum: halving is exact away from subnormals,
    # so the halved values give the quotient the overflow would have spoiled
    huge = span == np.inf
    half_lo, half_hi = lo[huge] / 2, hi[huge] / 2
    out[:, huge] = (matrix[:, huge] / 2 - half_lo) / (half_hi - half_lo)
    return out


def minmax_normalize(data: Dataset) -> Dataset:
    """Map every column independently onto [0, 1] via (x - min) / (max - min).

    A constant column carries no information for clustering; it is mapped
    to all zeros and a :class:`ConstantColumnWarning` is emitted so callers
    can surface it.
    """
    values = minmax_columns(data.values)
    # every other column reaches exactly 1.0, the overflow path included
    for j in np.flatnonzero(values.max(axis=0) == 0.0):
        warnings.warn(
            f"column {data.feature_names[j]!r} is constant; normalized to 0.0",
            ConstantColumnWarning,
            stacklevel=2,
        )
    return Dataset(ids=data.ids, feature_names=data.feature_names, values=values)
