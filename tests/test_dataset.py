"""Ingestion and MinMax normalization."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dimred import (ConstantColumnWarning, Dataset, IngestionError,
                    ParameterError, SchemaError, load_csv, minmax_normalize)
from helpers import make_dataset, write_dataset_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_minimal_well_formed(self, tmp_path):
        path = write(tmp_path, "ward,IMD Score,Income Score\nw1,1.5,2.0\nw2,3.0,4.5\n")
        ds = load_csv(path)
        assert ds.n_samples == 2
        assert ds.n_features == 2
        assert ds.feature_names == ("IMD Score", "Income Score")
        np.testing.assert_allclose(ds.values, [[1.5, 2.0], [3.0, 4.5]])

    def test_blank_line_is_skipped(self, tmp_path):
        path = write(tmp_path, "id,a,b\nr1,1.0,2.0\n\nr2,3.0,4.0\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("ids", [["r1", "r2", "r3"], ["x", "x", "x"], ["", "", ""]])
    def test_id_column_is_read_past(self, tmp_path, ids):
        rows = [[1.0, 2.0], [3.0, 4.5], [-1.0, 0.25]]
        lines = ["id,a,b"] + [f"{i},{a},{b}" for i, (a, b) in zip(ids, rows)]
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"))
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.values, rows)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "id,a,b\nr1,1.0,2.0\nr2,abc,3.0\n")
        with pytest.raises(IngestionError, match=r"line 3.*'a'.*'abc'"):
            load_csv(path)

    def test_wrong_arity_names_line(self, tmp_path):
        path = write(tmp_path, "id,a,b\nr1,1.0\n")
        with pytest.raises(IngestionError, match="line 2"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "id,a,a\nr1,1.0,2.0\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = write(tmp_path, "id,a,b\nr1,nan,2.0\nr2,1.0,3.0\n")
        with pytest.raises(IngestionError, match="non-finite"):
            load_csv(path)

    def test_column_order_preserved(self, tmp_path):
        path = write(tmp_path, "id,z,a,m\nr1,1,2,3\nr2,4,5,6\nr3,7,8,9\n")
        assert load_csv(path).feature_names == ("z", "a", "m")

    def test_london_sized_file(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ["IMD", "Income", "Employment", "Health",
                 "Education", "Barriers", "Crime", "Living"]
        lines = ["ward," + ",".join(names)]
        for i in range(630):
            row = rng.uniform(0, 80, size=8)
            lines.append(f"E{i:08d}," + ",".join(f"{v:.4f}" for v in row))
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"))
        assert ds.n_samples == 630
        assert ds.n_features == 8

    def test_header_only_has_no_samples(self, tmp_path):
        path = write(tmp_path, "id,a,b\n")
        with pytest.raises(IngestionError, match=r"data\.csv: no data rows$"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(IngestionError, match=r"data\.csv: file is empty$"):
            load_csv(path)

    def test_header_with_one_feature(self, tmp_path):
        path = write(tmp_path, "id,a\nr1,1.0\n")
        with pytest.raises(SchemaError, match=r"data\.csv: header must name an id column "
                                              r"and at least 2 features$"):
            load_csv(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,caf\xe9,b\nr1,1.0,2.0\nr2,3.0,4.0\n")  # 0xe9 is latin-1 'e acute'
        with pytest.raises(IngestionError, match=r"^" + re.escape(str(path)) + ": "):
            load_csv(path)

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        path = write(tmp_path, "id,a,b\nr1," + "1" * 200_000 + ",2.0\nr2,3.0,4.0\n")
        with pytest.raises(IngestionError, match=r"^" + re.escape(str(path)) + ": "):
            load_csv(path)

    def test_parse_holds_each_value_in_8_bytes(self, tmp_path):
        n, d = 20_000, 4
        path = write_dataset_csv(make_dataset(np.random.default_rng(1).uniform(size=(n, d))),
                                 tmp_path / "tall.csv")
        tracemalloc.start()
        try:
            ds = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parse buffer (8 bytes a value, grown by about 1/16 at a time) and
        # the Dataset's own copy, 2 * 8*n*d, and slack; a list of 32-byte
        # Python floats takes 4 * 8*n*d on its own, and keeping the row ids
        # would take more than the slack
        assert peak < 3 * 8 * n * d
        assert ds.values.shape == (n, d)


class TestDatasetInvariants:
    def test_needs_two_features(self):
        with pytest.raises(ParameterError):
            make_dataset([[1.0], [2.0]])

    def test_needs_samples_at_least_features(self):
        with pytest.raises(ParameterError):
            make_dataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            make_dataset([[1.0, np.inf], [2.0, 3.0]])

    @pytest.mark.parametrize("names, values, error, message", [
        (["a", "b"], [1.0, 2.0], ParameterError, "values must be a 2-D matrix"),
        (["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0]], ParameterError, "3 names for 2 columns"),
        (["a", "a"], [[1.0, 2.0], [3.0, 4.0]], SchemaError, "feature names are not unique"),
        ([1, "1", "b"], [[1.0, 2.0, 3.0]], SchemaError, "feature names are not unique"),
    ])
    def test_rejects_inconsistent_parts(self, names, values, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Dataset(names, values)

    def test_values_are_immutable(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 9.0

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_holds_one_converted_copy(self, dtype):
        n, d = 20_000, 4
        values = np.arange(n * d, dtype=dtype).reshape(d, n).T  # column-major
        tracemalloc.start()
        try:
            ds = Dataset(["a", "b", "c", "d"], values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 copy is 8*n*d; converting and then copying held two
        assert peak < 1.5 * 8 * n * d
        assert not np.shares_memory(ds.values, values)
        assert ds.values.flags.c_contiguous


class TestMinMax:
    def test_symmetric_range(self):
        ds = make_dataset([[0.0, 1.0], [5.0, 2.0], [10.0, 3.0]])
        out = minmax_normalize(ds)
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_warns_and_zeros(self):
        ds = make_dataset([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
        with pytest.warns(ConstantColumnWarning):
            out = minmax_normalize(ds)
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.0, 0.0])

    def test_two_point_column_hits_bounds(self):
        ds = make_dataset([[2.0, 0.0], [4.0, 1.0]])
        out = minmax_normalize(ds)
        np.testing.assert_allclose(out.values[:, 0], [0.0, 1.0])

    def test_each_column_spans_unit_interval(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.normal(size=(20, 4)))
        out = minmax_normalize(ds)
        np.testing.assert_allclose(out.values.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(out.values.max(axis=0), 1.0, atol=1e-15)

    def test_range_above_float64_max(self):
        # max - min overflows to inf although every value is finite
        column = [1e308, -1e308, 0.0, 5e307, -2.5e307]
        ds = make_dataset(np.column_stack([column, np.arange(5.0)]))
        with np.errstate(over="raise"):
            out = minmax_normalize(ds).values
        np.testing.assert_allclose(out[:, 0], [1.0, 0.0, 0.5, 0.75, 0.375], rtol=1e-15)
        assert out[:, 0].min() == 0.0 and out[:, 0].max() == 1.0
        np.testing.assert_array_equal(out[:, 1], np.arange(5.0) / 4)


finite_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 12), st.integers(2, 3)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
)


class TestMinMaxProperties:
    @given(finite_matrices)
    @settings(max_examples=60)
    def test_idempotent(self, values):
        ds = make_dataset(values)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantColumnWarning)
            once = minmax_normalize(ds)
            twice = minmax_normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12, rtol=0)

    @given(finite_matrices)
    @settings(max_examples=60)
    def test_order_preserved_per_column(self, values):
        ds = make_dataset(values)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantColumnWarning)
            out = minmax_normalize(ds)
        for j in range(ds.n_features):
            raw_order = np.argsort(ds.values[:, j], kind="stable")
            z = out.values[raw_order, j]
            assert np.all(np.diff(z) >= 0.0)

    # dyadic values and power-of-two scales keep the affine map itself exact,
    # so the invariance can be asserted at full precision
    dyadic_matrices = arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(3, 12), st.integers(2, 3)),
        elements=st.integers(-(2**20), 2**20).map(lambda i: i / 1024.0),
    )

    @given(dyadic_matrices,
           st.sampled_from([0.5, 2.0, 4.0, 8.0]),
           st.integers(-8, 8).map(float))
    @settings(max_examples=60)
    def test_affine_invariance(self, values, scale, shift):
        ds = make_dataset(values)
        scaled = make_dataset(values * scale + shift)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantColumnWarning)
            a = minmax_normalize(ds)
            b = minmax_normalize(scaled)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12, rtol=0)
