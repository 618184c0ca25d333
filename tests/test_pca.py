"""PCA model, Jacobi eigensolver and importance weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimred import ParameterError
from dimred.pca import jacobi_eigh, pca_fit, pca_importance, pca_project
from helpers import (SYMMETRIC_FIXTURES_2X2 as FIXTURES_2X2,
                     SYMMETRIC_FIXTURES_3X3 as FIXTURES_3X3,
                     charpoly_eigvals_2x2, charpoly_eigvals_3x3, hadamard_design)

RANK1 = np.array([[-1.5, -1.5], [-0.5, -0.5], [0.5, 0.5], [1.5, 1.5]])

DIAG_DATA = hadamard_design([2.0, 1.0, 0.5])  # covariance diag(4, 1, 0.25)


class TestJacobi:
    @pytest.mark.parametrize("matrix", FIXTURES_2X2)
    def test_matches_quadratic_roots(self, matrix):
        eigenvalues, _ = jacobi_eigh(np.array(matrix))
        expected = charpoly_eigvals_2x2(matrix)
        np.testing.assert_allclose(sorted(eigenvalues, reverse=True), expected,
                                   atol=1e-9)

    @pytest.mark.parametrize("matrix", FIXTURES_3X3)
    def test_matches_cubic_roots(self, matrix):
        eigenvalues, _ = jacobi_eigh(np.array(matrix))
        expected = charpoly_eigvals_3x3(matrix)
        np.testing.assert_allclose(sorted(eigenvalues, reverse=True), expected,
                                   atol=1e-9)

    @given(st.integers(0, 2**32), st.sampled_from([2, 3]))
    @settings(max_examples=60)
    def test_matches_oracle_on_random_symmetric(self, seed, d):
        rng = np.random.default_rng(seed)
        m = rng.normal(scale=3.0, size=(d, d))
        m = (m + m.T) / 2.0
        eigenvalues, vectors = jacobi_eigh(m)
        oracle = charpoly_eigvals_2x2(m) if d == 2 else charpoly_eigvals_3x3(m)
        np.testing.assert_allclose(sorted(eigenvalues, reverse=True), oracle,
                                   atol=1e-9)
        np.testing.assert_allclose(vectors @ np.diag(eigenvalues) @ vectors.T, m,
                                   atol=1e-9)

    def test_tiny_pivot_takes_the_overflow_free_rotation(self):
        # theta = (1 - 0) / 2e-160 = 5e159, whose square overflows float64
        m = np.array([[0.0, 1e-160, 0.0], [1e-160, 1.0, 0.5], [0.0, 0.5, 2.0]])
        eigenvalues, vectors = jacobi_eigh(m)
        np.testing.assert_allclose(sorted(eigenvalues), np.linalg.eigvalsh(m), atol=1e-12)
        np.testing.assert_allclose(vectors @ np.diag(eigenvalues) @ vectors.T, m, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError, match="^matrix must be square$"):
            jacobi_eigh(np.ones((2, 3)))


class TestPcaFit:
    @pytest.mark.parametrize("data, message", [
        (np.arange(4.0), "data must be a nonempty 2-D matrix"),
        (np.empty((0, 3)), "data must be a nonempty 2-D matrix"),
        (np.array([[1.0, 2.0]]), "PCA needs more than one sample"),
        (np.array([[0.0, 1.0], [np.inf, 2.0], [1.0, 0.0]]), "data contains non-finite entries"),
    ])
    def test_rejects_bad_input(self, data, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            pca_fit(data)

    def test_rank1_data(self):
        model = pca_fit(RANK1)
        np.testing.assert_allclose(model.explained_variance_ratio, [1.0, 0.0],
                                   atol=1e-9)
        np.testing.assert_allclose(model.components[0],
                                   [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-9)

    def test_isotropic_data(self):
        data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = pca_fit(data)
        np.testing.assert_allclose(model.explained_variance_ratio, [0.5, 0.5],
                                   atol=1e-9)

    def test_diagonal_covariance_fixture(self):
        model = pca_fit(DIAG_DATA)
        total = 4.0 + 1.0 + 0.25
        np.testing.assert_allclose(model.explained_variance, [4.0, 1.0, 0.25],
                                   atol=1e-9)
        np.testing.assert_allclose(model.explained_variance_ratio,
                                   [4.0 / total, 1.0 / total, 0.25 / total],
                                   atol=1e-9)
        # against the characteristic-polynomial oracle on the actual covariance
        centered = DIAG_DATA - DIAG_DATA.mean(axis=0)
        cov = centered.T @ centered / (DIAG_DATA.shape[0] - 1)
        np.testing.assert_allclose(model.explained_variance,
                                   charpoly_eigvals_3x3(cov), atol=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ParameterError, match="variance"):
            pca_fit(np.ones((4, 2)))

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_model_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 30)), int(rng.integers(2, 6))
        data = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
        model = pca_fit(data)
        # orthonormal rows
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(d), atol=1e-8)
        # nonincreasing eigenvalues, ratios sum to 1
        assert np.all(np.diff(model.explained_variance) <= 1e-12)
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)
        # trace identity
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        assert model.explained_variance.sum() == pytest.approx(
            np.trace(cov), rel=1e-8)
        # sign convention: largest-magnitude entry of each component nonnegative
        for row in model.components:
            assert row[np.argmax(np.abs(row))] >= 0.0
        # variance of projected coordinate j equals eigenvalue j
        proj = pca_project(model, data, d)
        variances = proj.var(axis=0, ddof=1)
        np.testing.assert_allclose(variances, model.explained_variance,
                                   rtol=1e-8, atol=1e-12)


class TestPcaProject:
    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(12, 4))
        model = pca_fit(data)
        proj = pca_project(model, data, 4)
        reconstructed = proj @ model.components
        np.testing.assert_allclose(reconstructed, data - model.mean, atol=1e-8)

    def test_full_rank_preserves_distances(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(10, 3))
        model = pca_fit(data)
        proj = pca_project(model, data, 3)
        from scipy.spatial.distance import pdist
        np.testing.assert_allclose(pdist(proj), pdist(data), rtol=1e-8)

    def test_rank1_line_coordinates(self):
        model = pca_fit(RANK1)
        proj = pca_project(model, RANK1, 1)
        expected = np.sqrt(2.0) * RANK1[:, 0]
        assert (np.allclose(proj[:, 0], expected, atol=1e-8)
                or np.allclose(proj[:, 0], -expected, atol=1e-8))

    def test_mean_projects_to_zero(self):
        model = pca_fit(DIAG_DATA)
        proj = pca_project(model, model.mean[None, :], 3)
        np.testing.assert_allclose(proj, 0.0, atol=1e-12)

    def test_m_out_of_range(self):
        model = pca_fit(RANK1)
        with pytest.raises(ParameterError):
            pca_project(model, RANK1, 0)
        with pytest.raises(ParameterError):
            pca_project(model, RANK1, 3)


class TestPcaImportance:
    def test_rank1_weights(self):
        weights = pca_importance(pca_fit(RANK1))
        assert weights.entries[0][0] == "PC1"
        assert weights.entries[0][1] == pytest.approx(1.0, abs=1e-9)
        assert weights.entries[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_fixture_weights(self):
        weights = pca_importance(pca_fit(DIAG_DATA))
        values = [w for _, w in weights.entries]
        np.testing.assert_allclose(values, [0.7619, 0.1905, 0.0476], atol=1e-3)

    def test_eight_feature_shape(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(630, 1))
        data = base + 0.6 * rng.normal(size=(630, 8))
        weights = pca_importance(pca_fit(data))
        names = [n for n, _ in weights.entries]
        values = np.array([w for _, w in weights.entries])
        assert names == [f"PC{i}" for i in range(1, 9)]
        assert values.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(values) <= 0.0)
