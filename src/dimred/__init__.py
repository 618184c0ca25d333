"""Automated dimensionality-reduction decisions for k-means clustering.

Given a numeric table and a preference split between interpretability and
integrity, the pipeline ranks features with silhouette decomposition (FRSD)
and principal components with explained variance, keeps just enough of
either to reach a target resolution, clusters both candidates, and picks
the strategy with the better preference-weighted silhouette.
"""

from .dataset import Dataset, load_csv, minmax_columns, minmax_normalize
from .decision import (DecisionConfig, DecisionOutcome, DecisionReport,
                       EXTRACTION, Rankings, SELECTION, best_silhouette_over_k,
                       decide, evaluate, rank, run_decision_detailed,
                       select_for_resolution)
from .errors import (ConstantColumnWarning, DimredError, IngestionError,
                     MetricUndefinedError, ParameterError, SchemaError)
from .figures import RadarSeries, render_silhouette_plot, render_stacked_radar
from .frsd import FeatureWeights, enumerate_subsets, frsd_rank, write_subset_scores
from .kmeans import ClusteringResult, kmeans_fit, kmeans_fits, silhouette
from .pca import PcaModel, jacobi_eigh, pca_fit, pca_importance, pca_project
from .validation import (RandomCase, SweepRow, generate_cases,
                         count_misclassified, resolution_sweep)

__version__ = "0.1.0"

__all__ = [
    "ClusteringResult",
    "ConstantColumnWarning",
    "Dataset",
    "DecisionConfig",
    "DecisionOutcome",
    "DecisionReport",
    "DimredError",
    "EXTRACTION",
    "FeatureWeights",
    "IngestionError",
    "MetricUndefinedError",
    "ParameterError",
    "PcaModel",
    "RadarSeries",
    "RandomCase",
    "Rankings",
    "SELECTION",
    "SchemaError",
    "SweepRow",
    "best_silhouette_over_k",
    "count_misclassified",
    "decide",
    "enumerate_subsets",
    "evaluate",
    "frsd_rank",
    "generate_cases",
    "jacobi_eigh",
    "kmeans_fit",
    "kmeans_fits",
    "load_csv",
    "minmax_columns",
    "minmax_normalize",
    "pca_fit",
    "pca_importance",
    "pca_project",
    "rank",
    "render_silhouette_plot",
    "render_stacked_radar",
    "resolution_sweep",
    "run_decision_detailed",
    "select_for_resolution",
    "silhouette",
    "write_subset_scores",
]
