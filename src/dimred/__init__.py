"""Automated dimensionality-reduction decisions for k-means clustering.

Given a numeric table and a preference split between interpretability and
integrity, the pipeline ranks features with silhouette decomposition (FRSD)
and principal components with explained variance, keeps just enough of
either to reach a target resolution, clusters both candidates, and picks
the strategy with the better preference-weighted silhouette.
"""

from .dataset import Dataset, load_csv
from .decision import (EXTRACTION, SELECTION, DecisionConfig, DecisionOutcome, DecisionReport,
                       Rankings, decide, evaluate, rank, run_decision_detailed)
from .errors import (ConstantColumnWarning, DimredError, IngestionError, MetricUndefinedError,
                     ParameterError, SchemaError)
from .frsd import FeatureWeights, write_subset_scores
from .kmeans import ClusteringResult, kmeans_fits, silhouette

__version__ = "0.1.0"

# what README.md documents; everything else stays in its submodule
__all__ = [
    # calls
    "load_csv", "rank", "evaluate", "run_decision_detailed", "decide", "kmeans_fits",
    "silhouette", "write_subset_scores",
    # what they take and return
    "Dataset", "DecisionConfig", "Rankings", "DecisionOutcome", "DecisionReport",
    "ClusteringResult", "FeatureWeights", "SELECTION", "EXTRACTION",
    # errors
    "DimredError", "IngestionError", "SchemaError", "ParameterError", "MetricUndefinedError",
    "ConstantColumnWarning",
]
