"""Choosing between feature selection and feature extraction.

The user states how much they value interpretability (keeping feature
names) versus integrity (keeping information content); the two preferences
must sum to 1. Each strategy is scored as preference x best achievable mean
silhouette after reducing to the target resolution, and the larger score
wins. Resolution is the cumulative importance weight retained.

``rank`` does the costly, preference-free part once (normalize, FRSD, PCA);
``evaluate`` does the cheap part per scenario (reduce, cluster, decide).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import Dataset, minmax_normalize
from .errors import ParameterError
from .frsd import FeatureWeights, check_k_range, frsd_rank, pool_map, worker_pool
from .kmeans import kmeans_fit  # noqa: F401  (kept importable: perfbench/spans.py wraps it)
from .kmeans import ClusteringResult, kmeans_fits
from .pca import PcaModel, pca_fit, pca_importance, pca_project

SELECTION = "SELECTION"
EXTRACTION = "EXTRACTION"


def _check_preferences(interpretability: float, integrity: float) -> None:
    if not 0.0 <= interpretability <= 1.0:
        raise ParameterError("interpretability_oriented must be in [0, 1]")
    if not 0.0 <= integrity <= 1.0:
        raise ParameterError("integrity_oriented must be in [0, 1]")
    if abs(interpretability + integrity - 1.0) > 1e-9:
        raise ParameterError(
            "interpretability_oriented + integrity_oriented must equal 1"
        )


@dataclass(frozen=True)
class DecisionConfig:
    """User preferences and sweep parameters for one decision run."""

    interpretability_oriented: float
    integrity_oriented: float
    target_resolution: float
    k_min: int = 3
    k_max: int = 10
    seed: int = 42
    restarts: int = 10

    def __post_init__(self):
        _check_preferences(self.interpretability_oriented, self.integrity_oriented)
        if not 0.0 < self.target_resolution <= 1.0:
            raise ParameterError("target_resolution must be in (0, 1]")
        check_k_range(self.k_min, self.k_max)
        if self.restarts < 1:
            raise ParameterError("restarts must be at least 1")


# the report fields that hold weights, and the source each one records
_WEIGHT_FIELDS = {"frsd_weights": "FRSD", "pca_weights": "PCA"}


@dataclass(frozen=True, eq=False)
class DecisionReport:
    """The ten-item outcome of a decision run."""

    frsd_weights: FeatureWeights
    pca_weights: FeatureWeights
    best_si_fs: float
    best_si_fe: float
    interpretability_score: float
    integrity_score: float
    chosen_method: str
    n_selected: int
    achieved_resolution: float
    best_k: int

    def __post_init__(self):
        if self.chosen_method not in (SELECTION, EXTRACTION):
            raise ParameterError(f"unknown method {self.chosen_method!r}")
        expected = SELECTION if self.interpretability_score >= self.integrity_score else EXTRACTION
        if self.chosen_method != expected:
            raise ParameterError("chosen_method contradicts the scores")

    def to_json_dict(self) -> dict:
        """The fields in declaration order; weights as [name, weight] pairs."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in _WEIGHT_FIELDS:
            doc[key] = [[n, w] for n, w in doc[key].entries]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DecisionReport":
        """Inverse of :meth:`to_json_dict`; extra keys are ignored and a
        missing one raises ``KeyError``."""
        kwargs = {f.name: doc[f.name] for f in fields(cls)}
        for key, source in _WEIGHT_FIELDS.items():
            kwargs[key] = FeatureWeights(entries=kwargs[key], source=source)
        return cls(**kwargs)


def select_for_resolution(weights: FeatureWeights, target_resolution: float) -> tuple[int, float]:
    """Smallest prefix of the ranked weights reaching the target resolution.

    Returns (m, achieved cumulative weight). The comparison carries a 1e-12
    slack so that a target of exactly 1.0 is reachable despite floating-point
    dust in the normalized weights.
    """
    if not 0.0 < target_resolution <= 1.0:
        raise ParameterError("target_resolution must be in (0, 1]")
    cumulative = 0.0
    for m, (_, weight) in enumerate(weights.entries, start=1):
        cumulative += weight
        if cumulative >= target_resolution - 1e-12:
            return m, cumulative
    return len(weights.entries), cumulative


def best_silhouette_over_k(data, k_min: int, k_max: int, seed: int,
                           restarts: int = 10) -> ClusteringResult:
    """The k-means fit with the maximum mean silhouette over k in
    [k_min, k_max]; ties favor smaller k.

    Every k is fitted with the same ``seed``, in one ``kmeans_fits`` batch.
    """
    check_k_range(k_min, k_max)
    ks = range(k_min, k_max + 1)
    return max(kmeans_fits(data, ks, [seed] * len(ks), restarts),
               key=lambda fit: fit.mean_silhouette)


def decide(best_si_fs: float, best_si_fe: float, interpretability: float,
           integrity: float) -> tuple[str, float, float]:
    """Score both strategies and pick the larger; ties go to SELECTION.

    ``interpretability`` and ``integrity`` are the two preferences, each in
    [0, 1] and summing to 1.
    """
    _check_preferences(interpretability, integrity)
    for name, si in (("best_si_fs", best_si_fs), ("best_si_fe", best_si_fe)):
        if not -1.0 <= si <= 1.0:
            raise ParameterError(f"{name}={si} outside [-1, 1]")
    interpretability_score = interpretability * best_si_fs
    integrity_score = integrity * best_si_fe
    method = SELECTION if interpretability_score >= integrity_score else EXTRACTION
    return method, interpretability_score, integrity_score


@dataclass(frozen=True, eq=False)
class Branch:
    """One reduction of the data and its best clustering over the k range.

    ``axis_labels`` are the retained feature names (selection) or PC labels
    (extraction); ``clustering`` is the fit with the best mean silhouette.
    """

    reduced_values: np.ndarray
    axis_labels: tuple[str, ...]
    clustering: ClusteringResult


@dataclass(frozen=True, eq=False)
class Rankings:
    """Both rankings of one dataset: the costly, preference-free half of a
    decision, shared by every scenario evaluated on it.

    ``normalized`` is the MinMax-normalized table in feature-name order, and
    ``columns[j]`` is the input position of its column j. ``branches``
    memoises each (strategy, width) branch, so scenarios that retain the same
    number of features or components fit it only once.
    """

    normalized: Dataset
    columns: tuple[int, ...]
    frsd_weights: FeatureWeights
    pca_weights: FeatureWeights
    subset_scores: np.ndarray
    pca_model: PcaModel
    k_min: int
    k_max: int
    seed: int
    restarts: int
    _branches: dict = field(default_factory=dict, init=False, repr=False)

    def branches(self, keys, pool=None) -> list[Branch]:
        """The branch of each (method, m) key: the first ``m`` ranked features
        (SELECTION) or principal components (EXTRACTION), clustered over the k
        range. The keys not fitted yet are fitted in one ``pool_map`` over
        ``pool`` (``None``: in-process), each once; a fit is deterministic, so
        where it runs does not change it."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._branches]
        reduced = []
        for method, m in missing:
            if method == SELECTION:
                labels = self.frsd_weights.names[:m]
                cols = [self.normalized.column_index(n) for n in labels]
                reduced.append((self.normalized.values[:, cols], labels))
            else:
                reduced.append((pca_project(self.pca_model, self.normalized.values, m),
                                tuple(f"PC{i + 1}" for i in range(m))))
        fit = functools.partial(best_silhouette_over_k, k_min=self.k_min, k_max=self.k_max,
                                seed=self.seed, restarts=self.restarts)
        fits = pool_map(pool, fit, (v for v, _ in reduced), len(reduced))
        for key, (v, labels), clustering in zip(missing, reduced, fits):
            self._branches[key] = Branch(v, labels, clustering)
        return [self._branches[key] for key in keys]


@dataclass(frozen=True, eq=False)
class DecisionOutcome:
    """A report plus the rankings it came from and the chosen branch, whose
    reduced values, axis labels and clustering at its best k render it."""

    report: DecisionReport
    rankings: Rankings
    chosen: Branch


def rank(data: Dataset, k_min: int, k_max: int, seed: int, restarts: int = 10,
         pool=None) -> Rankings:
    """The costly half of a decision: normalize, put the columns in
    feature-name order, then rank the features with FRSD (on ``pool``'s
    workers) and the principal components with PCA. No result depends on the
    input's column order."""
    normalized = minmax_normalize(data)  # first, so its warnings keep the input order
    columns = tuple(sorted(range(data.n_features), key=data.feature_names.__getitem__))
    normalized = Dataset(normalized.ids, [data.feature_names[j] for j in columns],
                         normalized.values[:, columns])
    frsd_weights, subset_scores = frsd_rank(normalized, k_min, k_max, seed,
                                            restarts=restarts, pool=pool)
    model = pca_fit(normalized.values)
    return Rankings(
        normalized=normalized,
        columns=columns,
        frsd_weights=frsd_weights,
        pca_weights=pca_importance(model),
        subset_scores=subset_scores,
        pca_model=model,
        k_min=k_min,
        k_max=k_max,
        seed=seed,
        restarts=restarts,
    )


def evaluate(rankings: Rankings, interpretability: float, integrity: float,
             target_resolution: float, pool=None) -> DecisionOutcome:
    """The cheap, per-scenario half: reduce both ways to the target resolution,
    cluster each over the k range on ``pool``'s workers, and decide."""
    _check_preferences(interpretability, integrity)  # before any fit
    m_fs, achieved_fs = select_for_resolution(rankings.frsd_weights, target_resolution)
    m_fe, achieved_fe = select_for_resolution(rankings.pca_weights, target_resolution)
    fs, fe = rankings.branches([(SELECTION, m_fs), (EXTRACTION, m_fe)], pool)

    si_fs, si_fe = fs.clustering.mean_silhouette, fe.clustering.mean_silhouette
    method, interpretability_score, integrity_score = decide(
        si_fs, si_fe, interpretability, integrity
    )
    chosen, achieved = (fs, achieved_fs) if method == SELECTION else (fe, achieved_fe)

    report = DecisionReport(
        frsd_weights=rankings.frsd_weights,
        pca_weights=rankings.pca_weights,
        best_si_fs=si_fs,
        best_si_fe=si_fe,
        interpretability_score=interpretability_score,
        integrity_score=integrity_score,
        chosen_method=method,
        n_selected=len(chosen.axis_labels),
        achieved_resolution=achieved,
        best_k=chosen.clustering.k,
    )
    return DecisionOutcome(report=report, rankings=rankings, chosen=chosen)


def rank_and_fit(data: Dataset, config: DecisionConfig, targets=(),
                 max_workers: int = 1) -> Rankings:
    """Rank ``data`` with ``config``'s sweep parameters and fit the selection and
    extraction branches that reach each resolution in ``targets``, all on one
    pool of up to ``max_workers`` processes (``worker_pool``)."""
    with worker_pool(data, config.k_min, config.k_max, config.restarts, max_workers) as pool:
        rankings = rank(data, config.k_min, config.k_max, config.seed,
                        restarts=config.restarts, pool=pool)
        rankings.branches([(method, select_for_resolution(weights, target)[0])
                           for target in targets
                           for method, weights in ((SELECTION, rankings.frsd_weights),
                                                   (EXTRACTION, rankings.pca_weights))], pool)
    return rankings


def run_decision_detailed(data: Dataset, config: DecisionConfig,
                          max_workers: int = 1) -> DecisionOutcome:
    """Full pipeline: ``rank_and_fit`` at ``config``'s target resolution, then
    ``evaluate`` the one scenario in ``config`` on the branches it fitted."""
    rankings = rank_and_fit(data, config, [config.target_resolution], max_workers)
    return evaluate(rankings, config.interpretability_oriented,
                    config.integrity_oriented, config.target_resolution)
