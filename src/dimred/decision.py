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

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, minmax_normalize
from .errors import ParameterError
from .frsd import FeatureWeights, SubsetScore, frsd_rank
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
        if not 2 <= self.k_min <= self.k_max:
            raise ParameterError(f"need 2 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.restarts < 1:
            raise ParameterError("restarts must be at least 1")


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
        return {
            "frsd_weights": [[n, w] for n, w in self.frsd_weights.entries],
            "pca_weights": [[n, w] for n, w in self.pca_weights.entries],
            "best_si_fs": self.best_si_fs,
            "best_si_fe": self.best_si_fe,
            "interpretability_score": self.interpretability_score,
            "integrity_score": self.integrity_score,
            "chosen_method": self.chosen_method,
            "n_selected": self.n_selected,
            "achieved_resolution": self.achieved_resolution,
            "best_k": self.best_k,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DecisionReport":
        return cls(
            frsd_weights=FeatureWeights(
                entries=tuple((n, w) for n, w in doc["frsd_weights"]), source="FRSD"
            ),
            pca_weights=FeatureWeights(
                entries=tuple((n, w) for n, w in doc["pca_weights"]), source="PCA"
            ),
            best_si_fs=doc["best_si_fs"],
            best_si_fe=doc["best_si_fe"],
            interpretability_score=doc["interpretability_score"],
            integrity_score=doc["integrity_score"],
            chosen_method=doc["chosen_method"],
            n_selected=doc["n_selected"],
            achieved_resolution=doc["achieved_resolution"],
            best_k=doc["best_k"],
        )


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
                           restarts: int = 10) -> tuple[float, int, ClusteringResult]:
    """Maximum mean silhouette over k in [k_min, k_max]; ties favor smaller k.

    Returns (silhouette, k, fit), where ``fit`` is the winning k-means fit.
    Every k is fitted with the same ``seed``, in one ``kmeans_fits`` batch.
    """
    data = np.asarray(data, dtype=np.float64)
    if not 2 <= k_min <= k_max:
        raise ParameterError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    ks = range(k_min, k_max + 1)
    best = None
    for fit in kmeans_fits(data, ks, [seed] * len(ks), restarts):
        if best is None or fit.mean_silhouette > best.mean_silhouette:
            best = fit
    return float(best.mean_silhouette), best.k, best


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
    best_si: float
    clustering: ClusteringResult


@dataclass(frozen=True, eq=False)
class Rankings:
    """Both rankings of one dataset: the costly, preference-free half of a
    decision, shared by every scenario evaluated on it.

    ``branch`` memoises each (strategy, width) branch, so scenarios that
    retain the same number of features or components fit it only once.
    """

    normalized: Dataset
    frsd_weights: FeatureWeights
    pca_weights: FeatureWeights
    subset_scores: list[SubsetScore]
    pca_model: PcaModel
    k_min: int
    k_max: int
    seed: int
    restarts: int
    _branches: dict = field(default_factory=dict, init=False, repr=False)

    def branch(self, method: str, m: int) -> Branch:
        """The first ``m`` ranked features (SELECTION) or principal
        components (EXTRACTION), clustered over the k range."""
        key = (method, m)
        if key not in self._branches:
            if method == SELECTION:
                labels = self.frsd_weights.names[:m]
                cols = [self.normalized.column_index(n) for n in labels]
                values = self.normalized.values[:, cols]
            else:
                labels = tuple(f"PC{i + 1}" for i in range(m))
                values = pca_project(self.pca_model, self.normalized.values, m)
            si, _, fit = best_silhouette_over_k(values, self.k_min, self.k_max,
                                                self.seed, self.restarts)
            self._branches[key] = Branch(values, labels, si, fit)
        return self._branches[key]


@dataclass(frozen=True, eq=False)
class DecisionOutcome:
    """A report plus the rankings it came from and the artifacts needed to
    render it.

    ``reduced_values`` and ``clustering`` describe the chosen branch at its
    best k; ``axis_labels`` are the retained feature names (selection) or PC
    labels (extraction).
    """

    report: DecisionReport
    rankings: Rankings
    reduced_values: np.ndarray
    axis_labels: tuple[str, ...]
    clustering: ClusteringResult


def rank(data: Dataset, k_min: int, k_max: int, seed: int, restarts: int = 10,
         max_workers: int = 1) -> Rankings:
    """The costly half of a decision: normalize, then rank the features with
    FRSD and the principal components with PCA."""
    normalized = minmax_normalize(data)
    frsd_weights, subset_scores = frsd_rank(
        normalized, k_min, k_max, seed, restarts=restarts, max_workers=max_workers,
    )
    model = pca_fit(normalized.values)
    return Rankings(
        normalized=normalized,
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
             target_resolution: float) -> DecisionOutcome:
    """The cheap, per-scenario half: reduce both ways to the target
    resolution, cluster each over the k range, and decide."""
    _check_preferences(interpretability, integrity)  # before any fit
    m_fs, achieved_fs = select_for_resolution(rankings.frsd_weights, target_resolution)
    fs = rankings.branch(SELECTION, m_fs)
    m_fe, achieved_fe = select_for_resolution(rankings.pca_weights, target_resolution)
    fe = rankings.branch(EXTRACTION, m_fe)

    method, interpretability_score, integrity_score = decide(
        fs.best_si, fe.best_si, interpretability, integrity
    )
    if method == SELECTION:
        chosen, n_selected, achieved = fs, m_fs, achieved_fs
    else:
        chosen, n_selected, achieved = fe, m_fe, achieved_fe

    report = DecisionReport(
        frsd_weights=rankings.frsd_weights,
        pca_weights=rankings.pca_weights,
        best_si_fs=fs.best_si,
        best_si_fe=fe.best_si,
        interpretability_score=interpretability_score,
        integrity_score=integrity_score,
        chosen_method=method,
        n_selected=n_selected,
        achieved_resolution=achieved,
        best_k=chosen.clustering.k,
    )
    return DecisionOutcome(
        report=report,
        rankings=rankings,
        reduced_values=chosen.reduced_values,
        axis_labels=chosen.axis_labels,
        clustering=chosen.clustering,
    )


def run_decision_detailed(data: Dataset, config: DecisionConfig,
                          max_workers: int = 1) -> DecisionOutcome:
    """Full pipeline: rank, then evaluate the one scenario in ``config``."""
    rankings = rank(data, config.k_min, config.k_max, config.seed,
                    restarts=config.restarts, max_workers=max_workers)
    return evaluate(rankings, config.interpretability_oriented,
                    config.integrity_oriented, config.target_resolution)


def run_decision(data: Dataset, config: DecisionConfig,
                 max_workers: int = 1) -> DecisionReport:
    """Run the pipeline and return just the decision report."""
    return run_decision_detailed(data, config, max_workers=max_workers).report
