"""Choosing between feature selection and feature extraction.

The user states how much they value interpretability (keeping feature
names) versus integrity (keeping information content); the two preferences
must sum to 1. Each strategy is scored as preference x best achievable mean
silhouette after reducing to the target resolution, and the larger score
wins. Resolution is the cumulative importance weight retained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, minmax_normalize
from .errors import ParameterError
from .frsd import FeatureWeights, SubsetScore, frsd_rank
from .kmeans import ClusteringResult, kmeans_fit
from .pca import PcaModel, pca_fit, pca_importance, pca_project

SELECTION = "SELECTION"
EXTRACTION = "EXTRACTION"


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
        if not 0.0 <= self.interpretability_oriented <= 1.0:
            raise ParameterError("interpretability_oriented must be in [0, 1]")
        if not 0.0 <= self.integrity_oriented <= 1.0:
            raise ParameterError("integrity_oriented must be in [0, 1]")
        if abs(self.interpretability_oriented + self.integrity_oriented - 1.0) > 1e-9:
            raise ParameterError(
                "interpretability_oriented + integrity_oriented must equal 1"
            )
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
    """
    data = np.asarray(data, dtype=np.float64)
    if not 2 <= k_min <= k_max:
        raise ParameterError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    best = None
    for k in range(k_min, k_max + 1):
        fit = kmeans_fit(data, k, seed=seed, restarts=restarts)
        if best is None or fit.mean_silhouette > best.mean_silhouette:
            best = fit
    return float(best.mean_silhouette), best.k, best


def decide(best_si_fs: float, best_si_fe: float,
           config: DecisionConfig) -> tuple[str, float, float]:
    """Score both strategies and pick the larger; ties go to SELECTION."""
    for name, si in (("best_si_fs", best_si_fs), ("best_si_fe", best_si_fe)):
        if not -1.0 <= si <= 1.0:
            raise ParameterError(f"{name}={si} outside [-1, 1]")
    interpretability_score = config.interpretability_oriented * best_si_fs
    integrity_score = config.integrity_oriented * best_si_fe
    method = SELECTION if interpretability_score >= integrity_score else EXTRACTION
    return method, interpretability_score, integrity_score


@dataclass(frozen=True, eq=False)
class DecisionOutcome:
    """A report plus the intermediate artifacts needed to render it.

    ``reduced_values`` and ``clustering`` describe the chosen branch at its
    best k; ``axis_labels`` are the retained feature names (selection) or PC
    labels (extraction).
    """

    report: DecisionReport
    normalized: Dataset
    subset_scores: list[SubsetScore]
    pca_model: PcaModel
    reduced_values: np.ndarray
    axis_labels: tuple[str, ...]
    clustering: ClusteringResult


def run_decision_detailed(data: Dataset, config: DecisionConfig,
                          max_workers: int = 1) -> DecisionOutcome:
    """Full pipeline: normalize, rank both ways, reduce, cluster, decide."""
    normalized = minmax_normalize(data)

    frsd_weights, subset_scores = frsd_rank(
        normalized, config.k_min, config.k_max, config.seed,
        restarts=config.restarts, max_workers=max_workers,
    )
    model = pca_fit(normalized.values)
    pca_weights = pca_importance(model)

    m_fs, achieved_fs = select_for_resolution(frsd_weights, config.target_resolution)
    fs_names = frsd_weights.names[:m_fs]
    fs_cols = [normalized.column_index(n) for n in fs_names]
    fs_values = normalized.values[:, fs_cols]
    best_si_fs, best_k_fs, fit_fs = best_silhouette_over_k(
        fs_values, config.k_min, config.k_max, config.seed, config.restarts
    )

    m_fe, achieved_fe = select_for_resolution(pca_weights, config.target_resolution)
    fe_values = pca_project(model, normalized.values, m_fe)
    best_si_fe, best_k_fe, fit_fe = best_silhouette_over_k(
        fe_values, config.k_min, config.k_max, config.seed, config.restarts
    )

    method, interpretability_score, integrity_score = decide(best_si_fs, best_si_fe, config)
    if method == SELECTION:
        n_selected, achieved, best_k = m_fs, achieved_fs, best_k_fs
        reduced, labels, clustering = fs_values, tuple(fs_names), fit_fs
    else:
        n_selected, achieved, best_k = m_fe, achieved_fe, best_k_fe
        reduced, labels = fe_values, tuple(f"PC{i + 1}" for i in range(m_fe))
        clustering = fit_fe

    report = DecisionReport(
        frsd_weights=frsd_weights,
        pca_weights=pca_weights,
        best_si_fs=best_si_fs,
        best_si_fe=best_si_fe,
        interpretability_score=interpretability_score,
        integrity_score=integrity_score,
        chosen_method=method,
        n_selected=n_selected,
        achieved_resolution=achieved,
        best_k=best_k,
    )
    return DecisionOutcome(
        report=report,
        normalized=normalized,
        subset_scores=subset_scores,
        pca_model=model,
        reduced_values=reduced,
        axis_labels=labels,
        clustering=clustering,
    )


def run_decision(data: Dataset, config: DecisionConfig,
                 max_workers: int = 1) -> DecisionReport:
    """Run the pipeline and return just the decision report."""
    return run_decision_detailed(data, config, max_workers=max_workers).report
