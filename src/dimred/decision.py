"""Choosing between feature selection and feature extraction.

The user states one preference in [0, 1], how much they value
interpretability (keeping feature names); the integrity preference (keeping
information content) is its complement, 1 - interpretability. Each strategy
is scored as preference x best achievable mean silhouette after reducing to
the target resolution, and the larger score wins. Resolution is the
cumulative importance weight retained.

``rank`` does the costly, preference-free part once (normalize, FRSD, PCA,
and the branches of the target resolutions it is given), on the one worker
pool it opens; ``evaluate`` does the cheap part per scenario (reduce,
cluster, decide).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import Dataset, minmax_normalize
from .errors import ParameterError
from .frsd import FeatureWeights, frsd_rank, pool_map, worker_pool
from .kmeans import kmeans_fit  # noqa: F401  (kept importable: perfbench/spans.py wraps it)
from .kmeans import ClusteringResult, kmeans_fits, require_integer
from .pca import PcaModel, pca_fit, pca_importance, pca_project

SELECTION = "SELECTION"
EXTRACTION = "EXTRACTION"


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_preference(interpretability: float) -> None:
    if not (_real(interpretability) and 0.0 <= interpretability <= 1.0):
        raise ParameterError("interpretability must be in [0, 1]")


def _check_resolution(target_resolution: float) -> None:
    if not (_real(target_resolution) and 0.0 < target_resolution <= 1.0):
        raise ParameterError("target_resolution must be in (0, 1]")


@dataclass(frozen=True)
class DecisionConfig:
    """User preference and sweep parameters for one decision run; the
    integrity preference is ``1 - interpretability``. Every sweep value is
    checked here; ``frsd.sweep_shape`` checks k_max against a table's rows."""

    interpretability: float = 0.5
    target_resolution: float = 0.85
    k_min: int = 3
    k_max: int = 10
    seed: int = 42
    restarts: int = 10

    def __post_init__(self):
        for name in ("k_min", "k_max", "seed"):
            require_integer(name, getattr(self, name))
        require_integer("restarts", self.restarts, 1)
        if not 2 <= self.k_min <= self.k_max:
            raise ParameterError(f"need 2 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        _check_preference(self.interpretability)
        _check_resolution(self.target_resolution)


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
    _check_resolution(target_resolution)
    cumulative = 0.0
    for m, (_, weight) in enumerate(weights.entries, start=1):
        cumulative += weight
        if cumulative >= target_resolution - 1e-12:
            return m, cumulative
    return len(weights.entries), cumulative


def best_silhouette_over_k(data, config: DecisionConfig) -> ClusteringResult:
    """The k-means fit with the maximum mean silhouette over k in
    [config.k_min, config.k_max]; ties favor smaller k.

    Every k is fitted with ``config``'s seed and restarts, in one ``kmeans_fits`` batch.
    """
    ks = range(config.k_min, config.k_max + 1)
    return max(kmeans_fits(data, ks, [config.seed] * len(ks), config.restarts),
               key=lambda fit: fit.mean_silhouette)


def decide(best_si_fs: float, best_si_fe: float,
           interpretability: float) -> tuple[str, float, float]:
    """Score both strategies and pick the larger; ties go to SELECTION.

    ``interpretability`` is the preference in [0, 1]; the integrity
    preference is ``1 - interpretability``.
    """
    _check_preference(interpretability)
    for name, si in (("best_si_fs", best_si_fs), ("best_si_fe", best_si_fe)):
        if not -1.0 <= si <= 1.0:
            raise ParameterError(f"{name}={si} outside [-1, 1]")
    interpretability_score = interpretability * best_si_fs
    integrity_score = (1.0 - interpretability) * best_si_fe
    method = SELECTION if interpretability_score >= integrity_score else EXTRACTION
    return method, interpretability_score, integrity_score


@dataclass(frozen=True, eq=False)
class Branch:
    """One reduction of the data and its best clustering over the k range.

    ``axis_labels`` are the retained feature names (selection) or PC labels
    (extraction); ``clustering`` is the fit with the best mean silhouette, and
    ``resolution`` the cumulative weight of the retained axes.
    """

    reduced_values: np.ndarray
    axis_labels: tuple[str, ...]
    clustering: ClusteringResult
    resolution: float


@dataclass(frozen=True, eq=False)
class Rankings:
    """Both rankings of one dataset: the costly, preference-free half of a
    decision, shared by every scenario evaluated on it.

    ``normalized`` is the MinMax-normalized table in feature-name order,
    ``columns[j]`` is the input position of its column j, and every fit used
    the sweep fields of ``config``. ``branches`` memoises each (strategy,
    width) branch, so scenarios that retain the same width fit it only once.
    """

    normalized: Dataset
    columns: tuple[int, ...]
    frsd_weights: FeatureWeights
    pca_weights: FeatureWeights
    subset_scores: np.ndarray
    pca_model: PcaModel
    config: DecisionConfig
    _branches: dict = field(default_factory=dict, init=False, repr=False)

    def branches(self, targets, pool=None) -> list[tuple[Branch, Branch]]:
        """The (selection, extraction) branch pair of each target resolution:
        the fewest ranked features (FRSD), and principal components (PCA), that
        reach it, clustered over the k range. The widths not fitted yet are
        fitted in one ``pool_map`` over ``pool`` (``None``: in-process), each
        once; a fit is deterministic, so where it runs does not change it."""
        keys = [(weights, *select_for_resolution(weights, target))
                for target in targets for weights in (self.frsd_weights, self.pca_weights)]
        missing = [key for key in dict.fromkeys(keys) if key not in self._branches]
        values = self.normalized.values
        reduced = [values[:, [self.normalized.feature_names.index(n) for n in weights.names[:m]]]
                   if weights is self.frsd_weights else pca_project(self.pca_model, values, m)
                   for weights, m, _ in missing]
        fit = functools.partial(best_silhouette_over_k, config=self.config)
        fits = pool_map(pool, fit, reduced, len(reduced))
        for (weights, m, achieved), v, clustering in zip(missing, reduced, fits):
            self._branches[weights, m, achieved] = Branch(v, weights.names[:m], clustering,
                                                          achieved)
        pairs = iter(self._branches[key] for key in keys)
        return list(zip(pairs, pairs))


@dataclass(frozen=True, eq=False)
class DecisionOutcome:
    """A report plus the rankings it came from and the chosen branch, whose
    reduced values, axis labels and clustering at its best k render it."""

    report: DecisionReport
    rankings: Rankings
    chosen: Branch


def rank(data: Dataset, config: DecisionConfig, max_workers: int = 1, targets=()) -> Rankings:
    """The costly half of a decision: normalize, put the columns in
    feature-name order, rank the features with FRSD and the principal
    components with PCA, then fit the selection and extraction branches that
    reach each resolution in ``targets``, with the sweep fields of ``config``
    (the only ones read). The sweep and the branches run on one pool of up to
    ``max_workers`` processes (``worker_pool``). No result depends on the
    input's column order or on the worker count."""
    for target in targets:
        _check_resolution(target)  # before the sweep
    normalized = minmax_normalize(data)  # first, so its warnings keep the input order
    columns = tuple(sorted(range(data.n_features), key=data.feature_names.__getitem__))
    normalized = Dataset([data.feature_names[j] for j in columns], normalized.values[:, columns])
    with worker_pool(normalized, config, max_workers) as pool:
        frsd_weights, subset_scores = frsd_rank(normalized, config, pool)
        model = pca_fit(normalized.values)
        rankings = Rankings(normalized=normalized, columns=columns, frsd_weights=frsd_weights,
                            pca_weights=pca_importance(model), subset_scores=subset_scores,
                            pca_model=model, config=config)
        rankings.branches(targets, pool)
    return rankings


def evaluate(rankings: Rankings, interpretability: float,
             target_resolution: float) -> DecisionOutcome:
    """The cheap, per-scenario half: reduce both ways to the target resolution,
    cluster each over the k range, and decide. Only the branches that ``rank``
    did not fit are fitted, in-process."""
    _check_preference(interpretability)  # before any fit
    (fs, fe), = rankings.branches([target_resolution])

    si_fs, si_fe = fs.clustering.mean_silhouette, fe.clustering.mean_silhouette
    method, interpretability_score, integrity_score = decide(si_fs, si_fe, interpretability)
    chosen = fs if method == SELECTION else fe

    report = DecisionReport(
        frsd_weights=rankings.frsd_weights,
        pca_weights=rankings.pca_weights,
        best_si_fs=si_fs,
        best_si_fe=si_fe,
        interpretability_score=interpretability_score,
        integrity_score=integrity_score,
        chosen_method=method,
        n_selected=len(chosen.axis_labels),
        achieved_resolution=chosen.resolution,
        best_k=chosen.clustering.k,
    )
    return DecisionOutcome(report=report, rankings=rankings, chosen=chosen)


def run_decision_detailed(data: Dataset, config: DecisionConfig,
                          max_workers: int = 1) -> DecisionOutcome:
    """Full pipeline: ``rank`` with ``config``'s sweep parameters and target
    resolution, then ``evaluate`` the one scenario in ``config`` on the
    branches it fitted."""
    rankings = rank(data, config, max_workers, [config.target_resolution])
    return evaluate(rankings, config.interpretability, config.target_resolution)
