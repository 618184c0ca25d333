"""Monte Carlo validation of the decision rule plus resolution sweeps.

Random cases draw both hypothetical silhouettes and the interpretability
preference uniformly from [0, 1]; the decision rule must agree on every
case with the argmax recomputed from those inputs in exact arithmetic. The
resolution sweep tabulates how many features/components each target
resolution requires and, where the counts match, the resolution advantage of
extraction.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np

from .dataset import write_csv
from .decision import EXTRACTION, SELECTION, decide, select_for_resolution
from .errors import ParameterError
from .frsd import FeatureWeights


@dataclass(frozen=True)
class RandomCase:
    """One synthetic decision problem and its outcome."""

    si_fs: float
    si_fe: float
    alpha: float
    integrity: float
    interpretability_score: float
    integrity_score: float
    chosen_method: str


@dataclass(frozen=True)
class SweepRow:
    """Resolution sweep entry for one target resolution."""

    target: float
    m_fs: int
    achieved_fs: float
    m_fe: int
    achieved_fe: float
    delta: Optional[float]  # achieved_fe - achieved_fs where m_fs == m_fe


# Fixed reference importance profiles for an 8-feature deprivation-scores
# dataset (London wards), used by the sweep when no dataset is supplied.
REFERENCE_SELECTION_WEIGHTS = FeatureWeights.from_scores(
    ["Employment Score", "Income Score", "Crime Score", "Health Score",
     "IMD Score", "Education Score", "Living Score", "Barriers Score"],
    [0.1319, 0.1315, 0.1298, 0.1294, 0.1217, 0.1205, 0.1178, 0.1172],
    source="FRSD",
)
REFERENCE_EXTRACTION_WEIGHTS = FeatureWeights.from_scores(
    [f"PC{i}" for i in range(1, 9)],
    [0.1366, 0.1365, 0.1357, 0.1329, 0.1286, 0.1222, 0.1139, 0.0931],
    source="PCA",
)

SWEEP_TARGETS = tuple(round(0.1 * i, 1) for i in range(1, 11))


def generate_cases(n: int, seed: int) -> list[RandomCase]:
    """Draw n random decision cases and decide each one."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        si_fs = float(rng.uniform())
        si_fe = float(rng.uniform())
        alpha = float(rng.uniform())
        method, s_interp, s_integ = decide(si_fs, si_fe, alpha)
        cases.append(RandomCase(
            si_fs=si_fs,
            si_fe=si_fe,
            alpha=alpha,
            integrity=1.0 - alpha,
            interpretability_score=s_interp,
            integrity_score=s_integ,
            chosen_method=method,
        ))
    return cases


def count_misclassified(cases) -> int:
    """Cases whose recorded choice differs from the analytic argmax.

    The argmax is recomputed from the inputs alone, in exact rational
    arithmetic: SELECTION iff alpha * si_fs >= (1 - alpha) * si_fe. The
    recorded scores are not consulted, so a case whose scores contradict its
    inputs counts as misclassified.
    """
    # imported here: fractions loads decimal (0.4 MB), which `dimred run` never needs
    from fractions import Fraction

    wrong = 0
    for case in cases:
        alpha = Fraction(case.alpha)
        selects = alpha * Fraction(case.si_fs) >= (1 - alpha) * Fraction(case.si_fe)
        if case.chosen_method != (SELECTION if selects else EXTRACTION):
            wrong += 1
    return wrong


def resolution_sweep(weights_fs: FeatureWeights, weights_fe: FeatureWeights) -> list[SweepRow]:
    """Feature/component counts for each of ``SWEEP_TARGETS``, with deltas where comparable."""
    rows = []
    for target in SWEEP_TARGETS:
        m_fs, achieved_fs = select_for_resolution(weights_fs, target)
        m_fe, achieved_fe = select_for_resolution(weights_fe, target)
        delta = achieved_fe - achieved_fs if m_fs == m_fe else None
        rows.append(SweepRow(target=float(target), m_fs=m_fs, achieved_fs=achieved_fs,
                             m_fe=m_fe, achieved_fe=achieved_fe, delta=delta))
    return rows


def write_cases_csv(cases, path) -> None:
    """One row per case, its fields in declaration order."""
    write_csv(path, [f.name for f in fields(RandomCase)], [astuple(c) for c in cases])


def write_scatter_csv(cases, path) -> None:
    """Scatter-plot data: one point per case, classed by the chosen method."""
    write_csv(path, ["interpretability_score", "integrity_score", "chosen_method"],
              [(c.interpretability_score, c.integrity_score, c.chosen_method)
               for c in cases])


def write_sweep_csv(rows, path) -> None:
    """One row per target, its fields in declaration order; ``delta`` is empty
    where the two counts differ."""
    write_csv(path, [f.name for f in fields(SweepRow)], [astuple(r) for r in rows])
