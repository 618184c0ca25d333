"""Monte Carlo validation of the decision rule plus the resolution table.

Random cases draw both hypothetical silhouettes and the interpretability
preference uniformly from [0, 1]; the decision rule must agree on every
case with the argmax recomputed from those inputs in exact arithmetic. The
resolution table gives, for every interval of targets, how many features
and components reach them and, where the counts match, the resolution
advantage of extraction.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np

from .dataset import write_csv
from .decision import EXTRACTION, RESOLUTION_SLACK, SELECTION, decide, resolution_steps
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
    """The targets t with lo < t - RESOLUTION_SLACK <= hi (the first row also
    those below), over which both widths stay constant."""

    lo: float
    hi: float
    m_fs: int
    achieved_fs: float
    m_fe: int
    achieved_fe: float
    delta: Optional[float]  # achieved_fe - achieved_fs where m_fs == m_fe, dust as 0.0


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


def generate_cases(n: int, seed: int) -> list[RandomCase]:
    """Draw n random decision cases and decide each one."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        si_fs, si_fe, alpha = (float(rng.uniform()) for _ in range(3))
        method, s_interp, s_integ = decide(si_fs, si_fe, alpha)
        cases.append(RandomCase(si_fs, si_fe, alpha, 1.0 - alpha, s_interp, s_integ, method))
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
    """The exact resolution table: a row per interval of constant widths, at most 2n - 1
    for n names, each with ``select_for_resolution``'s (m, achieved) of its targets."""
    steps = resolution_steps(weights_fs), resolution_steps(weights_fe)
    his = sorted({bound for ranking in steps for bound, _, _ in ranking})
    rows = []
    for lo, hi in zip([0.0, *his], his):
        (m_fs, achieved_fs), (m_fe, achieved_fe) = [
            next((m, achieved) for bound, m, achieved in ranking if hi <= bound)
            for ranking in steps]
        delta = achieved_fe - achieved_fs
        if abs(delta) <= RESOLUTION_SLACK:  # float dust
            delta = 0.0
        rows.append(SweepRow(lo=lo, hi=hi, m_fs=m_fs, achieved_fs=achieved_fs, m_fe=m_fe,
                             achieved_fe=achieved_fe, delta=delta if m_fs == m_fe else None))
    return rows


def write_cases_csv(cases, path) -> None:
    """One row per case, its fields in declaration order."""
    write_csv(path, [f.name for f in fields(RandomCase)], [astuple(c) for c in cases])


def write_sweep_csv(rows, path) -> None:
    """One row per interval, its fields in declaration order; ``delta`` is empty
    where the two counts differ."""
    write_csv(path, [f.name for f in fields(SweepRow)], [astuple(r) for r in rows])
