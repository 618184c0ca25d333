"""Random-case decision validation and the resolution sweep."""

import csv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimred import FeatureWeights, ParameterError
from dimred.decision import select_for_resolution
from dimred.validation import (REFERENCE_EXTRACTION_WEIGHTS, REFERENCE_SELECTION_WEIGHTS,
                               RandomCase, count_misclassified, generate_cases,
                               resolution_sweep, write_cases_csv, write_sweep_csv)


class TestGenerateCases:
    def test_case_count_and_consistency(self):
        cases = generate_cases(250, seed=7)
        assert len(cases) == 250
        assert count_misclassified(cases) == 0
        for case in cases:
            assert 0.0 <= case.si_fs <= 1.0
            assert 0.0 <= case.si_fe <= 1.0
            assert case.integrity == 1.0 - case.alpha
            assert case.interpretability_score == case.alpha * case.si_fs
            assert case.integrity_score == case.integrity * case.si_fe

    def test_deterministic_for_fixed_seed(self):
        assert generate_cases(1, seed=3) == generate_cases(1, seed=3)
        assert generate_cases(5, seed=3) == generate_cases(5, seed=3)

    def test_seed_changes_cases(self):
        assert generate_cases(5, seed=1) != generate_cases(5, seed=2)

    def test_full_interpretability_always_selects(self):
        # alpha = 1 zeroes the integrity score, so any positive si_fs wins
        from dimred import decide
        for si_fs in (0.01, 0.4, 1.0):
            method, _, _ = decide(si_fs, 0.9, 1.0)
            assert method == "SELECTION"

    def test_recorded_scores_do_not_vouch_for_the_choice(self):
        # scores and choice agree with each other but not with the inputs:
        # 0.9 * 0.8 >= 0.1 * 0.2, so the inputs call for SELECTION
        case = RandomCase(si_fs=0.8, si_fe=0.2, alpha=0.9, integrity=0.1,
                          interpretability_score=0.0, integrity_score=0.5,
                          chosen_method="EXTRACTION")
        assert count_misclassified([case]) == 1

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ParameterError):
            generate_cases(0, seed=1)


def _first_prefix(weights, target):
    """The rule as a plain loop: the fewest ranked weights whose running sum
    reaches the target less 1e-12, all of them if none does."""
    cumulative = 0.0
    for m, (_, weight) in enumerate(weights.entries, start=1):
        cumulative += weight
        if cumulative >= target - 1e-12:
            return m, cumulative
    return len(weights.entries), cumulative


def _holding(rows, target):
    """The one row with lo < target - 1e-12 <= hi; the first row also holds
    every target below its hi."""
    held = [row for i, row in enumerate(rows)
            if (i == 0 or row.lo < target - 1e-12) and target - 1e-12 <= row.hi]
    assert len(held) == 1, (target, held)
    return held[0]


def _weights(scores):
    return FeatureWeights.from_scores([f"f{i}" for i in range(len(scores))], scores,
                                      source="test")


@st.composite
def _weight_pairs(draw):
    """Two rankings of n names from nonnegative scores, some of them zero and
    some at the scale of the slack."""
    n = draw(st.integers(1, 8))
    score = st.one_of(st.just(0.0), st.just(1e-13), st.floats(0.0, 1.0))
    scores = st.lists(score, min_size=n, max_size=n).filter(lambda s: sum(s) > 0)
    return _weights(draw(scores)), _weights(draw(scores))


class TestResolutionSweep:
    ROWS = resolution_sweep(REFERENCE_SELECTION_WEIGHTS, REFERENCE_EXTRACTION_WEIGHTS)

    def test_fifteen_rows(self):
        assert len(self.ROWS) == 2 * 8 - 1

    def test_full_target_needs_every_feature(self):
        row = _holding(self.ROWS, 1.0)
        assert (row.m_fs, row.m_fe) == (8, 8)
        assert row.delta == 0.0  # not the float dust achieved_fe - achieved_fs

    def test_published_085_row(self):
        row = _holding(self.ROWS, 0.85)
        assert (row.lo, row.hi) == (pytest.approx(0.79290, abs=5e-6),
                                    pytest.approx(0.88278, abs=5e-6))
        assert (row.m_fs, row.m_fe) == (7, 7)
        assert row.achieved_fs == pytest.approx(0.8828, abs=5e-5)
        assert row.achieved_fe == pytest.approx(0.9069, abs=5e-5)
        assert row.delta == 0.02407687140229431

    def test_published_050_row(self):
        row = _holding(self.ROWS, 0.5)
        assert (row.m_fs, row.m_fe) == (4, 4)
        assert row.achieved_fs == pytest.approx(0.5227, abs=5e-4)
        assert row.achieved_fe == pytest.approx(0.5420, abs=5e-4)
        assert row.delta == pytest.approx(0.0191, abs=5e-4)

    def test_delta_only_when_counts_match(self):
        for row in self.ROWS:
            if row.m_fs == row.m_fe:
                assert row.delta is not None
            else:
                assert row.delta is None

    @given(_weight_pairs(), st.floats(0.0, 1.0, exclude_min=True))
    @example((REFERENCE_SELECTION_WEIGHTS, REFERENCE_EXTRACTION_WEIGHTS), 0.85)
    @example((_weights([0.5, 0.5 - 1e-13, 1e-13]), _weights([1.0, 0.0, 0.0])), 1.0)
    @example((_weights([3.0, 2.0, 0.0, 1.0]), _weights([1e-13, 1.0, 1e-13, 0.0])), 1e-12)
    @settings(max_examples=300)
    def test_rows_give_the_prefix_of_every_target(self, pair, target):
        fs, fe = pair
        rows = resolution_sweep(fs, fe)
        n = len(fs.entries)
        assert 1 <= len(rows) <= 2 * n - 1
        # the rows partition (0, 1], and each holds a nonempty interval of t - 1e-12
        assert rows[0].lo == 0.0 and rows[-1].hi == 1.0
        assert all(a.hi == b.lo for a, b in zip(rows, rows[1:]))
        assert all(row.lo < row.hi for row in rows) and rows[-1].lo < 1.0 - 1e-12
        # the drawn target, every bound, and every bound +- the slack
        targets = {target} | {t for row in rows for t in (row.hi - 1e-12, row.hi, row.hi + 1e-12)
                              if 0.0 < t <= 1.0}
        for t in targets:
            row = _holding(rows, t)
            for weights, got in ((fs, (row.m_fs, row.achieved_fs)),
                                 (fe, (row.m_fe, row.achieved_fe))):
                assert got == select_for_resolution(weights, t) == _first_prefix(weights, t)
            if row.m_fs == row.m_fe:
                delta = row.achieved_fe - row.achieved_fs
                assert row.delta == (0.0 if abs(delta) <= 1e-12 else delta)


class TestCsvOutputs:
    def test_cases_csv(self, tmp_path):
        cases = generate_cases(10, seed=5)
        path = tmp_path / "cases.csv"
        write_cases_csv(cases, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert float(rows[0]["si_fs"]) == cases[0].si_fs
        assert rows[0]["chosen_method"] in ("SELECTION", "EXTRACTION")

    def test_sweep_csv(self, tmp_path):
        rows_in = resolution_sweep(REFERENCE_SELECTION_WEIGHTS,
                                   REFERENCE_EXTRACTION_WEIGHTS)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows_in, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(rows_in)
        assert rows[-1]["hi"] == "1.0"
        assert int(rows[-1]["m_fs"]) == 8
