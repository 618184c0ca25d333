"""Random-case decision validation and the resolution sweep."""

import csv

import pytest

from dimred import (ParameterError, RandomCase, count_misclassified,
                    generate_cases, resolution_sweep)
from dimred.validation import (REFERENCE_EXTRACTION_WEIGHTS,
                               REFERENCE_SELECTION_WEIGHTS, SWEEP_TARGETS,
                               write_cases_csv, write_scatter_csv, write_sweep_csv)


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
            method, _, _ = decide(si_fs, 0.9, 1.0, 0.0)
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


class TestResolutionSweep:
    def test_full_target_needs_every_feature(self):
        rows = resolution_sweep(REFERENCE_SELECTION_WEIGHTS,
                                REFERENCE_EXTRACTION_WEIGHTS, targets=[1.0])
        assert rows[0].m_fs == 8
        assert rows[0].m_fe == 8
        with pytest.raises(ParameterError):
            resolution_sweep(REFERENCE_SELECTION_WEIGHTS, REFERENCE_EXTRACTION_WEIGHTS,
                             targets=(1.5,))

    def test_published_085_row(self):
        rows = resolution_sweep(REFERENCE_SELECTION_WEIGHTS,
                                REFERENCE_EXTRACTION_WEIGHTS, targets=[0.85])
        row = rows[0]
        assert (row.m_fs, row.m_fe) == (7, 7)
        assert row.achieved_fs == pytest.approx(0.8828, abs=5e-4)
        assert row.achieved_fe == pytest.approx(0.9069, abs=5e-4)
        assert row.delta == pytest.approx(0.0243, abs=5e-4)

    def test_published_050_row(self):
        rows = resolution_sweep(REFERENCE_SELECTION_WEIGHTS,
                                REFERENCE_EXTRACTION_WEIGHTS, targets=[0.5])
        row = rows[0]
        assert (row.m_fs, row.m_fe) == (4, 4)
        assert row.achieved_fs == pytest.approx(0.5227, abs=5e-4)
        assert row.achieved_fe == pytest.approx(0.5420, abs=5e-4)
        assert row.delta == pytest.approx(0.0191, abs=5e-4)

    def test_delta_only_when_counts_match(self):
        rows = resolution_sweep(REFERENCE_SELECTION_WEIGHTS,
                                REFERENCE_EXTRACTION_WEIGHTS)
        for row in rows:
            if row.m_fs == row.m_fe:
                assert row.delta is not None
            else:
                assert row.delta is None

    def test_default_grid(self):
        rows = resolution_sweep(REFERENCE_SELECTION_WEIGHTS,
                                REFERENCE_EXTRACTION_WEIGHTS)
        assert [r.target for r in rows] == list(SWEEP_TARGETS)


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

    def test_scatter_csv(self, tmp_path):
        cases = generate_cases(4, seed=6)
        path = tmp_path / "scatter.csv"
        write_scatter_csv(cases, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["interpretability_score",
                                        "integrity_score", "chosen_method"]
        assert len(rows) == 4

    def test_sweep_csv(self, tmp_path):
        rows_in = resolution_sweep(REFERENCE_SELECTION_WEIGHTS,
                                   REFERENCE_EXTRACTION_WEIGHTS)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows_in, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(rows_in)
        assert rows[-1]["target"] == "1.0"
        assert int(rows[-1]["m_fs"]) == 8
