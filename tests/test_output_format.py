"""Exact bytes of every file the CLI writes, for small fixed inputs.

The other tests read these files back with ``csv.DictReader`` or
``json.loads``; these pin the text itself: UTF-8, CRLF-terminated CSV rows
under a header, floats written with ``repr`` so they read back exactly,
subsets as quoted 1-based positions, an empty ``delta`` where the counts
differ, and an ``indent=2`` report in field order with a trailing newline.
"""

from types import SimpleNamespace

from dimred import SELECTION, DecisionReport, FeatureWeights, SubsetScore, cli
from dimred.cli import main
from dimred.validation import (RandomCase, SweepRow, write_cases_csv, write_scatter_csv,
                               write_sweep_csv)

FRSD = FeatureWeights(entries=(("b", 0.5), ("a", 0.3), ("\u00e7", 0.2)), source="FRSD")
PCA = FeatureWeights(entries=(("PC1", 0.75), ("PC2", 0.25)), source="PCA")
SCORES = [SubsetScore(subset=(0, 1), k=3, si=0.25),
          SubsetScore(subset=(0, 2), k=3, si=-0.125),
          SubsetScore(subset=(0, 1, 2), k=4, si=1 / 3)]
REPORT = DecisionReport(frsd_weights=FRSD, pca_weights=PCA, best_si_fs=0.6,
                        best_si_fe=0.4, interpretability_score=0.5, integrity_score=0.125,
                        chosen_method=SELECTION, n_selected=2, achieved_resolution=0.8,
                        best_k=3)
CASES = [RandomCase(si_fs=0.5, si_fe=0.25, alpha=0.75, integrity=0.25,
                    interpretability_score=0.375, integrity_score=0.0625,
                    chosen_method="SELECTION"),
         RandomCase(si_fs=0.1, si_fe=0.7, alpha=0.2, integrity=0.8,
                    interpretability_score=0.020000000000000004,
                    integrity_score=0.5599999999999999, chosen_method="EXTRACTION")]
SWEEP = [SweepRow(target=0.2, m_fs=2, achieved_fs=0.25, m_fe=1, achieved_fe=0.75,
                  delta=None),
         SweepRow(target=1.0, m_fs=3, achieved_fs=1.0, m_fe=3, achieved_fe=0.9999999999999999,
                  delta=-1.1102230246251565e-16)]


def test_run_writes_report_weights_and_subset_scores(demo_csv, tmp_path, monkeypatch):
    rankings = SimpleNamespace(frsd_weights=FRSD, pca_weights=PCA, subset_scores=SCORES)
    monkeypatch.setattr(cli, "run_decision_detailed",
                        lambda *args, **kwargs: SimpleNamespace(report=REPORT,
                                                                rankings=rankings))
    out = tmp_path / "out"
    assert main(["run", "--input", str(demo_csv), "--out", str(out), "--no-figures",
                 "--subset-scores", "--threads", "1"]) == 0

    # weight_minmax: (w - min) / (max - min), so 0.3 maps to 0.1 / 0.3 in floats
    assert (out / "frsd_weights.csv").read_bytes() == (
        b"name,weight,weight_minmax\r\n"
        b"b,0.5,1.0\r\n"
        b"a,0.3,0.33333333333333326\r\n"
        b"\xc3\xa7,0.2,0.0\r\n")
    assert (out / "pca_weights.csv").read_bytes() == (
        b"name,weight\r\n"
        b"PC1,0.75\r\n"
        b"PC2,0.25\r\n")
    assert (out / "subset_scores.csv").read_bytes() == (
        b"subset,k,si\r\n"
        b'"1,2",3,0.25\r\n'
        b'"1,3",3,-0.125\r\n'
        b'"1,2,3",4,0.3333333333333333\r\n')
    assert (out / "report.json").read_bytes() == b"""{
  "frsd_weights": [
    [
      "b",
      0.5
    ],
    [
      "a",
      0.3
    ],
    [
      "\\u00e7",
      0.2
    ]
  ],
  "pca_weights": [
    [
      "PC1",
      0.75
    ],
    [
      "PC2",
      0.25
    ]
  ],
  "best_si_fs": 0.6,
  "best_si_fe": 0.4,
  "interpretability_score": 0.5,
  "integrity_score": 0.125,
  "chosen_method": "SELECTION",
  "n_selected": 2,
  "achieved_resolution": 0.8,
  "best_k": 3
}
"""


def test_cases_csv(tmp_path):
    path = tmp_path / "cases.csv"
    write_cases_csv(CASES, path)
    assert path.read_bytes() == (
        b"si_fs,si_fe,alpha,integrity,interpretability_score,integrity_score,"
        b"chosen_method\r\n"
        b"0.5,0.25,0.75,0.25,0.375,0.0625,SELECTION\r\n"
        b"0.1,0.7,0.2,0.8,0.020000000000000004,0.5599999999999999,EXTRACTION\r\n")


def test_scatter_csv(tmp_path):
    path = tmp_path / "scatter.csv"
    write_scatter_csv(CASES, path)
    assert path.read_bytes() == (
        b"interpretability_score,integrity_score,chosen_method\r\n"
        b"0.375,0.0625,SELECTION\r\n"
        b"0.020000000000000004,0.5599999999999999,EXTRACTION\r\n")


def test_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(SWEEP, path)
    assert path.read_bytes() == (
        b"target,m_fs,achieved_fs,m_fe,achieved_fe,delta\r\n"
        b"0.2,2,0.25,1,0.75,\r\n"
        b"1.0,3,1.0,3,0.9999999999999999,-1.1102230246251565e-16\r\n")
