"""Exact bytes of every file the CLI writes, for small fixed inputs.

The other tests read these files back with ``csv.DictReader`` or
``json.loads``; these pin the text itself: UTF-8, CRLF-terminated CSV rows
under a header, floats written with ``repr`` so they read back exactly,
subsets as quoted 1-based positions, an empty ``delta`` where the counts
differ, an ``indent=2`` report in field order with a trailing newline, and
LF-terminated SVG with coordinates to two decimals and escaped labels.
"""

from types import SimpleNamespace

import numpy as np

from dimred import (SELECTION, ClusteringResult, DecisionConfig, DecisionReport, FeatureWeights,
                    cli)
from dimred.cli import main
from dimred.figures import render_silhouette_plot, render_stacked_radar
from dimred.validation import RandomCase, resolution_sweep, write_cases_csv, write_sweep_csv

FRSD = FeatureWeights(entries=(("b", 0.5), ("a", 0.3), ("\u00e7", 0.2)))
PCA = FeatureWeights(entries=(("PC1", 0.75), ("PC2", 0.25)))
# the score table of 3 features at k 3..4: a row per subset, a column per k
SCORES = np.array([[0.25, 0.5], [-0.125, 0.0], [0.75, 0.1], [1 / 3, 1e-05]])
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


def test_run_writes_report_weights_and_subset_scores(demo_csv, tmp_path, monkeypatch):
    rankings = SimpleNamespace(frsd_weights=FRSD, pca_weights=PCA, subset_scores=SCORES,
                               columns=(0, 1, 2), config=DecisionConfig(k_min=3))
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
        b'"1,2",4,0.5\r\n'
        b'"1,3",3,-0.125\r\n'
        b'"1,3",4,0.0\r\n'
        b'"2,3",3,0.75\r\n'
        b'"2,3",4,0.1\r\n'
        b'"1,2,3",3,0.3333333333333333\r\n'
        b'"1,2,3",4,1e-05\r\n')
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


def test_sweep_csv(tmp_path):
    # extraction's running sums 0.6, 0.8999999999999999 and 0.9999999999999999: where
    # both counts are 3 they differ from selection's 1.0 by dust, written as a tie
    path = tmp_path / "sweep.csv"
    write_sweep_csv(resolution_sweep(FRSD, FeatureWeights(entries=(("PC1", 0.6), ("PC2", 0.3),
                                                                    ("PC3", 0.1)))), path)
    assert path.read_bytes() == (
        b"lo,hi,m_fs,achieved_fs,m_fe,achieved_fe,delta\r\n"
        b"0.0,0.5,1,0.5,1,0.6,0.09999999999999998\r\n"
        b"0.5,0.6,2,0.8,1,0.6,\r\n"
        b"0.6,0.8,2,0.8,2,0.8999999999999999,0.09999999999999987\r\n"
        b"0.8,0.8999999999999999,3,1.0,2,0.8999999999999999,\r\n"
        b"0.8999999999999999,1.0,3,1.0,3,0.9999999999999999,0.0\r\n")


def test_silhouette_plot_svg(tmp_path):
    # two clusters of two samples, one of them with a negative silhouette
    result = ClusteringResult(labels=np.array([0, 1, 0, 1]), centroids=np.zeros((2, 2)),
                              inertia=0.0, sample_silhouettes=np.array([0.5, 0.25, -0.25, 0.75]),
                              mean_silhouette=0.3125, k=2)
    path = tmp_path / "sil.svg"
    render_silhouette_plot(result, path)
    assert path.read_bytes() == b"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="600" viewBox="0 0 800 600">
<rect x="0" y="0" width="800" height="600" fill="#ffffff"/>
<text x="400.00" y="28" text-anchor="middle" font-family="Helvetica" font-size="18">Silhouette plot (k=2, mean=0.3125)</text>
<line x1="70.00" y1="545.00" x2="770.00" y2="545.00" stroke="#000000" stroke-width="1"/>
<line x1="70.00" y1="545.00" x2="70.00" y2="551.00" stroke="#000000" stroke-width="1"/>
<text x="70.00" y="567.00" text-anchor="middle" font-family="Helvetica" font-size="13">-1</text>
<line x1="245.00" y1="545.00" x2="245.00" y2="551.00" stroke="#000000" stroke-width="1"/>
<text x="245.00" y="567.00" text-anchor="middle" font-family="Helvetica" font-size="13">-0.5</text>
<line x1="420.00" y1="545.00" x2="420.00" y2="551.00" stroke="#000000" stroke-width="1"/>
<text x="420.00" y="567.00" text-anchor="middle" font-family="Helvetica" font-size="13">0</text>
<line x1="595.00" y1="545.00" x2="595.00" y2="551.00" stroke="#000000" stroke-width="1"/>
<text x="595.00" y="567.00" text-anchor="middle" font-family="Helvetica" font-size="13">0.5</text>
<line x1="770.00" y1="545.00" x2="770.00" y2="551.00" stroke="#000000" stroke-width="1"/>
<text x="770.00" y="567.00" text-anchor="middle" font-family="Helvetica" font-size="13">1</text>
<line x1="420.00" y1="60.00" x2="420.00" y2="545.00" stroke="#bbbbbb" stroke-width="1"/>
<rect x="420.00" y="60.00" width="175.00" height="121.25" fill="#1f77b4"/>
<rect x="332.50" y="181.25" width="87.50" height="121.25" fill="#1f77b4"/>
<text x="30.00" y="185.25" text-anchor="start" font-family="Helvetica" font-size="14" fill="#1f77b4">A (2)</text>
<rect x="420.00" y="302.50" width="262.50" height="121.25" fill="#ff7f0e"/>
<rect x="420.00" y="423.75" width="87.50" height="121.25" fill="#ff7f0e"/>
<text x="30.00" y="427.75" text-anchor="start" font-family="Helvetica" font-size="14" fill="#ff7f0e">B (2)</text>
<line x1="529.38" y1="60.00" x2="529.38" y2="545.00" stroke="#d62728" stroke-width="1.5" stroke-dasharray="6,4"/>
</svg>
"""


def test_stacked_radar_svg(tmp_path):
    path = tmp_path / "radar.svg"
    render_stacked_radar(("a", 'R&D <"x">', "c"), [[0.0, 0.5, 1.0], [1.0, 0.25, 0.5]], 1, path)
    assert path.read_bytes() == b"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="600" viewBox="0 0 800 600">
<rect x="0" y="0" width="800" height="600" fill="#ffffff"/>
<text x="400.00" y="28" text-anchor="middle" font-family="Helvetica" font-size="18">Cluster B (2 rows)</text>
<polygon points="400.00,262.50 445.47,341.25 354.53,341.25" fill="none" stroke="#cccccc" stroke-width="1"/>
<polygon points="400.00,210.00 490.93,367.50 309.07,367.50" fill="none" stroke="#cccccc" stroke-width="1"/>
<polygon points="400.00,157.50 536.40,393.75 263.60,393.75" fill="none" stroke="#cccccc" stroke-width="1"/>
<polygon points="400.00,105.00 581.87,420.00 218.13,420.00" fill="none" stroke="#cccccc" stroke-width="1"/>
<line x1="400.00" y1="315.00" x2="400.00" y2="105.00" stroke="#999999" stroke-width="1"/>
<text x="400.00" y="83.00" text-anchor="middle" font-family="Helvetica" font-size="13">a</text>
<line x1="400.00" y1="315.00" x2="581.87" y2="420.00" stroke="#999999" stroke-width="1"/>
<text x="604.38" y="437.00" text-anchor="middle" font-family="Helvetica" font-size="13">R&amp;D &lt;&quot;x&quot;&gt;</text>
<line x1="400.00" y1="315.00" x2="218.13" y2="420.00" stroke="#999999" stroke-width="1"/>
<text x="195.62" y="437.00" text-anchor="middle" font-family="Helvetica" font-size="13">c</text>
<polygon points="400.00,315.00 490.93,367.50 218.13,420.00" fill="#ff7f0e" fill-opacity="0.35" stroke="#ff7f0e" stroke-width="1"/>
<polygon points="400.00,105.00 445.47,341.25 309.07,367.50" fill="#ff7f0e" fill-opacity="0.35" stroke="#ff7f0e" stroke-width="1"/>
</svg>
"""
