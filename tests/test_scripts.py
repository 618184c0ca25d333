"""The scenario and sweep scripts run on the library's rank/evaluate path."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dimred
from dimred import (DecisionConfig, EXTRACTION, SELECTION, decision, evaluate,
                    kmeans_fit, rank, run_decision, select_for_resolution)
from helpers import make_blobs_with_noise, write_dataset_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SWEEP = dict(k_min=2, k_max=4, seed=5, restarts=2)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCENARIOS = load_script("run_scenarios").SCENARIOS


@pytest.fixture(scope="module")
def blobs():
    return make_blobs_with_noise(seed=21, n_samples=40, n_noise=2)


def test_evaluate_per_scenario_matches_run_decision(blobs):
    rankings = rank(blobs, **SWEEP)
    for name, alpha, target in SCENARIOS:
        got = evaluate(rankings, alpha, 1.0 - alpha, target).report
        want = run_decision(blobs, DecisionConfig(
            interpretability_oriented=alpha, integrity_oriented=1.0 - alpha,
            target_resolution=target, **SWEEP))
        assert got.to_json_dict() == want.to_json_dict(), name


def test_scenarios_fit_each_branch_width_once(blobs, monkeypatch):
    fit_calls = []

    def counting_fit(*args, **kwargs):
        fit_calls.append(args[1])
        return kmeans_fit(*args, **kwargs)

    monkeypatch.setattr(decision, "kmeans_fit", counting_fit)
    rankings = rank(blobs, **SWEEP)
    for _, alpha, target in SCENARIOS:
        evaluate(rankings, alpha, 1.0 - alpha, target)
    branches = {(method, select_for_resolution(weights, target)[0])
                for _, _, target in SCENARIOS
                for method, weights in ((SELECTION, rankings.frsd_weights),
                                        (EXTRACTION, rankings.pca_weights))}
    assert len(branches) < 2 * len(SCENARIOS)  # scenarios do share branches
    n_k = SWEEP["k_max"] - SWEEP["k_min"] + 1
    assert len(fit_calls) == n_k * len(branches)


def test_run_scenarios_honours_dimred_threads(blobs, tmp_path):
    csv_path = write_dataset_csv(blobs, tmp_path / "blobs.csv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dimred.__file__)))
    env = dict(os.environ, DIMRED_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_scenarios.py"), "--input", str(csv_path),
         "--out", str(tmp_path / "figs"), "--k-min", "2", "--k-max", "3",
         "--restarts", "2"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "1 worker(s)" in proc.stdout.splitlines()[0]
    for name, _, _ in SCENARIOS:
        assert (tmp_path / "figs" / f"silhouette_{name}.svg").exists()
