"""The README's library example runs as written."""

import re
from pathlib import Path

import dimred
from dimred import DecisionConfig, run_decision_detailed
from helpers import make_blobs_with_noise

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The fenced ``python`` block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_as_written(monkeypatch, capsys):
    data = make_blobs_with_noise(seed=5, n_samples=60, n_noise=0)
    loaded = []
    monkeypatch.setattr(dimred, "load_csv", lambda path: loaded.append(path) or data)
    exec(compile(_library_example(), str(README), "exec"), {})
    assert loaded == ["wards.csv"]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    # the single-scenario entry point the next paragraph documents
    outcome = run_decision_detailed(data, DecisionConfig(
        interpretability=0.9, target_resolution=0.85), max_workers=2)
    report = outcome.report
    assert printed[0] == f"{report.chosen_method} {report.n_selected} {report.best_k}"
