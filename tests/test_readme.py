"""The README documents the exported names, and its library example runs as written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import dimred
from dimred import DecisionConfig, run_decision_detailed
from helpers import make_blobs_with_noise, make_dataset, write_dataset_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The fenced ``python`` block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _code(text: str) -> str:
    """The README's fenced blocks and inline code spans, one per line."""
    fenced = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
    return "\n".join(fenced.findall(text) + re.findall(r"`([^`]+)`", fenced.sub("", text)))


def test_every_exported_name_is_in_the_readme_code():
    code = _code(README.read_text(encoding="utf-8"))
    assert [name for name in dimred.__all__
            if not re.search(rf"\b{re.escape(name)}\b", code)] == []


def test_every_name_a_readme_example_imports_from_dimred_is_exported():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    imported = [alias.name for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "dimred"
                for alias in node.names]
    assert imported and set(imported) <= set(dimred.__all__)


def test_library_example_runs_as_written(monkeypatch, capsys):
    data = make_blobs_with_noise(seed=5, n_samples=60, n_noise=0)
    loaded = []
    monkeypatch.setattr(dimred, "load_csv", lambda path: loaded.append(path) or data)
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "__main__"})
    assert loaded == ["wards.csv"]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    # the single-scenario entry point the next paragraph documents
    outcome = run_decision_detailed(data, DecisionConfig(
        interpretability=0.9, target_resolution=0.85), max_workers=2)
    report = outcome.report
    assert printed[0] == f"{report.chosen_method} {report.n_selected} {report.best_k}"


# run before the README code: 2 usable CPUs and no work threshold, so the
# example's 2 workers start on any machine and under every start method, and
# one stderr line per pool opened; a spawned or forkserver worker re-imports
# it, opening no pool
PRELUDE = """\
import multiprocessing, sys
from dimred import frsd
multiprocessing.set_start_method({method!r}, force=True)
frsd.usable_cpus = lambda: 2
frsd._POOL_MIN_WORK = 0
open_pool = frsd._process_pool
def _process_pool(workers):
    print(f"pool of {{workers}} workers", file=sys.stderr)
    return open_pool(workers)
frsd._process_pool = _process_pool
"""


def test_library_example_runs_as_a_script_under_every_start_method(tmp_path):
    # the example's one rank opens one pool of 2 workers
    data = make_dataset(np.random.default_rng(4).uniform(size=(60, 4)))
    write_dataset_csv(data, tmp_path / "wards.csv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dimred.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    printed = {}
    for method in ("fork", "forkserver", "spawn"):
        script = tmp_path / "example.py"
        script.write_text(PRELUDE.format(method=method) + _library_example(), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (method, proc.stderr)
        assert proc.stderr.splitlines().count("pool of 2 workers") == 1, (method, proc.stderr)
        printed[method] = proc.stdout
    assert len(printed["fork"].splitlines()) == 3
    assert printed["forkserver"] == printed["spawn"] == printed["fork"]
