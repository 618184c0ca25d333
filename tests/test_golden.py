"""Golden outputs: the SHA-256 of every byte the CLI writes for one small table.

``run --subset-scores`` with figures, ``rank --subset-scores`` and
``scenarios --out`` run through ``cli.main`` on ``data/golden_120x8.csv``
(``scripts/make_demo_data.py --rows 120``, committed as a CSV so the
generator's own draws do not enter) at k 3..5 with 3 restarts, on 1 and on 2
worker processes. 120 rows x 247 subsets x 3 k values x 3 restarts is above
the pool threshold, so 2 workers really pool. Every file written, and the
stdout with the output directory masked, must hash to the digests in
``data/golden_digests.json``.

The digests are compared strictly under the numpy and scipy versions they
were recorded with. Under other versions the test still passes if no digest
moved, and skips, naming both version pairs and the moved outputs, if some
did: the dependency contract tests in ``test_dependency_contract.py`` then
name the numpy behaviour that changed. The test prints which mode ran (shown
by ``pytest -s``; a skip reason by ``pytest -rs``).

A change that moves an output on purpose re-records the digests and says
which outputs moved and why:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from dimred import frsd
from dimred.cli import main

DATA = Path(__file__).parent / "data"
TABLE = DATA / "golden_120x8.csv"
DIGESTS = DATA / "golden_digests.json"
SWEEP = ["--k-min", "3", "--k-max", "5", "--restarts", "3"]
COMMANDS = {"run": ["run", "--subset-scores"],
            "rank": ["rank", "--subset-scores"],
            "scenarios": ["scenarios"]}


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(root: Path, threads: int) -> dict:
    """{command: {"stdout" or file name: SHA-256}}, each command writing to
    its own directory under ``root``."""
    digests = {}
    for command, argv in COMMANDS.items():
        out = root / command
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--input", str(TABLE), "--out", str(out), *SWEEP,
                         "--threads", str(threads)])
        assert code == 0, f"{command} exited {code}"
        files = {"stdout": sha256(stdout.getvalue().replace(str(out), "<out>").encode())}
        files.update((path.name, sha256(path.read_bytes())) for path in sorted(out.iterdir()))
        digests[command] = files
    return digests


def moved_outputs(recorded: dict, got: dict) -> list:
    return [f"{command}/{name}"
            for command in COMMANDS
            for name in sorted(recorded[command].keys() | got[command].keys())
            if recorded[command].get(name) != got[command].get(name)]


@pytest.mark.parametrize("threads", [1, 2])
def test_every_output_byte_matches_the_recorded_digests(threads, tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(frsd, "usable_cpus", lambda: 2)  # 2 workers pool on any machine
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = moved_outputs(recorded["outputs"], output_digests(tmp_path, threads))
    strict = recorded["versions"] == versions()
    mode = ("strict, under the recorded versions" if strict else
            f"fallback, recorded under {recorded['versions']}, running {versions()}")
    with capsys.disabled():
        print(f"\ngolden outputs on {threads} worker(s): {mode}; "
              f"{len(moved)} of {sum(map(len, recorded['outputs'].values()))} moved")
    if moved and not strict:
        pytest.skip(f"golden digests recorded under {recorded['versions']}, running "
                    f"{versions()}; moved: {', '.join(moved)}")
    assert not moved, f"outputs moved: {', '.join(moved)}"


def record() -> None:
    """Rewrite the digests from a 1-worker run, after checking that a 2-worker
    run writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        serial = output_digests(Path(tmp) / "threads1", 1)
        patch.setattr(frsd, "usable_cpus", lambda: 2)  # 2 workers pool on any machine
        pooled = output_digests(Path(tmp) / "threads2", 2)
    if serial != pooled:
        sys.exit(f"1 and 2 workers differ: {', '.join(moved_outputs(serial, pooled))}")
    DIGESTS.write_text(json.dumps({"versions": versions(), "outputs": serial}, indent=1)
                       + "\n", encoding="utf-8")
    print(f"recorded {sum(map(len, serial.values()))} digests to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
