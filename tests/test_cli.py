"""CLI subcommands, flag handling and output files."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimred
from dimred import cli
from dimred.cli import main
from dimred import (Dataset, DecisionConfig, DecisionReport, EXTRACTION, SELECTION,
                    decide, decision, evaluate, frsd, kmeans_fits, load_csv, rank,
                    run_decision_detailed)
from dimred.dataset import minmax_normalize
from dimred.decision import select_for_resolution
from dimred.validation import resolution_sweep, write_sweep_csv
from helpers import make_blobs_with_noise, make_dataset, outputs_by_name, write_dataset_csv

FAST = ["--k-min", "2", "--k-max", "3", "--restarts", "2", "--threads", "1"]


def run_cli(argv):
    return main(argv)


class TestRun:
    def test_writes_all_outputs(self, demo_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", "--input", str(demo_csv), "--out", str(out),
                        "--interpretability", "0.9", "--target-resolution", "0.8",
                        "--seed", "42", "--subset-scores"] + FAST)
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "frsd_weights.csv").exists()
        assert (out / "pca_weights.csv").exists()
        assert (out / "subset_scores.csv").exists()
        assert (out / "silhouette_run.svg").exists()
        report = DecisionReport.from_json_dict(
            json.loads((out / "report.json").read_text()))
        radar_files = list(out.glob("radar_run_*.svg"))
        if report.n_selected >= 3:
            assert len(radar_files) == report.best_k
        captured = capsys.readouterr().out
        for needle in ("FRSD feature weights:", "PCA component weights:",
                       "best FS silhouette index:", "best FE silhouette index:",
                       "interpretability score:", "integrity score:",
                       "chosen method:", "achieved resolution:",
                       "best number of clusters:"):
            assert needle in captured

    def test_report_satisfies_invariants_when_reparsed(self, demo_csv, tmp_path):
        out = tmp_path / "out"
        run_cli(["run", "--input", str(demo_csv), "--out", str(out),
                 "--interpretability", "0.7", "--target-resolution", "0.9"] + FAST)
        doc = json.loads((out / "report.json").read_text())
        report = DecisionReport.from_json_dict(doc)  # __post_init__ re-validates
        # integrity defaulted to 1 - 0.7
        assert report.interpretability_score == pytest.approx(
            0.7 * report.best_si_fs, abs=1e-12)
        assert report.integrity_score == pytest.approx(
            0.3 * report.best_si_fe, abs=1e-12)
        assert report.achieved_resolution >= 0.9 - 1e-9
        weight_sum = sum(w for _, w in report.frsd_weights.entries)
        assert weight_sum == pytest.approx(1.0, abs=1e-9)

    def test_integrity_score_uses_the_complement(self, demo_csv, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--input", str(demo_csv), "--out", str(out),
                        "--interpretability", "0.3"] + FAST) == 0
        report = DecisionReport.from_json_dict(json.loads((out / "report.json").read_text()))
        assert report.integrity_score == (1.0 - 0.3) * report.best_si_fe
        assert (report.chosen_method, report.interpretability_score,
                report.integrity_score) == decide(report.best_si_fs, report.best_si_fe, 0.3)

    def test_constant_column_warns_on_stdout(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = write_dataset_csv(make_dataset(np.column_stack(
            [rng.normal(size=120), np.full(120, 2.5), rng.uniform(size=120)]),
            names=["a", "b", "c"]), tmp_path / "flat.csv")
        code = run_cli(["run", "--input", str(path), "--out", str(tmp_path / "o")] + FAST)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "warning: column 'b' is constant; normalized to 0.0\n" in captured.out
        assert captured.err == ""

    def test_integrity_flag_is_unknown(self, demo_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--input", str(demo_csv), "--out", str(tmp_path / "o"),
                     "--integrity", "0.3"] + FAST)
        assert exc.value.code == 2
        assert "unrecognized arguments: --integrity 0.3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_k_range_exits_2(self, demo_csv, tmp_path, capsys):
        k_range = "need 2 <= --k-min <= --k-max, got [5, 3]"
        # the other flags DecisionConfig rejects are flag errors too, in every
        # command, and each message names the flag
        for argv, message in ((["run", "--k-min", "5", "--k-max", "3"], k_range),
                              (["rank", "--k-min", "5", "--k-max", "3"], k_range),
                              (["scenarios", "--k-min", "5", "--k-max", "3"], k_range),
                              (["run", "--restarts", "0"], "--restarts must be at least 1"),
                              (["scenarios", "--restarts", "0"], "--restarts must be at least 1"),
                              (["run", "--target-resolution", "1.5"],
                               "--target-resolution must be in (0, 1]"),
                              (["run", "--target-resolution", "0"],
                               "--target-resolution must be in (0, 1]"),
                              (["run", "--interpretability", "1.5"],
                               "--interpretability must be in [0, 1]")):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + ["--input", str(demo_csv), "--out", str(tmp_path / "o")])
            assert exc.value.code == 2, argv
            assert capsys.readouterr().err.endswith(f" error: {message}\n"), argv
            assert not (tmp_path / "o").exists(), argv

    def test_data_dependent_parameter_errors_exit_1(self, demo_csv, tmp_path, capsys):
        rng = np.random.default_rng(0)
        binary = write_dataset_csv(make_dataset(np.column_stack(
            [rng.integers(0, 2, 40), rng.integers(0, 2, 40), rng.uniform(size=40)])),
            tmp_path / "binary.csv")
        for command, csv_path, k_range, needle, threads in (
                ("run", binary, ["--k-min", "3", "--k-max", "6"], "distinct points", "1"),
                ("run", binary, ["--k-min", "3", "--k-max", "6"], "distinct points", "2"),
                ("run", demo_csv, ["--k-min", "2", "--k-max", "40"], "exceeds 30 samples", "1"),
                ("rank", demo_csv, ["--k-min", "2", "--k-max", "40"], "exceeds 30 samples", "1"),
                ("scenarios", binary, ["--k-min", "3", "--k-max", "6"], "distinct points", "2")):
            code = run_cli([command, "--input", str(csv_path), "--out", str(tmp_path / "o"),
                            "--restarts", "2", "--threads", threads] + k_range)
            assert code == 1
            captured = capsys.readouterr()
            assert needle in captured.err
            assert not (tmp_path / "o").exists(), command  # no output directory on exit 1
            # the k range is checked against the rows before the sweep size is announced
            assert ("FRSD sweep:" in captured.out) == (needle == "distinct points"), command

    def test_too_wide_table_exits_1_with_one_line(self, tmp_path, capsys):
        path = write_dataset_csv(make_dataset(
            np.random.default_rng(0).uniform(size=(75, 70))), tmp_path / "wide.csv")
        for threads in ("1", "2"):
            code = run_cli(["rank", "--input", str(path), "--out", str(tmp_path / "o"),
                            "--k-min", "2", "--k-max", "2", "--restarts", "1",
                            "--threads", threads])
            err = capsys.readouterr().err
            assert code == 1, threads
            assert err.startswith("error: 70 features give ") and err.count("\n") == 1, err
            assert not (tmp_path / "o").exists(), threads

    def test_column_range_above_float64_max(self, tmp_path, capsys):
        # every value is finite, but the column's max - min overflows to inf
        rng = np.random.default_rng(0)
        huge = rng.uniform(-1.0, 1.0, 40) * 1e308
        huge[:2] = 1e308, -1e308
        path = write_dataset_csv(make_dataset(np.column_stack(
            [huge, rng.normal(size=40), rng.uniform(size=40)]), names=["a", "b", "c"]),
            tmp_path / "huge.csv")
        code = run_cli(["run", "--input", str(path), "--out", str(tmp_path / "o")] + FAST)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "warning" not in captured.out and captured.err == ""
        column = minmax_normalize(load_csv(path)).values[:, 0]
        assert column.min() == 0.0 and column.max() == 1.0  # so it lies in [0, 1]

    def test_case_with_a_path_separator_exits_2_before_the_sweep(self, demo_csv, tmp_path,
                                                                 capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--input", str(demo_csv), "--out", str(out),
                     "--case", f"a{os.sep}b"] + FAST)
        assert exc.value.code == 2
        assert "--case must not contain a path separator" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_1(self, tmp_path, capsys):
        for command in ("run", "rank", "scenarios"):
            code = run_cli([command, "--input", str(tmp_path / "nope.csv"),
                            "--out", str(tmp_path / "o")] + FAST)
            assert code == 1, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), (command, err)

    def test_csv_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"id,caf\xe9,b\nr1,1.0,2.0\nr2,3.0,4.0\n")
        code = run_cli(["run", "--input", str(bad), "--out", str(tmp_path / "o")] + FAST)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a,b\nr1,1.0,oops\nr2,2.0,3.0\n")
        code = run_cli(["run", "--input", str(bad), "--out", str(tmp_path / "o")] + FAST)
        assert code == 1
        assert "oops" in capsys.readouterr().err


class TestAnyLoadableTable:
    """Tables that ``load_csv`` accepts, drawn from values that strain the
    arithmetic (subnormals, +-1e308, 1 and the float after it) and from
    binary, ternary and continuous columns."""

    EXTREMES = [5e-324, 2.5e-320, -1e-310, 1e308, -1e308, 1.0, math.nextafter(1.0, 2.0)]
    POOLS = [st.sampled_from(EXTREMES), st.sampled_from([0.0, 1.0]),
             st.sampled_from([0.0, 1.0, 2.0]), st.floats(-1e3, 1e3)]
    POOLS.append(st.one_of(POOLS))

    @staticmethod
    def _run(data, names, out):
        """``dimred run`` on the table of ``names`` and columns ``data``:
        (exit code, stderr)."""
        path = out.with_suffix(".csv")
        write_dataset_csv(make_dataset(np.column_stack(data), names), path)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", "--input", str(path), "--out", str(out), "--subset-scores"]
                        + FAST)
        return code, stderr.getvalue()

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_exits_cleanly_and_ignores_column_order(self, data):
        n_features, n_rows = data.draw(st.integers(2, 4)), data.draw(st.integers(4, 29))
        columns = [data.draw(st.lists(data.draw(st.sampled_from(self.POOLS)),
                                      min_size=n_rows, max_size=n_rows))
                   for _ in range(n_features)]
        names = data.draw(st.permutations([f"c{j}" for j in range(n_features)]))
        perm = data.draw(st.permutations(range(n_features)))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, err = self._run(columns, names, out)
            if code == 1:  # a documented data error: one line, no output directory
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not out.exists()
                return
            assert code == 0, err
            permuted = Path(tmp) / "permuted"
            assert self._run([columns[j] for j in perm], [names[j] for j in perm],
                             permuted) == (0, "")
            assert outputs_by_name(permuted, [names[j] for j in perm]) == \
                outputs_by_name(out, names)


class TestRank:
    def test_writes_weight_tables(self, demo_csv, tmp_path, capsys):
        out = tmp_path / "rank_out"
        code = run_cli(["rank", "--input", str(demo_csv), "--out", str(out)] + FAST)
        assert code == 0
        frsd_lines = (out / "frsd_weights.csv").read_text().strip().splitlines()
        assert frsd_lines[0] == "name,weight,weight_minmax"
        assert len(frsd_lines) == 5  # 4 features + header
        pca_lines = (out / "pca_weights.csv").read_text().strip().splitlines()
        assert pca_lines[0] == "name,weight"
        assert pca_lines[1].startswith("PC1,")
        assert "FRSD sweep:" in capsys.readouterr().out

    def test_writes_resolution_sweep(self, demo_csv, tmp_path, capsys):
        out = tmp_path / "rank_out"
        assert run_cli(["rank", "--input", str(demo_csv), "--out", str(out),
                        "--seed", "42"] + FAST) == 0
        rankings = rank(load_csv(demo_csv), DecisionConfig(k_min=2, k_max=3, seed=42, restarts=2))
        write_sweep_csv(resolution_sweep(rankings.frsd_weights, rankings.pca_weights),
                        tmp_path / "want.csv")
        assert (out / "sweep.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        captured = capsys.readouterr().out
        assert "resolution sweep:" in captured
        for target in range(1, 11):
            assert f"  target {target / 10:.1f}: features=" in captured
        assert "extraction resolution advantage in" in captured

    def test_weights_are_read_back_from_the_subset_scores(self, tmp_path, fake_pools):
        # columns out of name order: the file's rows follow the name order,
        # its subset numbers the input positions
        data = make_blobs_with_noise(seed=21, n_samples=30, n_noise=1)
        names = data.feature_names[::-1]
        path = write_dataset_csv(make_dataset(data.values[:, ::-1], names), tmp_path / "in.csv")
        out = tmp_path / "rank_out"
        assert run_cli(["rank", "--input", str(path), "--out", str(out), "--subset-scores",
                        "--k-min", "3", "--k-max", "4", "--restarts", "2", "--threads", "2"]) == 0
        with open(out / "subset_scores.csv", newline="") as f:
            table = np.array([float(row["si"]) for row in csv.DictReader(f)]).reshape(-1, 2)
        with open(out / "frsd_weights.csv", newline="") as f:
            written = tuple((row["name"], float(row["weight"])) for row in csv.DictReader(f))
        assert fake_pools[0].submitted > 0  # the sweep ran on the pool
        assert frsd.weights(table, sorted(names)).entries == written

    @pytest.mark.parametrize("n_features", [2, 3, 5])
    @pytest.mark.parametrize("k_min, k_max", [(2, 2), (3, 5)])
    def test_printed_sweep_size_is_the_score_tables(self, tmp_path, capsys, n_features, k_min,
                                                   k_max):
        data = make_dataset(np.random.default_rng(n_features).uniform(size=(12, n_features)))
        path = write_dataset_csv(data, tmp_path / "in.csv")
        out = tmp_path / "out"
        assert run_cli(["rank", "--input", str(path), "--out", str(out), "--subset-scores",
                        "--k-min", str(k_min), "--k-max", str(k_max), "--restarts", "1",
                        "--threads", "1"]) == 0
        sizes = re.search(r"^FRSD sweep: (\d+) silhouette runs \((\d+) subsets x (\d+) "
                          r"cluster counts\)$", capsys.readouterr().out, re.MULTILINE)
        runs, n_subsets, n_ks = map(int, sizes.groups())
        with open(out / "subset_scores.csv", newline="") as f:
            rows = [(row["subset"], int(row["k"])) for row in csv.DictReader(f)]
        assert runs == n_subsets * n_ks == len(rows)
        assert len({subset for subset, _ in rows}) == n_subsets == 2**n_features - n_features - 1
        assert sorted({k for _, k in rows}) == list(range(k_min, k_max + 1))


SWEEP = dict(k_min=2, k_max=4, seed=5, restarts=2)


class TestScenarios:
    @pytest.fixture(scope="class")
    def blobs(self):
        return make_blobs_with_noise(seed=21, n_samples=40, n_noise=2)

    def test_evaluate_per_scenario_matches_run_decision_detailed(self, blobs):
        rankings = rank(blobs, DecisionConfig(**SWEEP))
        for case, alpha, target in cli.SCENARIOS:
            got = evaluate(rankings, alpha, target).report
            want = run_decision_detailed(blobs, DecisionConfig(
                interpretability=alpha, target_resolution=target, **SWEEP)).report
            assert got.to_json_dict() == want.to_json_dict(), case

    def test_scenarios_fit_each_branch_width_once(self, blobs, tmp_path, fake_pools,
                                                  monkeypatch):
        fit_calls = []

        def counting_fits(*args, **kwargs):
            fit_calls.extend(args[1])
            return kmeans_fits(*args, **kwargs)

        monkeypatch.setattr(decision, "kmeans_fits", counting_fits)
        csv_path = write_dataset_csv(blobs, tmp_path / "blobs.csv")
        assert run_cli(["scenarios", "--input", str(csv_path), "--threads", "2", "--k-min",
                        "2", "--k-max", "4", "--seed", "5", "--restarts", "2"]) == 0
        rankings = rank(load_csv(csv_path), DecisionConfig(**SWEEP))
        branches = {(method, select_for_resolution(weights, target)[0])
                    for _, _, target in cli.SCENARIOS
                    for method, weights in ((SELECTION, rankings.frsd_weights),
                                            (EXTRACTION, rankings.pca_weights))}
        assert len(branches) < 2 * len(cli.SCENARIOS)  # scenarios do share branches
        n_k = SWEEP["k_max"] - SWEEP["k_min"] + 1
        assert len(fit_calls) == n_k * len(branches)
        pool, = fake_pools  # every branch fitted once, on the sweep's pool
        assert len(pool.items(decision.best_silhouette_over_k)) == len(branches)

    def test_writes_each_scenarios_silhouette(self, blobs, tmp_path, capsys):
        csv_path = write_dataset_csv(blobs, tmp_path / "blobs.csv")
        figs = tmp_path / "figs"
        assert run_cli(["scenarios", "--input", str(csv_path), "--out", str(figs)]
                       + FAST) == 0
        for case, _, _ in cli.SCENARIOS:
            assert (figs / f"silhouette_{case}.svg").exists()
        captured = capsys.readouterr().out
        assert captured.count("chosen method:") == len(cli.SCENARIOS)
        assert "lower-resolution-clusters-better trend:" in captured

    def test_each_scenarios_figures_are_the_ones_run_writes(self, blobs, tmp_path):
        csv_path = write_dataset_csv(blobs, tmp_path / "blobs.csv")
        flags = ["--input", str(csv_path), "--k-min", "2", "--k-max", "4", "--seed", "5",
                 "--restarts", "2", "--threads", "1"]
        figs = tmp_path / "figs"
        assert run_cli(["scenarios", "--out", str(figs)] + flags) == 0
        radars = 0
        for case, alpha, target in cli.SCENARIOS:
            out = tmp_path / case
            assert run_cli(["run", "--out", str(out), "--case", case, "--interpretability",
                            str(alpha), "--target-resolution", str(target)] + flags) == 0
            written = {p.name: p.read_bytes() for p in out.glob("*.svg")}
            assert f"silhouette_{case}.svg" in written, case
            assert written == {p.name: p.read_bytes() for p in figs.glob(f"*_{case}*.svg")}, case
            radars += sum(name.startswith("radar_") for name in written)
        assert radars  # radar charts compared too, not only silhouette plots


class TestValidate:
    def test_zero_misclassified(self, tmp_path, capsys):
        out = tmp_path / "val"
        code = run_cli(["validate", "--cases", "250", "--seed", "7",
                        "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "misclassified: 0/250" in captured
        assert "extraction resolution advantage in" in captured
        assert (out / "cases.csv").exists()
        assert (out / "scatter.csv").exists()
        assert (out / "sweep.csv").exists()

    def test_single_case(self, tmp_path):
        out = tmp_path / "val1"
        assert run_cli(["validate", "--cases", "1", "--seed", "3",
                        "--out", str(out)]) == 0
        lines = (out / "cases.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one case

    def test_zero_cases_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate", "--cases", "0", "--out", str(tmp_path / "v")])
        assert exc.value.code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate", "--seed", "-1", "--out", str(tmp_path / "v")])
        assert exc.value.code == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()


class TestOut:
    """Every command checks ``--out`` before it reads any input, and creates nothing."""

    COMMANDS = [["run", "--input", "in.csv"], ["rank", "--input", "in.csv"],
                ["scenarios", "--input", "in.csv"], ["validate"]]

    @pytest.fixture(autouse=True)
    def no_input_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("load_csv", "generate_cases"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_empty_out_exits_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--out", ""])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(" error: --out must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_out_at_or_under_a_file_exits_1(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        for out, blocker in ((str(taken), str(taken)), (str(taken / "sub"), str(taken)),
                             ("taken/sub/", "taken")):
            assert run_cli(command + ["--out", out]) == 1, out
            assert capsys.readouterr().err == \
                f"error: --out {out!r}: {blocker!r} exists and is not a directory\n"
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept"


class TestSweepFlags:
    def test_defaults_are_decision_configs(self):
        config = DecisionConfig()
        for command in ("run", "rank", "scenarios"):
            args = cli.build_parser().parse_args([command, "--input", "x.csv"])
            names = ("k_min", "k_max", "seed", "restarts") + (
                ("interpretability", "target_resolution") if command == "run" else ())
            for name in names:
                assert getattr(args, name) == getattr(config, name), (command, name)


class TestThreads:
    def test_default_is_the_cpu_count(self, monkeypatch):
        # the CPUs this process may run on: one under `taskset -c 0` on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("DIMRED_THREADS", "3")  # an environment variable changes nothing
        for command in ("run", "rank", "scenarios"):
            args = cli.build_parser().parse_args([command, "--input", "x.csv"])
            assert args.threads == 1, command
        # a platform without sched_getaffinity counts every CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli.build_parser().parse_args(["run", "--input", "x.csv"]).threads == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # and one if it cannot count
        assert cli.build_parser().parse_args(["run", "--input", "x.csv"]).threads == 1

    def test_invalid_threads_exits_2(self, demo_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--input", str(demo_csv), "--out", str(tmp_path / "o"),
                     "--threads", "0"])
        assert exc.value.code == 2


class TestWorkerPool:
    """One pool per command, shared by the FRSD sweep and the decision branches."""

    COMMANDS = (["run", "--subset-scores"], ["rank"], ["scenarios"])

    @staticmethod
    def _argv(command, csv_path, out, threads, k_max="3"):
        return command + ["--input", str(csv_path), "--out", str(out), "--threads", threads,
                          "--k-min", "2", "--k-max", k_max, "--restarts", "2"]

    def test_each_command_opens_one_pool(self, demo_csv, tmp_path, fake_pools, monkeypatch):
        fit_calls = []

        def counting_fits(*args, **kwargs):
            fit_calls.append(args[0].shape)
            return kmeans_fits(*args, **kwargs)

        monkeypatch.setattr(decision, "kmeans_fits", counting_fits)
        for command in self.COMMANDS:
            del fake_pools[:], fit_calls[:]
            assert run_cli(self._argv(command, demo_csv, tmp_path / "o", "2")) == 0
            assert [pool._max_workers for pool in fake_pools] == [2], command
            # every branch fit ran in the pool's chunks, and the sweep ran on it too
            branches = fake_pools[0].items(decision.best_silhouette_over_k)
            assert [values.shape for values in branches] == fit_calls, command
            assert fake_pools[0].items(frsd._score_subset), command
        for threads, work in (("1", 0), ("2", 30 * 11 * 2 * 2 + 1)):
            monkeypatch.setattr(frsd, "_POOL_MIN_WORK", work)
            for command in self.COMMANDS:
                del fake_pools[:]
                assert run_cli(self._argv(command, demo_csv, tmp_path / "o", threads)) == 0
                assert fake_pools == [], (command, threads)

    def test_pooled_branches_write_the_same_bytes(self, demo_csv, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(frsd, "_POOL_MIN_WORK", 0)  # a table this small runs in-process
        monkeypatch.setattr(frsd, "usable_cpus", lambda: 2)  # 2 workers on any machine
        for command in (["run", "--subset-scores"], ["scenarios"]):
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{command[0]}{threads}"
                assert run_cli(self._argv(command, demo_csv, out, threads, "4")) == 0
                stdout = capsys.readouterr().out.replace(str(out), "OUT")
                outputs.append((stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
            assert outputs[0] == outputs[1], command
            assert any(name.endswith(".svg") for name in outputs[0][1]), command

    def test_branch_error_in_a_worker_exits_1_with_one_line(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(frsd, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(frsd, "usable_cpus", lambda: 2)  # 2 workers on any machine
        # every pair has many distinct rows, but the top-ranked feature has 3,
        # so the one-feature selection branch cannot fit k=4
        rng = np.random.default_rng(0)
        levels = rng.integers(0, 3, 60).astype(float)
        csv_path = write_dataset_csv(make_dataset(np.column_stack(
            [levels, levels / 2 + rng.normal(0, 0.3, 60), rng.uniform(size=60)])),
            tmp_path / "levels.csv")
        errors = []
        for threads in ("1", "2"):
            code = run_cli(self._argv(["run", "--target-resolution", "0.3"], csv_path,
                                      tmp_path / "o", threads, "4"))
            assert code == 1
            assert not (tmp_path / "o").exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: fewer than k=4 distinct points\n"


class TestBlasThreads:
    def test_outputs_do_not_depend_on_blas_thread_count(self, tmp_path):
        # 630 rows in shuffled order: large enough, and mixed enough, that a
        # BLAS product split across threads would round differently
        ds = make_blobs_with_noise(seed=21, n_samples=630, n_noise=1)
        perm = np.random.default_rng(3).permutation(ds.n_samples)
        ds = Dataset(feature_names=ds.feature_names, values=ds.values[perm])
        csv_path = write_dataset_csv(ds, tmp_path / "data.csv")
        src = os.path.dirname(os.path.dirname(os.path.abspath(dimred.__file__)))
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "dimred", "run", "--input", str(csv_path),
                 "--out", str(tmp_path / f"blas{blas_threads}"), "--subset-scores",
                 "--no-figures", "--threads", "2", "--k-min", "2", "--k-max", "3",
                 "--restarts", "2"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "frsd_weights.csv", "pca_weights.csv",
                     "subset_scores.csv"):
            one, two = tmp_path / "blas1" / name, tmp_path / "blas2" / name
            assert one.read_bytes() == two.read_bytes(), \
                f"{name} differs between OPENBLAS_NUM_THREADS=1 and 2"


def _loads_unused(module):
    """A module a serial run does not use: scipy's packages (the k-means
    code loads only its compiled distance kernels), the worker-pool
    machinery, and ``numpy.ma``."""
    return (module.split(".")[0] in ("scipy", "multiprocessing")
            or module == "concurrent.futures.process"
            or module == "numpy.ma" or module.startswith("numpy.ma."))


class TestImportFootprint:
    def _modules(self, code, *args):
        """The modules loaded by a fresh interpreter that runs ``code`` and
        then prints ``sys.modules`` as its last line."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(dimred.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; print(*sys.modules)", *args],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_no_unused_scipy_package_is_loaded(self):
        # a scipy that moves the distance kernels turns this red while dimred
        # runs on the public cdist
        modules = self._modules("import dimred, dimred.cli")
        assert "dimred.kmeans" in modules
        assert [m for m in modules if _loads_unused(m)] == []

    def test_serial_run_loads_no_unused_module(self, tmp_path):
        csv_path = write_dataset_csv(make_blobs_with_noise(seed=3, n_samples=40),
                                     tmp_path / "data.csv")
        modules = self._modules(
            "from dimred.cli import main; assert main(sys.argv[1:]) == 0",
            "run", "--input", str(csv_path), "--out", str(tmp_path / "out"),
            "--threads", "1", "--k-min", "2", "--k-max", "3", "--restarts", "2",
            "--subset-scores")
        assert "dimred.figures" in modules and (tmp_path / "out" / "report.json").exists()
        assert [m for m in modules if _loads_unused(m)] == []
