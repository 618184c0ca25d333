"""Output checks for one ``dimred run`` operation.

An operation is checked in three ways:

* invariants, always: the report parses through
  ``DecisionReport.from_json_dict`` (weights sum to 1 and descend, the
  method agrees with the scores), the scores, best k, resolution, weight
  CSVs, subset-score table and figures are consistent with each other and
  with the input;
* against the reference recorded for the same input bytes and flags, when
  there is one: ``chosen_method``, ``n_selected`` and ``best_k`` exactly,
  weights and silhouettes within ``TOL``. The tolerance absorbs last-digit
  differences between BLAS thread counts;
* byte identity of the deterministic output files against the reference,
  reported as a count, never as a failure.

A run that aborts with ``fewer than k=... distinct points`` on an input
where some feature pair really has fewer than ``k_max`` distinct rows is the
known abort (ROADMAP open item 5). It is counted apart, not as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from itertools import combinations

import numpy as np

from dimred.decision import SELECTION, DecisionReport
from dimred.errors import DimredError

TOL = 1e-9
DETERMINISTIC_FILES = ("report.json", "frsd_weights.csv", "pca_weights.csv",
                       "subset_scores.csv")
KNOWN_ABORT = "distinct points"


def file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_key(csv_path, workload) -> str:
    flags = f"k{workload.k_min}-{workload.k_max}|s{int(workload.subset_scores)}"
    return f"{file_sha(csv_path)}|{flags}"


def _read_input(csv_path):
    with open(csv_path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")[1:]
    values = np.loadtxt(csv_path, delimiter=",", skiprows=1,
                        usecols=range(1, len(names) + 1), ndmin=2)
    return names, values


def _fewest_distinct(values) -> int:
    """Fewest distinct rows over all feature pairs (a subset never has more
    distinct rows than a superset, so pairs are enough)."""
    return min(np.unique(values[:, list(pair)], axis=0).shape[0]
               for pair in combinations(range(values.shape[1]), 2))


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def _weights_close(a, b) -> bool:
    return (len(a) == len(b)
            and all(na == nb and _close(wa, wb) for (na, wa), (nb, wb) in zip(a, b)))


def _read_weights_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(r[0], float(r[1])) for r in rows[1:]]


def summarize(out_dir, workload) -> dict:
    """What a reference records about one successful operation."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    summary = {key: doc[key] for key in (
        "chosen_method", "n_selected", "best_k", "frsd_weights", "pca_weights",
        "best_si_fs", "best_si_fe", "achieved_resolution")}
    if workload.subset_scores:
        per_k: dict = {}
        for _, k, si in _subset_rows(out_dir):
            per_k[str(k)] = per_k.get(str(k), 0.0) + si
        summary["subset_si_sum"] = per_k
    summary["files"] = {name: file_sha(os.path.join(out_dir, name))
                        for name in DETERMINISTIC_FILES
                        if os.path.exists(os.path.join(out_dir, name))}
    return summary


def _subset_rows(out_dir):
    with open(os.path.join(out_dir, "subset_scores.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["subset", "k", "si"]:
        raise ValueError("subset_scores.csv header")
    return [(tuple(int(i) - 1 for i in r[0].split(",")), int(r[1]), float(r[2]))
            for r in rows[1:]]


def _invariant_problems(out_dir, csv_path, workload) -> list[str]:
    names, values = _read_input(csv_path)
    n = len(names)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    report = DecisionReport.from_json_dict(doc)  # raises on broken invariants
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    need(sorted(report.frsd_weights.names) == sorted(names), "FRSD names != input columns")
    need(report.pca_weights.names == tuple(f"PC{i + 1}" for i in range(n)),
         "PCA names != PC1..PCn")
    for label, si in (("best_si_fs", report.best_si_fs), ("best_si_fe", report.best_si_fe)):
        need(-1.0 <= si <= 1.0, f"{label} outside [-1, 1]")
    need(report.interpretability_score == 0.5 * report.best_si_fs, "interpretability score")
    need(report.integrity_score == 0.5 * report.best_si_fe, "integrity score")
    need(workload.k_min <= report.best_k <= workload.k_max, "best_k outside k range")
    need(1 <= report.n_selected <= n, "n_selected outside 1..n")

    chosen = report.frsd_weights if report.chosen_method == SELECTION else report.pca_weights
    cumulative = np.cumsum(chosen.weights)
    m = report.n_selected
    need(_close(report.achieved_resolution, cumulative[m - 1]), "achieved resolution != prefix sum")
    need(cumulative[m - 1] >= 0.85 - 1e-12, "resolution below target")
    need(m == 1 or cumulative[m - 2] < 0.85 - 1e-12, "selection is not the smallest prefix")

    need(_weights_close(_read_weights_csv(os.path.join(out_dir, "frsd_weights.csv")),
                        report.frsd_weights.entries), "frsd_weights.csv != report")
    need(_weights_close(_read_weights_csv(os.path.join(out_dir, "pca_weights.csv")),
                        report.pca_weights.entries), "pca_weights.csv != report")

    if workload.subset_scores:
        rows = _subset_rows(out_dir)
        n_k = workload.k_max - workload.k_min + 1
        need(len(rows) == (2**n - n - 1) * n_k, "subset_scores.csv row count")
        need(all(-1.0 <= si <= 1.0 for _, _, si in rows), "subset silhouette outside [-1, 1]")
        # FRSD weights re-derived from the score table, independently of the package
        raw = np.zeros(n)
        for subset, _, si in rows:
            raw[list(subset)] += si
        rederived = dict(zip(names, raw / raw.sum()))
        need(all(_close(rederived[name], w) for name, w in report.frsd_weights.entries),
             "FRSD weights != aggregate of subset_scores.csv")

    need(os.path.getsize(os.path.join(out_dir, "silhouette_run.svg")) > 0, "silhouette figure")
    radars = sorted(f for f in os.listdir(out_dir) if f.startswith("radar_run_"))
    need(len(radars) == (report.best_k if report.n_selected >= 3 else 0), "radar figure count")
    return problems


def check_op(op, csv_path, out_dir, workload, references) -> dict:
    """Classify one operation: ok, known_abort or failed, with the reasons."""
    key = reference_key(csv_path, workload)
    ref = references.get(key)
    result = {"key": key, "status": "failed", "problems": [], "identical": 0, "compared": 0,
              "referenced": ref is not None}
    if op["exit_code"] != 0:
        _, values = _read_input(csv_path)
        if (op["exit_code"] == 1 and KNOWN_ABORT in op["error"]
                and _fewest_distinct(values) < workload.k_max
                and (ref is None or ref["outcome"] == "abort")):
            result["status"] = "known_abort"
        else:
            result["problems"].append(f"exit {op['exit_code']}: {op['error'].strip()[-300:]}")
        return result

    try:
        result["problems"] = _invariant_problems(out_dir, csv_path, workload)
        summary = summarize(out_dir, workload)
    except (DimredError, OSError, ValueError, KeyError, IndexError) as exc:
        result["problems"].append(f"invalid output: {exc!r}")
        return result
    if ref is not None and ref["outcome"] == "ok":
        p = result["problems"]
        for key_ in ("chosen_method", "n_selected", "best_k"):
            if summary[key_] != ref[key_]:
                p.append(f"{key_} {summary[key_]!r} != reference {ref[key_]!r}")
        for key_ in ("frsd_weights", "pca_weights"):
            if not _weights_close(summary[key_], ref[key_]):
                p.append(f"{key_} differ from reference")
        for key_ in ("best_si_fs", "best_si_fe", "achieved_resolution"):
            if not _close(summary[key_], ref[key_]):
                p.append(f"{key_} {summary[key_]!r} != reference {ref[key_]!r}")
        for k, total in ref.get("subset_si_sum", {}).items():
            if not _close(summary["subset_si_sum"].get(k, math.nan), total):
                p.append(f"subset silhouettes for k={k} differ from reference")
        for name, sha in ref["files"].items():
            result["compared"] += 1
            result["identical"] += summary["files"].get(name) == sha
    result["status"] = "failed" if result["problems"] else "ok"
    result["summary"] = summary
    return result


def reference_entry(verdict) -> dict | None:
    """The reference to record for a checked operation, or None if it failed."""
    if verdict["status"] == "ok":
        return {"outcome": "ok", **verdict["summary"]}
    if verdict["status"] == "known_abort":
        return {"outcome": "abort"}
    return None
