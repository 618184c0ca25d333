"""Span recording around dimred's public functions, and per-layer sums.

The package binds names with ``from .x import y``, so a function is wrapped
in the module that calls it, not only where it is defined. Spans are kept in
memory by a :class:`Recorder` and written out with the pass result. Spans
recorded inside fork-started pool workers never reach the parent and are
lost; a multi-worker workload therefore gets an extra 1-worker traced pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

import numpy as np

# (module the caller looks the name up in, attribute, span name)
TARGETS = (
    ("dimred.cli", "load_csv", "dataset.load_csv"),
    ("dimred.cli", "run_decision_detailed", "decision.run"),
    ("dimred.cli", "render_silhouette_plot", "figures.silhouette_svg"),
    ("dimred.cli", "render_stacked_radar", "figures.radar_svg"),
    ("dimred.cli", "write_subset_scores", "frsd.write_scores"),
    ("dimred.decision", "minmax_normalize", "dataset.minmax"),
    ("dimred.decision", "frsd_rank", "frsd.rank"),
    ("dimred.decision", "pca_fit", "pca.fit"),
    ("dimred.decision", "pca_project", "pca.project"),
    ("dimred.decision", "best_silhouette_over_k", "decision.branch"),
    ("dimred.decision", "kmeans_fit", "kmeans.fit"),
    ("dimred.frsd", "kmeans_fit", "kmeans.fit"),
    ("dimred.kmeans", "silhouette", "kmeans.silhouette"),
    ("dimred.pca", "jacobi_eigh", "pca.eigh"),
)

# layer that owns a span's self time; every span name maps to one layer, so
# the layer self times of an operation add up to its wall time
LAYER_OF = {
    "cli.main": "cli", "frsd.write_scores": "cli",
    "dataset.load_csv": "dataset", "dataset.minmax": "dataset",
    "decision.run": "decision", "decision.branch": "decision",
    "frsd.rank": "frsd",
    "kmeans.fit": "kmeans", "kmeans.silhouette": "kmeans",
    "pca.fit": "pca", "pca.project": "pca", "pca.eigh": "pca",
    "figures.silhouette_svg": "figures", "figures.radar_svg": "figures",
}
LAYERS = ("cli", "dataset", "decision", "frsd", "kmeans", "pca", "figures")


class Recorder:
    """In-memory span store. A span is [id, parent, name, start, end, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, info=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter(), None, info]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()


def _fit_info(args, kwargs) -> dict:
    """Digest of a kmeans_fit call: a repeated (data, k, seed, restarts)
    within one operation is a duplicate fit."""
    data = np.ascontiguousarray(args[0], dtype=np.float64)
    k = args[1] if len(args) > 1 else kwargs["k"]
    seed = args[2] if len(args) > 2 else kwargs["seed"]
    restarts = args[3] if len(args) > 3 else kwargs.get("restarts", 10)
    digest = hashlib.sha1(data.tobytes()).hexdigest()
    return {"key": f"{data.shape}|{digest}|{k}|{seed}|{restarts}"}


def _silhouette_info(args, kwargs) -> dict:
    return {"n": int(np.shape(args[0])[0])}


INFO = {"kmeans.fit": _fit_info, "kmeans.silhouette": _silhouette_info}


def _wrap(fn, name, recorder):
    info_of = INFO.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, info_of(args, kwargs) if info_of else None)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = dict(span[5] or {}, error=True)
            raise
        finally:
            recorder.close(span)

    return traced


def install(recorder: Recorder) -> None:
    """Replace every target with a span-recording wrapper."""
    for module_name, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, _wrap(getattr(module, attr), name, recorder))


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another (the package is serial within
    a process), so their durations are summed.
    """
    child = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, _, _, start, end, _), c in zip(spans, child)]


# inclusive duration of a span name, summed into one metric
INCLUSIVE = {
    "cli.main": "cli.wall_s", "kmeans.fit": "kmeans.fit_s",
    "kmeans.silhouette": "kmeans.silhouette_s", "frsd.rank": "frsd.rank_s",
    "decision.run": "decision.run_s", "decision.branch": "decision.branch_s",
    "dataset.load_csv": "dataset.load_csv_s", "dataset.minmax": "dataset.minmax_s",
    "pca.fit": "pca.fit_s", "pca.eigh": "pca.eigh_s", "pca.project": "pca.project_s",
    "figures.silhouette_svg": "figures.silhouette_svg_s",
    "figures.radar_svg": "figures.radar_svg_s",
}
COUNTS = ("ops", "kmeans.fits", "kmeans.fit_errors", "kmeans.duplicate_fits",
          "kmeans.silhouette_calls", "kmeans.silhouette_bytes", "decision.branch_fits")


def layer_totals(spans) -> dict:
    """Per-layer self times, inclusive times and counters of one pass."""
    names = {s[0]: s[2] for s in spans}
    t = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    t.update({key: 0.0 for key in INCLUSIVE.values()})
    t["decision.final_fit_s"] = 0.0
    t.update({key: 0 for key in COUNTS})
    seen: set = set()
    for (_, parent, name, start, end, info), own in zip(spans, self_times(spans)):
        dur = end - start
        t[f"{LAYER_OF[name]}.self_s"] += own
        if name in INCLUSIVE:
            t[INCLUSIVE[name]] += dur
        if name == "cli.main":
            t["ops"] += 1
            seen = set()  # duplicates count within one operation
        elif name == "kmeans.fit":
            t["kmeans.fits"] += 1
            t["kmeans.fit_errors"] += bool(info.get("error"))
            t["kmeans.duplicate_fits"] += info["key"] in seen
            seen.add(info["key"])
            if names.get(parent) == "decision.branch":
                t["decision.branch_fits"] += 1
            elif names.get(parent) == "decision.run":
                t["decision.final_fit_s"] += dur
        elif name == "kmeans.silhouette":
            t["kmeans.silhouette_calls"] += 1
            t["kmeans.silhouette_bytes"] += 8 * info["n"] ** 2
    return t
