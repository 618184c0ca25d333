"""Workload definitions and their seeded input generators.

Every input is generated here from the workload seed; the program only ever
sees the CSV files written by :func:`write_pass_inputs`. Pass ``j`` of a run
with seed ``s`` draws from ``SeedSequence([s mod 2**63, j, table])``, so the same seed
always yields the same tables and different passes of one run see different
tables of the same shape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    k_min: int
    k_max: int
    threads: int
    tables: int  # operations (one `dimred run` each) per pass
    subset_scores: bool
    tail_pct: int  # fixed percentile reported as op_s.tail
    why: str

    def argv(self, csv_path: str, out_dir: str, threads: int | None = None) -> list[str]:
        argv = ["run", "--input", csv_path, "--out", out_dir,
                "--k-min", str(self.k_min), "--k-max", str(self.k_max),
                "--threads", str(self.threads if threads is None else threads)]
        if self.subset_scores:
            argv.append("--subset-scores")
        return argv


WORKLOADS = {
    w.name: w for w in (
        Workload("frsd-sweep", 3, 4, threads=2, tables=1, subset_scores=True,
                 tail_pct=50,
                 why="630x8 demo-shaped table, k 3..4, 2 workers, --subset-scores, 1 op "
                     "per pass: the FRSD sweep (494 fits) is ~95% of a real run and "
                     "exposes pool/BLAS oversubscription"),
        Workload("tall-rows", 3, 5, threads=1, tables=1, subset_scores=False,
                 tail_pct=50,
                 why="6000x3 correlated table, k 3..5, 1 worker, 1 op per pass: the n*n "
                     "silhouette matrix is ~half the time and sets peak memory; the "
                     "decision layer does 7 of 19 fits"),
        Workload("small-batch", 3, 6, threads=2, tables=12, subset_scores=False,
                 tail_pct=70,
                 why="12 tables per pass, 150-500 rows x 3-5 features, k 3..6, 2 workers: "
                     "per-call costs (pool start, ingest, figures); every 4th table has "
                     "two binary columns"),
    )
}

# demo-shaped table: (loading on the latent severity factor, output range)
DEMO_COLUMNS = (
    ("IMD Score", None, (1.5, 62.0)),
    ("Income Score", 0.90, (0.01, 0.45)),
    ("Employment Score", 0.90, (0.01, 0.40)),
    ("Health Score", 0.80, (-2.5, 2.5)),
    ("Education Score", 0.75, (0.5, 45.0)),
    ("Barriers Score", 0.30, (5.0, 55.0)),
    ("Crime Score", 0.70, (-2.0, 2.0)),
    ("Living Score", 0.35, (2.0, 60.0)),
)
DEMO_BLEND = (0.225, 0.225, 0.135, 0.135, 0.093, 0.093, 0.094)


def _rescale(x, lo, hi):
    z = (x - x.min()) / (x.max() - x.min())
    return lo + z * (hi - lo)


def _latent(rng, rows):
    """Trimodal severity factor, so k-means finds about three groups."""
    centers = rng.choice([-1.8, 0.0, 1.8], size=rows, p=[0.3, 0.45, 0.25])
    return centers + rng.normal(scale=0.55, size=rows)


def _loaded(rng, latent, loading):
    return loading * latent + np.sqrt(1.0 - loading**2) * rng.normal(size=latent.size)


def demo_table(rng, rows=630):
    """The 630x8 shape of the repository's demo data: seven domain scores
    loading on a latent factor, plus a combined index blended from them."""
    latent = _latent(rng, rows)
    domains = [_rescale(_loaded(rng, latent, loading), lo, hi)
               for _, loading, (lo, hi) in DEMO_COLUMNS[1:]]
    blended = sum(w * _rescale(d, 0.0, 1.0) for w, d in zip(DEMO_BLEND, domains))
    lo, hi = DEMO_COLUMNS[0][2]
    index = _rescale(blended + rng.normal(scale=0.02, size=rows), lo, hi)
    names = [name for name, _, _ in DEMO_COLUMNS]
    return names, np.column_stack([index] + domains), "%.4f"


def tall_table(rng, rows=6000):
    """Three correlated continuous columns over many rows."""
    latent = _latent(rng, rows)
    cols = [_rescale(_loaded(rng, latent, loading), 0.0, 100.0)
            for loading in (0.9, 0.75, 0.5)]
    return ["alpha", "beta", "gamma"], np.column_stack(cols), "%.5f"


def small_table(rng, index):
    """Table ``index`` of a small-batch pass.

    Rows and feature count are stratified over the 12 tables (150..500 rows,
    3..5 features) so every pass carries the same mix of sizes. Every fourth
    table replaces its first two columns by binary ones, which ``load_csv``
    and the README accept.
    """
    rows = 150 + (index * 350) // 11 + int(rng.integers(-8, 9))
    rows = min(max(rows, 150), 500)
    features = 3 + index % 3
    latent = _latent(rng, rows)
    cols = [_rescale(_loaded(rng, latent, 0.9 - 0.1 * j), 0.0, 10.0)
            for j in range(features)]
    if index % 4 == 3:
        for j in range(2):
            cols[j] = (_loaded(rng, latent, 0.8) > 0.0).astype(np.float64)
    names = [f"f{j + 1}" for j in range(features)]
    return names, np.column_stack(cols), "%.4f"


def write_csv(path, names, values, fmt):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id"] + names) + "\n")
        for i, row in enumerate(values):
            cells = ["%g" % v if v in (0.0, 1.0) else fmt % v for v in row]
            fh.write(f"r{i:05d}," + ",".join(cells) + "\n")


def write_pass_inputs(workload: Workload, seed: int, pass_index: int, work_dir: str) -> list[str]:
    """Write the CSV inputs of one pass and return their paths."""
    paths = []
    for t in range(workload.tables):
        rng = np.random.default_rng(np.random.SeedSequence([seed % 2**63, pass_index, t]))
        if workload.name == "frsd-sweep":
            names, values, fmt = demo_table(rng)
        elif workload.name == "tall-rows":
            names, values, fmt = tall_table(rng)
        else:
            names, values, fmt = small_table(rng, t)
        path = os.path.join(work_dir, f"p{pass_index:03d}_t{t:02d}.csv")
        write_csv(path, names, values, fmt)
        paths.append(path)
    return paths
