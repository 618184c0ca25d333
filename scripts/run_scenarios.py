#!/usr/bin/env python3
"""Run the five standard preference scenarios on one dataset.

Scenarios pair an interpretability/integrity split with a target
resolution: strongly interpretability-oriented, strongly integrity-oriented
and balanced at high resolution, plus both strongly-oriented variants at
low resolution. The FRSD/PCA rankings are computed once and shared; each
scenario then reduces, clusters and decides. Optionally writes the
silhouette/radar figures per scenario.
"""

import argparse
import os
import sys
import time

from dimred import (DecisionConfig, DecisionReport, RadarSeries, SELECTION,
                    best_silhouette_over_k, decide, frsd_rank, load_csv,
                    minmax_columns, minmax_normalize, pca_fit, pca_importance,
                    pca_project, render_silhouette_plot, render_stacked_radar,
                    select_for_resolution)
from dimred.figures import cluster_letter

SCENARIOS = [
    ("scenario1", 0.9, 0.85),
    ("scenario2", 0.1, 0.85),
    ("scenario3", 0.5, 0.85),
    ("scenario4", 0.9, 0.50),
    ("scenario5", 0.1, 0.50),
]


def emit_figures(name, out_dir, clustering, reduced, axis_labels):
    os.makedirs(out_dir, exist_ok=True)
    render_silhouette_plot(clustering,
                           os.path.join(out_dir, f"silhouette_{name}.svg"))
    if len(axis_labels) < 3:
        print(f"  note: {len(axis_labels)} retained dimensions; radar skipped")
        return
    scaled = minmax_columns(reduced)
    for c in range(clustering.k):
        series = RadarSeries(axis_labels=axis_labels,
                             rows=scaled[clustering.labels == c], cluster_id=c)
        render_stacked_radar(
            series, os.path.join(out_dir, f"radar_{name}_{cluster_letter(c)}.svg"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True, help="input CSV")
    parser.add_argument("--out", default=None,
                        help="directory for figures (omit to skip figures)")
    parser.add_argument("--k-min", type=int, default=3)
    parser.add_argument("--k-max", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()

    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    data = load_csv(args.input)
    normalized = minmax_normalize(data)
    print(f"{args.input}: {data.n_samples} rows x {data.n_features} features, "
          f"k in [{args.k_min}, {args.k_max}], {threads} worker(s)")

    t0 = time.time()
    frsd_weights, scores = frsd_rank(normalized, args.k_min, args.k_max,
                                     args.seed, restarts=args.restarts,
                                     max_workers=threads)
    model = pca_fit(normalized.values)
    pca_weights = pca_importance(model)
    print(f"ranked both ways in {time.time() - t0:.1f}s "
          f"({len(scores)} silhouette runs)")
    print("FRSD ranking: " + " > ".join(
        f"{name} ({w:.4f})" for name, w in frsd_weights.entries))
    print("PCA ranking:  " + " > ".join(
        f"{name} ({w:.4f})" for name, w in pca_weights.entries))

    # branch evaluations depend only on the retained width; cache by m
    fs_cache, fe_cache = {}, {}

    def fs_branch(m):
        if m not in fs_cache:
            cols = [normalized.column_index(n) for n in frsd_weights.names[:m]]
            values = normalized.values[:, cols]
            si, k, fit = best_silhouette_over_k(values, args.k_min, args.k_max,
                                                args.seed, args.restarts)
            fs_cache[m] = (values, si, k, fit)
        return fs_cache[m]

    def fe_branch(m):
        if m not in fe_cache:
            values = pca_project(model, normalized.values, m)
            si, k, fit = best_silhouette_over_k(values, args.k_min, args.k_max,
                                                args.seed, args.restarts)
            fe_cache[m] = (values, si, k, fit)
        return fe_cache[m]

    reports = []
    for name, alpha, target in SCENARIOS:
        config = DecisionConfig(
            interpretability_oriented=alpha, integrity_oriented=1.0 - alpha,
            target_resolution=target, k_min=args.k_min, k_max=args.k_max,
            seed=args.seed, restarts=args.restarts,
        )
        m_fs, achieved_fs = select_for_resolution(frsd_weights, target)
        m_fe, achieved_fe = select_for_resolution(pca_weights, target)
        fs_values, si_fs, k_fs, fit_fs = fs_branch(m_fs)
        fe_values, si_fe, k_fe, fit_fe = fe_branch(m_fe)
        method, s_interp, s_integ = decide(si_fs, si_fe, config)
        if method == SELECTION:
            n_kept, achieved, best_k = m_fs, achieved_fs, k_fs
            reduced, labels = fs_values, tuple(frsd_weights.names[:m_fs])
            clustering = fit_fs
        else:
            n_kept, achieved, best_k = m_fe, achieved_fe, k_fe
            reduced, labels = fe_values, tuple(f"PC{i + 1}" for i in range(m_fe))
            clustering = fit_fe
        report = DecisionReport(
            frsd_weights=frsd_weights, pca_weights=pca_weights,
            best_si_fs=si_fs, best_si_fe=si_fe,
            interpretability_score=s_interp, integrity_score=s_integ,
            chosen_method=method, n_selected=n_kept,
            achieved_resolution=achieved, best_k=best_k,
        )
        reports.append((target, report))

        kept = ("selected features" if method == SELECTION
                else "principal components")
        print(f"\n== {name}: interpretability={alpha}, target={target:.0%}")
        print(f"  best FS / FE silhouette:  {si_fs:.4f} / {si_fe:.4f}")
        print(f"  interpretability score:   {s_interp:.4f}")
        print(f"  integrity score:          {s_integ:.4f}")
        print(f"  chosen method:            {method} ({n_kept} {kept})")
        print(f"  achieved resolution:      {achieved:.1%}")
        print(f"  best number of clusters:  {best_k}")
        if args.out:
            emit_figures(name, args.out, clustering, reduced, labels)

    high = [r for t, r in reports if t > 0.8]
    low = [r for t, r in reports if t <= 0.5]
    if high and low:
        hi_si = max(max(r.best_si_fs, r.best_si_fe) for r in high)
        lo_si = max(max(r.best_si_fs, r.best_si_fe) for r in low)
        trend = "holds" if lo_si >= hi_si else "does NOT hold"
        print(f"\nlower-resolution-clusters-better trend: {trend} "
              f"(best SI {lo_si:.4f} at low targets vs {hi_si:.4f} at high)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
