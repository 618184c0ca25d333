#!/usr/bin/env python3
"""Run the five standard preference scenarios on one dataset.

Scenarios pair an interpretability/integrity split with a target
resolution: strongly interpretability-oriented, strongly integrity-oriented
and balanced at high resolution, plus both strongly-oriented variants at
low resolution. The FRSD/PCA rankings are computed once with ``rank`` and
shared; each scenario is then reduced, clustered and decided with
``evaluate``. Optionally writes the silhouette/radar figures per scenario.
"""

import argparse
import os
import sys
import time

from dimred import SELECTION, evaluate, load_csv, rank
from dimred.cli import add_common_flags, emit_figures

SCENARIOS = [
    ("scenario1", 0.9, 0.85),
    ("scenario2", 0.1, 0.85),
    ("scenario3", 0.5, 0.85),
    ("scenario4", 0.9, 0.50),
    ("scenario5", 0.1, 0.50),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True, help="input CSV")
    parser.add_argument("--out", default=None,
                        help="directory for figures (omit to skip figures)")
    add_common_flags(parser)
    args = parser.parse_args()

    data = load_csv(args.input)
    print(f"{args.input}: {data.n_samples} rows x {data.n_features} features, "
          f"k in [{args.k_min}, {args.k_max}], {args.threads} worker(s)")

    t0 = time.time()
    rankings = rank(data, args.k_min, args.k_max, args.seed,
                    restarts=args.restarts, max_workers=args.threads)
    print(f"ranked both ways in {time.time() - t0:.1f}s "
          f"({len(rankings.subset_scores)} silhouette runs)")
    print("FRSD ranking: " + " > ".join(
        f"{name} ({w:.4f})" for name, w in rankings.frsd_weights.entries))
    print("PCA ranking:  " + " > ".join(
        f"{name} ({w:.4f})" for name, w in rankings.pca_weights.entries))
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    reports = []
    for name, alpha, target in SCENARIOS:
        outcome = evaluate(rankings, alpha, 1.0 - alpha, target)
        report = outcome.report
        reports.append((target, report))

        kept = ("selected features" if report.chosen_method == SELECTION
                else "principal components")
        print(f"\n== {name}: interpretability={alpha}, target={target:.0%}")
        print(f"  best FS / FE silhouette:  {report.best_si_fs:.4f} / {report.best_si_fe:.4f}")
        print(f"  interpretability score:   {report.interpretability_score:.4f}")
        print(f"  integrity score:          {report.integrity_score:.4f}")
        print(f"  chosen method:            {report.chosen_method} "
              f"({report.n_selected} {kept})")
        print(f"  achieved resolution:      {report.achieved_resolution:.1%}")
        print(f"  best number of clusters:  {report.best_k}")
        if args.out:
            emit_figures(outcome, args.out, name)

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
