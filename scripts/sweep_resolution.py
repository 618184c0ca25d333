#!/usr/bin/env python3
"""Resolution sweep on one dataset: features/PCs needed per target resolution.

Computes the FRSD and PCA importance weights once with ``rank``, then
tabulates for each target in 10% steps how many ranked features and how
many principal components reach it, plus the resolution advantage of
extraction wherever the two counts coincide.
"""

import argparse
import sys

from dimred import load_csv, rank
from dimred.cli import add_common_flags
from dimred.validation import resolution_sweep, write_sweep_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True, help="input CSV")
    parser.add_argument("--out", default=None, help="optional sweep CSV path")
    add_common_flags(parser)
    args = parser.parse_args()

    rankings = rank(load_csv(args.input), args.k_min, args.k_max, args.seed,
                    restarts=args.restarts, max_workers=args.threads)
    print(f"FRSD sweep: {len(rankings.subset_scores)} silhouette runs")

    rows = resolution_sweep(rankings.frsd_weights, rankings.pca_weights)
    print(f"{'target':>7} {'features':>9} {'res_fs':>8} {'PCs':>5} {'res_fe':>8} "
          f"{'delta':>8}")
    for row in rows:
        delta = "" if row.delta is None else f"{row.delta * 100:+.2f}pp"
        print(f"{row.target:>7.1f} {row.m_fs:>9d} {row.achieved_fs:>7.1%} "
              f"{row.m_fe:>5d} {row.achieved_fe:>7.1%} {delta:>8}")

    comparable = [r for r in rows if r.delta is not None]
    if comparable:
        advantage = sum(1 for r in comparable if r.delta >= 0)
        print(f"extraction resolution advantage in {advantage}/{len(comparable)} "
              f"comparable targets")
    if args.out:
        write_sweep_csv(rows, args.out)
        print(f"sweep written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
