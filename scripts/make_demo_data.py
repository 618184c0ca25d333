#!/usr/bin/env python3
"""Generate a deprivation-style demo CSV compatible with the pipeline.

Produces a ward-level table with the usual eight deprivation scores. A
trimodal latent severity factor drives most columns (so k-means finds
around three groups), domain scores load on it with varying strength, and
the combined index column is a weighted blend of the domains. Magnitudes
are scaled per column to plausible ranges; the pipeline normalizes anyway.
"""

import argparse
import csv

import numpy as np

# domain columns in output order: (name, loading on the latent factor,
# output range, weight in the combined index)
DOMAINS = (
    ("Income Score", 0.90, (0.01, 0.45), 0.225),
    ("Employment Score", 0.90, (0.01, 0.40), 0.225),
    ("Health Score", 0.80, (-2.5, 2.5), 0.135),
    ("Education Score", 0.75, (0.5, 45.0), 0.135),
    ("Barriers Score", 0.30, (5.0, 55.0), 0.093),
    ("Crime Score", 0.70, (-2.0, 2.0), 0.093),
    ("Living Score", 0.35, (2.0, 60.0), 0.094),
)


def rescale(x, lo, hi):
    z = (x - x.min()) / (x.max() - x.min())
    return lo + z * (hi - lo)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_wards.csv", help="output CSV path")
    parser.add_argument("--rows", type=int, default=630, help="number of wards")
    parser.add_argument("--seed", type=int, default=11, help="random seed")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    centers = rng.choice([-1.8, 0.0, 1.8], size=args.rows, p=[0.3, 0.45, 0.25])
    latent = centers + rng.normal(scale=0.55, size=args.rows)

    domains = []
    for _, loading, (lo, hi), _ in DOMAINS:
        raw = loading * latent + np.sqrt(1.0 - loading**2) * rng.normal(size=args.rows)
        domains.append(rescale(raw, lo, hi))

    blended = sum(weight * rescale(domain, 0.0, 1.0)
                  for (*_, weight), domain in zip(DOMAINS, domains))
    imd = rescale(blended + rng.normal(scale=0.02, size=args.rows), 1.5, 62.0)

    columns = ["IMD Score"] + [name for name, *_ in DOMAINS]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ward"] + columns)
        for i in range(args.rows):
            writer.writerow([f"E{5000000 + i:08d}", f"{imd[i]:.4f}"]
                            + [f"{domain[i]:.4f}" for domain in domains])
    print(f"wrote {args.rows} wards x {len(columns)} features to {args.out}")


if __name__ == "__main__":
    main()
