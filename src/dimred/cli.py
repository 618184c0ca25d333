"""Command-line entry points: run, rank, scenarios and validate.

``run`` executes the full pipeline on a CSV file (ingest, rank with FRSD
and PCA, decide between selection and extraction, reduce, cluster) and
writes the report, weight tables and figures. ``rank`` stops after the two
weight tables and the resolution sweep over them. ``scenarios`` ranks once
and evaluates the five standard preference scenarios. ``validate``
exercises the decision rule on random cases and emits the resolution sweep
over built-in reference profiles.

Exit codes: 0 on success, 1 on data or compute errors, 2 on flag errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from .dataset import Dataset, load_csv, minmax_columns, write_csv
from .decision import (DecisionConfig, DecisionOutcome, Rankings, SELECTION, evaluate, rank,
                       run_decision_detailed)
from .errors import DimredError, ParameterError
from .figures import RadarSeries, cluster_letter, render_silhouette_plot, render_stacked_radar
from .frsd import sweep_shape, write_subset_scores
from .validation import (REFERENCE_EXTRACTION_WEIGHTS, REFERENCE_SELECTION_WEIGHTS,
                         count_misclassified, generate_cases, resolution_sweep,
                         write_cases_csv, write_scatter_csv, write_sweep_csv)

# (case, interpretability, target resolution): strongly interpretability-
# oriented, strongly integrity-oriented and balanced at high resolution,
# plus both strongly oriented splits at low resolution
SCENARIOS = [
    ("scenario1", 0.9, 0.85),
    ("scenario2", 0.1, 0.85),
    ("scenario3", 0.5, 0.85),
    ("scenario4", 0.9, 0.50),
    ("scenario5", 0.1, 0.50),
]


def add_common_flags(parser: argparse.ArgumentParser) -> None:
    """The sweep flags shared by ``run``, ``rank`` and ``scenarios``."""
    parser.add_argument("--k-min", type=int, help="smallest cluster count tried")
    parser.add_argument("--k-max", type=int, help="largest cluster count tried")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--restarts", type=int, help="k-means restarts per fit")
    parser.set_defaults(**{name: getattr(DecisionConfig, name)  # its field defaults
                           for name in ("k_min", "k_max", "seed", "restarts")})
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    parser.add_argument("--threads", type=int, default=cpus,
                        help="worker processes for the FRSD sweep and the decision "
                             "branches (default: the CPUs this process may run on)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimred",
        description="Decide between feature selection and feature extraction, "
                    "then cluster at the chosen resolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline: report, weights, figures")
    run.add_argument("--input", required=True, help="input CSV (id column + numeric features)")
    run.add_argument("--out", default="dimred_out", help="output directory")
    run.add_argument("--interpretability", type=float,
                     default=DecisionConfig.interpretability,
                     help="preference for keeping feature names, in [0, 1]; the "
                          "preference for information retention is its complement")
    run.add_argument("--target-resolution", type=float,
                     default=DecisionConfig.target_resolution,
                     help="minimum cumulative importance to retain, in (0, 1]")
    run.add_argument("--case", default="run", help="label used in figure file names")
    run.add_argument("--subset-scores", action="store_true",
                     help="also dump the full FRSD score table")
    run.add_argument("--no-figures", action="store_true", help="skip SVG output")
    add_common_flags(run)
    run.set_defaults(func=cmd_run, parser=run)

    rank = sub.add_parser("rank", help="FRSD and PCA weight tables and resolution sweep")
    rank.add_argument("--input", required=True, help="input CSV")
    rank.add_argument("--out", default="dimred_out", help="output directory")
    rank.add_argument("--subset-scores", action="store_true",
                      help="also dump the full FRSD score table")
    add_common_flags(rank)
    rank.set_defaults(func=cmd_rank, parser=rank)

    scenarios = sub.add_parser("scenarios",
                               help="the five standard preference scenarios, ranked once")
    scenarios.add_argument("--input", required=True, help="input CSV")
    scenarios.add_argument("--out", default=None,
                           help="directory for figures (omit to skip figures)")
    add_common_flags(scenarios)
    scenarios.set_defaults(func=cmd_scenarios, parser=scenarios)

    validate = sub.add_parser("validate",
                              help="random-case decision check plus resolution sweep")
    validate.add_argument("--cases", type=int, default=250, help="number of random cases")
    validate.add_argument("--seed", type=int, default=42, help="random seed")
    validate.add_argument("--out", default="dimred_out", help="output directory")
    validate.set_defaults(func=cmd_validate, parser=validate)

    return parser


def _config(args) -> DecisionConfig:
    """Validate the flags that set ``DecisionConfig`` fields, each the
    ``dest`` of its flag, in one place: the sweep flags, and ``run``'s
    preference and resolution. What DecisionConfig rejects is a flag error
    (exit 2), reported under the flag's name."""
    if args.threads < 1:
        args.parser.error("--threads must be at least 1")
    names = [f.name for f in fields(DecisionConfig)]
    try:
        return DecisionConfig(**{n: v for n, v in vars(args).items() if n in names})
    except ParameterError as exc:
        message = str(exc)
        for name in names:
            message = message.replace(name, "--" + name.replace("_", "-"))
        args.parser.error(message)


def _with_warnings_printed(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    for w in caught:
        print(f"warning: {w.message}")
    return result


def _write_rankings(rankings: Rankings, args) -> None:
    os.makedirs(args.out, exist_ok=True)
    frsd, pca = rankings.frsd_weights, rankings.pca_weights
    write_csv(os.path.join(args.out, "frsd_weights.csv"), ["name", "weight", "weight_minmax"],
              [(n, w, z) for (n, w), (_, z) in zip(frsd.entries, frsd.minmax_view())])
    write_csv(os.path.join(args.out, "pca_weights.csv"), ["name", "weight"], pca.entries)
    if args.subset_scores:
        write_subset_scores(rankings.subset_scores, rankings.columns, rankings.config.k_min,
                            os.path.join(args.out, "subset_scores.csv"))


def _print_rankings(rankings: Rankings) -> None:
    for title, weights in (("FRSD feature weights:", rankings.frsd_weights),
                           ("PCA component weights:", rankings.pca_weights)):
        print(title)
        for position, (name, w) in enumerate(weights.entries, start=1):
            print(f"  {position}. {name:<24s} {w:.4f}")


def _print_sweep(title: str, rows) -> None:
    print(title)
    for row in rows:
        delta = "" if row.delta is None else f"  delta={row.delta * 100:+.2f}pp"
        print(f"  target {row.target:.1f}: features={row.m_fs} "
              f"({row.achieved_fs * 100:.1f}%)  PCs={row.m_fe} "
              f"({row.achieved_fe * 100:.1f}%){delta}")
    comparable = [row for row in rows if row.delta is not None]
    if comparable:
        advantage = sum(1 for row in comparable if row.delta >= 0)
        print(f"extraction resolution advantage in {advantage}/{len(comparable)} "
              f"comparable targets")


def _print_report(outcome: DecisionOutcome) -> None:
    report = outcome.report
    print(f"best FS silhouette index:  {report.best_si_fs:.4f}")
    print(f"best FE silhouette index:  {report.best_si_fe:.4f}")
    print(f"interpretability score:    {report.interpretability_score:.4f}")
    print(f"integrity score:           {report.integrity_score:.4f}")
    print(f"chosen method:             {report.chosen_method}")
    if report.chosen_method == SELECTION:
        print(f"selected features:         {report.n_selected}")
    else:
        print(f"principal components:      {report.n_selected}")
    print(f"achieved resolution:       {report.achieved_resolution:.4f} "
          f"({report.achieved_resolution * 100:.1f}%)")
    print(f"best number of clusters:   {report.best_k}")


def emit_figures(outcome: DecisionOutcome, out_dir: str, case: str) -> None:
    """Silhouette plot of the chosen clustering, plus one stacked radar per
    cluster when at least 3 dimensions are retained, in ``out_dir`` (created)."""
    os.makedirs(out_dir, exist_ok=True)
    chosen = outcome.chosen
    render_silhouette_plot(chosen.clustering,
                           os.path.join(out_dir, f"silhouette_{case}.svg"))
    if len(chosen.axis_labels) < 3:
        print("note: fewer than 3 retained dimensions; radar charts skipped")
        return
    scaled = minmax_columns(chosen.reduced_values)
    for c in range(chosen.clustering.k):
        series = RadarSeries(axis_labels=chosen.axis_labels,
                             rows=scaled[chosen.clustering.labels == c],
                             cluster_id=c)
        render_stacked_radar(
            series, os.path.join(out_dir, f"radar_{case}_{cluster_letter(c)}.svg")
        )


def _load_input(args, config: DecisionConfig) -> Dataset:
    """Load ``--input``, check the sweep values against its rows, print the sweep size."""
    data = load_csv(args.input)
    n_subsets, ks = sweep_shape(data, config)
    print(f"FRSD sweep: {n_subsets * len(ks)} silhouette runs "
          f"({n_subsets} subsets x {len(ks)} cluster counts)", flush=True)
    return data


def _rank_input(args, targets=()) -> Rankings:
    """Check the sweep flags, load the input, rank the table both ways and fit
    the branches that reach each target resolution, all on one pool."""
    config = _config(args)
    return _with_warnings_printed(rank, _load_input(args, config), config, args.threads, targets)


def cmd_run(args) -> int:
    config = _config(args)
    if any(sep and sep in args.case for sep in (os.sep, os.altsep)):
        args.parser.error("--case must not contain a path separator")
    data = _load_input(args, config)
    outcome = _with_warnings_printed(run_decision_detailed, data, config,
                                     max_workers=args.threads)

    _write_rankings(outcome.rankings, args)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(outcome.report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    if not args.no_figures:
        emit_figures(outcome, args.out, args.case)

    _print_rankings(outcome.rankings)
    _print_report(outcome)
    print(f"outputs written to {args.out}")
    return 0


def cmd_rank(args) -> int:
    rankings = _rank_input(args)
    sweep = resolution_sweep(rankings.frsd_weights, rankings.pca_weights)

    _write_rankings(rankings, args)
    write_sweep_csv(sweep, os.path.join(args.out, "sweep.csv"))
    _print_rankings(rankings)
    _print_sweep("resolution sweep:", sweep)
    print(f"outputs written to {args.out}")
    return 0


def cmd_scenarios(args) -> int:
    rankings = _rank_input(args, [target for _, _, target in SCENARIOS])
    _print_rankings(rankings)

    best_si = []
    for case, alpha, target in SCENARIOS:
        outcome = evaluate(rankings, alpha, target)
        print(f"\n== {case}: interpretability={alpha}, target={target:.0%}")
        _print_report(outcome)
        if args.out is not None:
            emit_figures(outcome, args.out, case)
        best_si.append((target, max(outcome.report.best_si_fs, outcome.report.best_si_fe)))

    hi_si = max(si for target, si in best_si if target > 0.5)
    lo_si = max(si for target, si in best_si if target <= 0.5)
    trend = "holds" if lo_si >= hi_si else "does NOT hold"
    print(f"\nlower-resolution-clusters-better trend: {trend} "
          f"(best SI {lo_si:.4f} at low targets vs {hi_si:.4f} at high)")
    return 0


def cmd_validate(args) -> int:
    if args.cases < 1:
        args.parser.error("--cases must be at least 1")
    if args.seed < 0:
        args.parser.error("--seed must be nonnegative")
    os.makedirs(args.out, exist_ok=True)

    cases = generate_cases(args.cases, args.seed)
    wrong = count_misclassified(cases)
    sweep = resolution_sweep(REFERENCE_SELECTION_WEIGHTS, REFERENCE_EXTRACTION_WEIGHTS)

    write_cases_csv(cases, os.path.join(args.out, "cases.csv"))
    write_scatter_csv(cases, os.path.join(args.out, "scatter.csv"))
    write_sweep_csv(sweep, os.path.join(args.out, "sweep.csv"))

    print(f"misclassified: {wrong}/{len(cases)}")
    _print_sweep("resolution sweep (reference 8-feature profiles):", sweep)
    print(f"outputs written to {args.out}")
    return 0 if wrong == 0 else 1


def _check_out(args) -> None:
    """Reject, creating nothing, an empty ``--out`` or one at or under a non-directory."""
    if args.out == "":
        args.parser.error("--out must not be empty")
    out = Path(args.out or ".")  # scenarios without --out writes no file
    for path in (out, *out.parents):  # nearest first, up to "." or the root
        if os.path.isdir(path):
            return
        if os.path.lexists(path):
            raise ParameterError(f"--out {args.out!r}: {str(path)!r} exists and is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args)
        return args.func(args)
    except (DimredError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
