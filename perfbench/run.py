#!/usr/bin/env python3
"""dimred benchmark: `dimred run` workloads, measured end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload frsd-sweep --seed 1 --seconds 30 --trace 0

Each pass runs in its own process (pass_main.py) so that its peak RSS and
CPU time, read with wait4 after the pass and its pool workers have exited,
belong to that pass alone. Passes repeat for about ``--seconds``.
Every operation's outputs are checked (check.py). The last line of standard
output is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

``--record`` merges the outcomes of this run into references.json; later
runs on the same inputs are then compared against them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "op_s.p50": "s", "op_s.tail": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "kmeans.fits": "count", "kmeans.fit_s": "s", "kmeans.silhouette_s": "s",
    "kmeans.silhouette_calls": "count", "kmeans.silhouette_bytes": "bytes",
    "kmeans.duplicate_fits": "count", "kmeans.fit_errors": "count", "frsd.self_s": "s",
    "kmeans.fit_self_s": "s", "kmeans.useful_fit_ratio": "ratio",
    "kmeans.silhouette_share": "ratio", "kmeans.fit_share": "ratio",
    "frsd.rank_s": "s", "frsd.tasks": "count", "frsd.fits_per_s": "1/s",
    "frsd.parallel_efficiency": "ratio", "frsd.share": "ratio",
    "decision.run_s": "s", "decision.branch_s": "s", "decision.branch_fits": "count",
    "decision.final_fit_s": "s", "decision.self_s": "s", "dataset.load_csv_s": "s",
    "dataset.minmax_s": "s", "pca.fit_s": "s", "pca.eigh_s": "s", "pca.project_s": "s",
    "figures.silhouette_svg_s": "s", "figures.radar_svg_s": "s", "cli.self_s": "s",
    "figures.files": "count", "figures.bytes_out": "bytes", "cli.bytes_out": "bytes",
    "cli.abort_ratio": "ratio", "trace.op_s": "s", "trace.overhead_s": "s",
}


def subprocess_env() -> dict:
    # the program runs as users run it: no BLAS or thread variable is set
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_measured(cmd, cwd, timeout, stderr_path):
    """Run ``cmd`` to completion; return (wall seconds, rusage, exit code).

    The rusage comes from wait4, so it covers the process and every
    descendant it reaped (the pool workers): CPU time is summed and
    ``ru_maxrss`` is the larger of its own peak and the largest child's.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=subprocess_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def setup_times(work) -> list[float]:
    """Wall time of fresh interpreters that import dimred.cli."""
    cmd = [sys.executable, "-c", "import dimred.cli"]
    times = []
    for _ in range(SETUP_PROBES):
        wall, _, code = run_measured(cmd, work, 60, os.path.join(work, "setup.err"))
        if code != 0:
            raise RuntimeError(f"import dimred.cli failed ({code})")
        times.append(wall)
    return times


def percentile(values, pct: int):
    """Percentile by linear interpolation; the 50th is the median."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def out_bytes(out_dir):
    if not os.path.isdir(out_dir):
        return 0, 0, 0
    files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
    svgs = [f for f in files if f.endswith(".svg")]
    return (len(svgs), sum(os.path.getsize(f) for f in svgs),
            sum(os.path.getsize(f) for f in files))


def run_pass(workload, kind, index, csv_paths, work, deadline, references, tally):
    """Run one pass of ``kind`` = (traced, workers) and check every operation."""
    traced, workers = kind
    tag = f"p{index:03d}_{'t' if traced else 'u'}{workers}"
    outs = [os.path.join(work, f"{tag}_op{i:02d}") for i in range(len(csv_paths))]
    job = {"trace": traced,
           "ops": [workload.argv(c, o, threads=workers) for c, o in zip(csv_paths, outs)]}
    job_path, result_path = os.path.join(work, f"{tag}.job"), os.path.join(work, f"{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    timeout = max(5.0, deadline - time.perf_counter())
    wall, usage, code = run_measured([sys.executable, os.path.join(HERE, "pass_main.py"),
                                      job_path, result_path], work, timeout,
                                     os.path.join(work, f"{tag}.err"))
    record = {"kind": kind, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "op_s": [], "spans": None,
              "svg_files": 0, "svg_bytes": 0, "bytes_out": 0, "n_features": []}
    tally["attempted"] += len(csv_paths)
    if code != 0 or not os.path.exists(result_path):
        with open(os.path.join(work, f"{tag}.err"), encoding="utf-8", errors="replace") as fh:
            reason = fh.read()[-500:]
        tally["failed"] += len(csv_paths)
        tally["problems"].append(f"{tag}: pass exited {code}: {reason}")
        return record
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    record["spans"] = result["spans"]
    import check
    for i, (op, csv_path, out_dir) in enumerate(zip(result["ops"], csv_paths, outs)):
        record["op_s"].append(op["wall_s"])
        with open(csv_path, encoding="utf-8") as fh:
            record["n_features"].append(len(fh.readline().split(",")) - 1)
        files, svg_bytes, total = out_bytes(out_dir)
        record["svg_files"] += files
        record["svg_bytes"] += svg_bytes
        record["bytes_out"] += total
        verdict = check.check_op(op, csv_path, out_dir, workload, references)
        tally[verdict["status"]] += 1  # ok, known_abort or failed
        tally["exit_errors"] += op["exit_code"] != 0
        tally["referenced"] += verdict["referenced"]
        tally["identical"] += verdict["identical"]
        tally["compared"] += verdict["compared"]
        if verdict["status"] == "failed":
            tally["problems"].append(f"{tag} op {i}: " + "; ".join(verdict["problems"]))
        entry = check.reference_entry(verdict)
        if entry is not None:
            tally["new_refs"][verdict["key"]] = entry
        shutil.rmtree(out_dir, ignore_errors=True)
    return record


def end_to_end(passes, setup, workload):
    ops = [t for p in passes for t in p["op_s"]]
    beyond = sum(t > percentile(ops, workload.tail_pct) for t in ops)
    print(f"op_s.tail is p{workload.tail_pct} of {len(ops)} operations "
          f"({beyond} beyond it; {len(passes)} passes)")
    print("setup probes: " + " ".join(f"{t:.3f}" for t in setup) + " s")
    if beyond < 10:
        print("note: fewer than 10 operations lie beyond the reported tail percentile")
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": percentile(ops, workload.tail_pct),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }


def per_layer(passes, workload, tally):
    import spans as spanlib
    threads = workload.threads

    def med(kind, key):
        return statistics.median(p[key] for p in passes if p["kind"] == kind)

    def layer(kind):
        totals = [spanlib.layer_totals(p["spans"]) for p in passes
                  if p["kind"] == kind and p["spans"] is not None]
        return {key: statistics.median(t[key] for t in totals) for key in totals[0]}

    def op_sum(kind):
        return statistics.median(sum(p["op_s"]) for p in passes if p["kind"] == kind)

    conf, serial = layer((True, threads)), layer((True, 1))
    n_k = workload.k_max - workload.k_min + 1
    tasks = statistics.median(sum((2**n - n - 1) * n_k for n in p["n_features"])
                              for p in passes if p["kind"] == (True, threads))
    m = {}
    for key in ("kmeans.fits", "kmeans.fit_s", "kmeans.silhouette_s",
                "kmeans.silhouette_calls", "kmeans.silhouette_bytes",
                "kmeans.duplicate_fits", "kmeans.fit_errors", "frsd.self_s"):
        m[key] = serial[key]
    m["kmeans.fit_self_s"] = serial["kmeans.fit_s"] - serial["kmeans.silhouette_s"]
    m["kmeans.useful_fit_ratio"] = (1.0 - serial["kmeans.duplicate_fits"] / serial["kmeans.fits"]
                                    if serial["kmeans.fits"] else 1.0)
    m["kmeans.silhouette_share"] = serial["kmeans.silhouette_s"] / serial["cli.wall_s"]
    m["kmeans.fit_share"] = serial["kmeans.fit_s"] / serial["cli.wall_s"]
    m["frsd.rank_s"] = conf["frsd.rank_s"]
    m["frsd.tasks"] = tasks
    m["frsd.fits_per_s"] = tasks / conf["frsd.rank_s"]
    m["frsd.parallel_efficiency"] = serial["frsd.rank_s"] / (threads * conf["frsd.rank_s"])
    m["frsd.share"] = conf["frsd.rank_s"] / conf["cli.wall_s"]
    for key in ("decision.run_s", "decision.branch_s", "decision.branch_fits",
                "decision.final_fit_s", "decision.self_s", "dataset.load_csv_s",
                "dataset.minmax_s", "pca.fit_s", "pca.eigh_s", "pca.project_s",
                "figures.silhouette_svg_s", "figures.radar_svg_s", "cli.self_s"):
        m[key] = conf[key]
    m["figures.files"] = med((True, threads), "svg_files")
    m["figures.bytes_out"] = med((True, threads), "svg_bytes")
    m["cli.bytes_out"] = med((True, threads), "bytes_out")
    m["cli.abort_ratio"] = tally["exit_errors"] / tally["attempted"]
    m["trace.op_s"] = conf["cli.wall_s"]
    m["trace.overhead_s"] = op_sum((True, threads)) - op_sum((False, threads))

    # the layer self times of every traced pass must add up to its wall time
    for p in passes:
        if p["spans"] is not None:
            t = spanlib.layer_totals(p["spans"])
            gap = sum(t[f"{layer}.self_s"] for layer in spanlib.LAYERS) - t["cli.wall_s"]
            if abs(gap) > 1e-6:
                tally["problems"].append(f"layer self times miss wall time by {gap:.3g} s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="merge this run's outcomes into references.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dimred", "cli.py")):
        print(f"error: dimred sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, write_pass_inputs
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)

    # plain passes at the workload's worker count; a traced run adds a traced
    # pass on the same inputs, and a traced 1-worker pass when spans inside
    # pool workers would be lost
    kinds = [(False, workload.threads)]
    if args.trace:
        kinds.append((True, workload.threads))
        if workload.threads > 1:
            kinds.append((True, 1))

    work = os.path.join(HERE, "_work", f"{workload.name}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    deadline = time.perf_counter() + RUN_LIMIT_S
    tally = {"attempted": 0, "failed": 0, "ok": 0, "known_abort": 0, "exit_errors": 0,
             "referenced": 0, "identical": 0, "compared": 0, "problems": [], "new_refs": {}}
    try:
        setup = setup_times(work)
        passes = []
        start = time.perf_counter()
        index = 0
        # start another cycle only if it should end nearer to --seconds than
        # stopping now does, so a run lasts about --seconds whatever the pass length
        while index == 0 or (time.perf_counter() - start) * (1 + 0.5 / index) < args.seconds:
            csv_paths = write_pass_inputs(workload, args.seed, index, work)
            for kind in kinds:
                passes.append(run_pass(workload, kind, index, csv_paths, work, deadline,
                                       references, tally))
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))

    for p in passes:
        traced, workers = p["kind"]
        print(f"pass {'traced' if traced else 'plain'} {workers}w: wall {p['wall_s']:.3f} s, "
              f"cpu {p['cpu_s']:.3f} s, peak {p['peak_rss_mb']:.1f} MB, "
              f"ops {' '.join(f'{t:.3f}' for t in p['op_s'])}")
    if any(not p["op_s"] for p in passes):
        for problem in tally["problems"][:10]:
            print(f"problem: {problem}", file=sys.stderr)
        print("error: a pass produced no result; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(passes, workload, tally)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(passes, setup, workload)
        units = END_TO_END_UNITS

    print(f"workload {workload.name} seed {args.seed}: {tally['attempted']} operations, "
          f"{tally['ok']} ok, {tally['known_abort']} known aborts "
          f"('fewer than k distinct points', ROADMAP open item 5), {tally['failed']} failed")
    print(f"checked against a reference: {tally['referenced']} operations; byte-identical "
          f"output files: {tally['identical']} of {tally['compared']} compared")
    for problem in tally["problems"][:10]:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")

    if args.record:
        references.update(tally["new_refs"])
        with open(REFERENCES, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(ref, sort_keys=True)}"
                                         for key, ref in sorted(references.items())) + "\n}\n")

    print(json.dumps({
        "correct": not tally["problems"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
