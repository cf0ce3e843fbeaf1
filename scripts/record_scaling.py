#!/usr/bin/env python3
"""Measure how a recorded-paths run scales with the path count.

For each path count, fresh child processes run the default mvp pipeline
with record_paths on, then write their reports (paths.csv included) to a
temporary directory; three runs per count give a median and quartiles.
Each child times the pipeline and the write and reports two peaks from its
own resource accounting: its own peak RSS, and the largest peak among the
processes it started and reaped, the paths.csv formatting processes, read
after the write. A run that formats in one process starts none and
reports 0 there. A forked worker's peak includes pages it shares with its
parent, so the two peaks are not to be added.

--workers W limits each child to the first W CPUs of this process's
affinity mask, set before it imports gbmrisk; the formatting processes
follow that mask (default: every CPU this process may use). Pass --src to measure another checkout's package, e.g. a parent
commit unpacked with `git archive`, with the same script and settings.
--json FILE merges the result into FILE under --label, in the format of
scripts/sim_scaling.py.

Usage: python3 scripts/record_scaling.py [--n-paths 1000 2000 10000]
       [--price-csv data/crypto_like.csv] [--seed 42] [--workers W]
       [--src src] [--label change] [--json BENCH.json] [--commit REV]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from sim_scaling import git_commit, summary

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
MB = 1e6

# Runs in the child: argv is price_csv, n_paths, seed, workers (JSON, null
# for every CPU). Prints one JSON line.
CHILD = """
import json, os, resource, sys, tempfile, time
from pathlib import Path
csv, n_paths, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workers = json.loads(sys.argv[4])
if workers is not None:
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workers])
from gbmrisk.cli import RunConfig, run_pipeline, write_report_files
config = RunConfig(price_csv=csv, n_paths=n_paths, seed=seed, record_paths=True)
t0 = time.perf_counter()
result = run_pipeline(config)
t1 = time.perf_counter()
with tempfile.TemporaryDirectory() as out:
    written = write_report_files(result, Path(out))
    t2 = time.perf_counter()
    size = sum(p.stat().st_size for p in written)
peak = {who: resource.getrusage(who).ru_maxrss * 1024  # KiB on Linux
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
print(json.dumps({"pipeline_s": t1 - t0, "write_s": t2 - t1, "bytes": size,
                  "peak_rss_b": peak[resource.RUSAGE_SELF],
                  "workers_peak_rss_b": peak[resource.RUSAGE_CHILDREN]}))
"""


def run_child(src: Path, price_csv: str, n_paths: int, seed: int,
              workers: int | None) -> dict:
    """One child run: its timings, output size, peaks and wall time."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, price_csv, str(n_paths), str(seed),
         json.dumps(workers)],
        stdout=subprocess.PIPE, env=env, check=False,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"child for {n_paths} paths failed")
    return json.loads(done.stdout) | {"wall_s": wall}


def measure(src: Path, price_csv: str, n_paths: int, seed: int,
            workers: int | None) -> dict:
    """REPEATS child runs of one count: medians and quartiles of the times,
    the largest of each peak, and the output size."""
    runs = [run_child(src, price_csv, n_paths, seed, workers)
            for _ in range(REPEATS)]
    sizes = {run["bytes"] for run in runs}
    if len(sizes) != 1:
        raise SystemExit(f"{n_paths} paths wrote {sorted(sizes)} bytes")
    row = {"n_paths": n_paths, "workers": workers, "bytes": sizes.pop()}
    for key in ("pipeline_s", "write_s", "wall_s"):
        row[key] = summary([run[key] for run in runs])
    for key in ("peak_rss", "workers_peak_rss"):
        row[f"{key}_mb"] = max(run[f"{key}_b"] for run in runs) / MB
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-paths", type=int, nargs="+",
                        default=[1_000, 2_000, 10_000])
    parser.add_argument("--price-csv", default=str(ROOT / "data" / "crypto_like.csv"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int,
                        help="CPUs each child may run on, the first W of "
                        "this process's affinity mask (default: all)")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--label", default="change")
    parser.add_argument("--json", help="merge the result into this file")
    parser.add_argument("--commit", help="commit to record (default: git)")
    args = parser.parse_args(argv)
    cpus = len(os.sched_getaffinity(0))
    if args.workers is not None and not 1 <= args.workers <= cpus:
        parser.error(f"--workers must be from 1 to {cpus}, the CPUs "
                     "this process may run on")

    src = Path(args.src).resolve()
    import numpy as np

    record = {
        "commit": args.commit or git_commit(src),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpus": cpus,
        "seed": args.seed,
        "repeats": REPEATS,
        "workers": args.workers,
        "price_csv": Path(args.price_csv).name,
        "rows": [],
    }
    print(f"package: {src} ({record['commit']}), {record['cpus']} CPUs, "
          f"workers {args.workers or 'default'}")
    header = (f"{'n_paths':>8} {'pipeline_s':>10} {'write_s':>8} "
              f"{'wall_s':>7} {'peak_rss_mb':>11} {'workers_mb':>10} "
              f"{'output_mb':>9}")
    print(header)
    print("-" * len(header))
    for n_paths in args.n_paths:
        row = measure(src, args.price_csv, n_paths, args.seed, args.workers)
        record["rows"].append(row)
        print(f"{n_paths:>8} {row['pipeline_s']['median_s']:>10.2f} "
              f"{row['write_s']['median_s']:>8.2f} "
              f"{row['wall_s']['median_s']:>7.2f} {row['peak_rss_mb']:>11.1f} "
              f"{row['workers_peak_rss_mb']:>10.1f} {row['bytes'] / MB:>9.1f}",
              flush=True)

    if args.json:
        path = Path(args.json)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[args.label] = record
        path.write_text(json.dumps(merged, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
