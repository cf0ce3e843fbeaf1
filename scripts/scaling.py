#!/usr/bin/env python3
"""Measure how simulate and a recorded-paths run scale with their shapes.

Each run writes one record, at 252 steps a year and seed 42:
- `shapes`: `simulate` alone, equal weights on a fixed random covariance,
  at 1e3 to 1e6 paths x 3 assets and 1,000 paths x 10, 50 and 200 assets:
  a median and quartiles of five timed runs in this process after a
  warm-up, the tracemalloc peak of one more, and a fresh child's peak RSS.
- `paths_csv_rebuild`: the same timings of the Brownian-bridge rebuild of
  1,000 paths x 252 steps x 3 assets, the paths.csv writer's work before
  it formats rows.
- `rows`: at each --n-paths count, five fresh children each run the
  default mvp pipeline on data/crypto_like.csv with record_paths on and
  write its reports to a temporary directory: pipeline, write and wall
  times, output size, peak RSS, and the largest peak among the paths.csv
  formatting processes it started (0 if none; it shares pages with the
  child, so the two are not to be added).
- `save_prices`: at 3, 10, 50 and 200 assets x 253 rows of random prices,
  five fresh children each time one cold `save_prices` call and the
  median of five warm ones, and check that every child wrote the same
  bytes.

Every child reads its own peak RSS as VmHWM from /proc/self/status (so
Linux only); ru_maxrss would carry its starter's peak across exec.
--workers W limits every child to the first W CPUs of this process's
affinity mask before it imports gbmrisk (default: all). --src measures
another checkout's package, e.g. a parent commit unpacked by `git
archive`, with the same script; --json FILE merges the record into FILE
under --label, so two sides sit side by side. --baseline SRC runs the
children of the `rows` and `save_prices` sweeps for SRC's package too,
shape by shape, each round of two alternating which package goes first,
and records SRC's under "baseline" in each row: children of one record
drift by more than a small change's effect, pairs of rounds much less.

Usage: python3 scripts/scaling.py [--n-paths 1000 2000 10000] [--workers W]
       [--src src] [--label change] [--json BENCH.json] [--commit REV]
       [--baseline SRC] [--baseline-commit REV]
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH_SWEEP = (1_000, 10_000, 100_000, 1_000_000)  # at 3 assets
ASSET_SWEEP = (10, 50, 200)  # at 1,000 paths
SHAPES = (*((n, 3) for n in PATH_SWEEP), *((1_000, a) for a in ASSET_SWEEP))
SAVE_ASSETS = (3, 10, 50, 200)  # at SAVE_ROWS dates
SAVE_ROWS = 253
REBUILD_PATHS = 1_000
PRICE_CSV = "data/crypto_like.csv"  # from ROOT: no checkout path in reports
N_STEPS = 252
REPEATS = 5
SEED = 42
MB = 1e6

# A child's command: argv is this script's directory, the package's
# directory, the CPU count (0 for all), the job and its arguments.
CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import scaling; "
         "scaling.child(*sys.argv[3:])")


def git_commit(src: Path) -> str:
    """This checkout's HEAD (marked +dirty if src/ has changes) when src is
    its own package directory; "unknown" otherwise."""
    if src != ROOT / "src":
        return "unknown"

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def inputs(n_paths: int, n_assets: int):
    """MarketParams and SimConfig for one shape, the same on every side."""
    import numpy as np
    from gbmrisk.estimation import MarketParams
    from gbmrisk.optimizer import WeightVector
    from gbmrisk.simulation import SimConfig

    rng = np.random.default_rng(n_assets)
    a = rng.standard_normal((n_assets, n_assets))
    cov = a @ a.T * (0.05 / n_assets) + 1e-4 * np.eye(n_assets)
    cov = (cov + cov.T) / 2.0
    tickers = tuple(f"T{i}" for i in range(n_assets))
    params = MarketParams(tickers, np.linspace(0.02, 0.12, n_assets),
                          np.sqrt(np.diag(cov)), cov, N_STEPS)
    weights = WeightVector(tickers, np.full(n_assets, 1.0 / n_assets))
    config = SimConfig(weights=weights, n_paths=n_paths, seed=SEED,
                       steps_per_year=N_STEPS)
    return params, config


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": runs}


def timed(call) -> list[float]:
    """REPEATS wall times of ``call()``, after one warm-up call."""
    call()
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        runs.append(time.perf_counter() - t0)
    return runs


def record_job(n_paths: int) -> dict:
    """A child's job: one recorded-paths pipeline and write."""
    import resource
    import tempfile
    from gbmrisk.cli import RunConfig, run_pipeline, write_report_files

    config = RunConfig(price_csv=PRICE_CSV, n_paths=n_paths, seed=SEED,
                       record_paths=True)
    t0 = time.perf_counter()
    result = run_pipeline(config)
    t1 = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        written = write_report_files(result, Path(out))
        t2 = time.perf_counter()
        size = sum(p.stat().st_size for p in written)
    forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB
    return {"pipeline_s": t1 - t0, "write_s": t2 - t1, "bytes": size,
            "workers_peak_rss_b": forked * 1024}


def price_table(n_assets: int):
    """A PriceSeries of SAVE_ROWS daily dates and lognormal prices, the
    same on every side."""
    import numpy as np
    from gbmrisk.market_data import PriceSeries

    rng = np.random.default_rng(n_assets)
    steps = rng.normal(0.0, 0.02, (SAVE_ROWS, n_assets))
    prices = rng.uniform(5.0, 500.0, n_assets) * np.exp(np.cumsum(steps, 0))
    start = dt.date(2024, 1, 2)
    dates = [(start + dt.timedelta(days=d)).isoformat()
             for d in range(SAVE_ROWS)]
    return PriceSeries(tuple(f"T{i}" for i in range(n_assets)), dates,
                       prices)


def save_job(n_assets: int) -> dict:
    """A child's job: one cold save_prices, then REPEATS warm ones."""
    import tempfile
    from gbmrisk.market_data import save_prices

    series = price_table(n_assets)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "prices.csv"
        t0 = time.perf_counter()
        save_prices(series, path)
        cold = time.perf_counter() - t0
        warm = timed(lambda: save_prices(series, path))
        data = path.read_bytes()
    return {"cold_s": cold, "warm_s": statistics.median(warm),
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def child(workers: str, job: str, *args: str) -> None:
    """A child's side: limit its CPUs, run the job, and print its result
    with the process's own peak RSS in bytes, as one JSON line."""
    if int(workers):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(workers)])
    if job == "record":
        result = record_job(*map(int, args))
    elif job == "save":
        result = save_job(*map(int, args))
    else:  # one default simulate of a shape
        from gbmrisk.simulation import simulate
        simulate(*inputs(*map(int, args)))
        result = {}
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmHWM:"))  # KiB
    print(json.dumps(result | {"peak_rss_b": peak}))


def run_child(src: Path, workers: int | None, job: str, *args: int) -> dict:
    """One child process's result for the job, with its wall time."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "scripts"), str(src),
         str(workers or 0), job, *map(str, args)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True,
    )
    return json.loads(done.stdout) | {"wall_s": time.perf_counter() - start}


def measure_shape(src: Path, n_paths: int, n_assets: int,
                  workers: int | None) -> dict:
    """Timings and the tracemalloc peak of the default simulate of the
    gbmrisk package this process imported, and a child's peak RSS."""
    from gbmrisk.simulation import simulate

    params, config = inputs(n_paths, n_assets)
    runs = timed(lambda: simulate(params, config))
    tracemalloc.start()
    simulate(params, config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    own = run_child(src, workers, "simulate", n_paths, n_assets)["peak_rss_b"]
    return {"n_paths": n_paths, "n_assets": n_assets, "n_steps": N_STEPS,
            "simulate": summary(runs) | {"tracemalloc_peak_mb": peak / MB,
                                         "peak_rss_mb": own / MB}}


def paired_runs(src: Path, baseline: Path | None, workers: int | None,
                job: str, *args: int) -> tuple[list, list]:
    """REPEATS children of the job on src's package, and as many on
    baseline's if given, in rounds of one each that alternate which goes
    first."""
    runs, base = [], []
    sides = [(src, runs)] + ([(baseline, base)] if baseline else [])
    for i in range(REPEATS):
        for package, into in sides[::-1] if i % 2 else sides:
            into.append(run_child(package, workers, job, *args))
    return runs, base


def measure_row(src: Path, n_paths: int, workers: int | None,
                baseline: Path | None = None) -> dict:
    """REPEATS recorded-paths children of one count: medians and quartiles
    of the times, the largest of each peak, and the output size; with
    baseline's under "baseline"."""
    def side(runs: list) -> dict:
        out = {key: summary([run[key] for run in runs])
               for key in ("pipeline_s", "write_s", "wall_s")}
        for key in ("peak_rss", "workers_peak_rss"):
            out[f"{key}_mb"] = max(run[f"{key}_b"] for run in runs) / MB
        return out

    runs, base = paired_runs(src, baseline, workers, "record", n_paths)
    sizes = {run["bytes"] for run in runs + base}
    if len(sizes) != 1:
        raise SystemExit(f"{n_paths} paths wrote {sorted(sizes)} bytes")
    row = {"n_paths": n_paths, "workers": workers, "bytes": sizes.pop()}
    return row | side(runs) | ({"baseline": side(base)} if base else {})


def measure_save(src: Path, n_assets: int, workers: int | None,
                 baseline: Path | None = None) -> dict:
    """REPEATS save_prices children of one width: medians and quartiles
    of the cold and warm times and the largest peak; with baseline's under
    "baseline". Every child must write the same bytes."""
    def side(runs: list) -> dict:
        return {key: summary([run[key] for run in runs])
                for key in ("cold_s", "warm_s")} | {
            "peak_rss_mb": max(run["peak_rss_b"] for run in runs) / MB}

    runs, base = paired_runs(src, baseline, workers, "save", n_assets)
    files = {(run["bytes"], run["sha256"]) for run in runs + base}
    if len(files) != 1:
        raise SystemExit(f"save_prices of {n_assets} assets wrote "
                         f"{len(files)} different files")
    size, sha = files.pop()
    row = {"n_assets": n_assets, "n_rows": SAVE_ROWS, "workers": workers,
           "bytes": size, "sha256": sha}
    return row | side(runs) | ({"baseline": side(base)} if base else {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-paths", type=int, nargs="+",
                        default=[1_000, 2_000, 10_000])
    parser.add_argument("--workers", type=int, help="CPUs of every child")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--label", default="change")
    parser.add_argument("--json", help="merge the record into this file")
    parser.add_argument("--commit", help="commit to record (default: git)")
    parser.add_argument("--baseline", help="package to pair children with")
    parser.add_argument("--baseline-commit", help="its commit to record")
    args = parser.parse_args(argv)
    cpus = len(os.sched_getaffinity(0))
    if args.workers is not None and not 1 <= args.workers <= cpus:
        parser.error(f"--workers must be from 1 to {cpus}, the CPUs "
                     "this process may run on")

    src = Path(args.src).resolve()
    baseline = Path(args.baseline).resolve() if args.baseline else None
    sys.path.insert(0, str(src))
    import numpy as np

    record = {"commit": args.commit or git_commit(src),
              "numpy": np.__version__, "python": platform.python_version(),
              "cpus": cpus, "seed": SEED, "repeats": REPEATS,
              "workers": args.workers, "price_csv": Path(PRICE_CSV).name,
              "shapes": []}
    if baseline:
        record["baseline_commit"] = (args.baseline_commit
                                     or git_commit(baseline))
    print(f"package: {src} ({record['commit']}), {cpus} CPUs, "
          f"workers {args.workers or 'all'}")
    for n_paths, n_assets in SHAPES:
        row = measure_shape(src, n_paths, n_assets, args.workers)
        record["shapes"].append(row)
        sim = row["simulate"]
        print(f"simulate {n_paths:>7} x {n_assets:>3}: p50 "
              f"{sim['median_s']:.4f} s, traced "
              f"{sim['tracemalloc_peak_mb']:.1f} MB, RSS "
              f"{sim['peak_rss_mb']:.1f} MB", flush=True)

    from gbmrisk import paths_csv, simulation

    kernel = simulation._path_kernel(*inputs(REBUILD_PATHS, 3))
    record["paths_csv_rebuild"] = {
        "n_paths": REBUILD_PATHS, "n_assets": 3, "n_steps": N_STEPS,
    } | summary(timed(lambda: paths_csv._log_paths(kernel, N_STEPS, 0,
                                                   REBUILD_PATHS)))
    print(f"paths.csv rebuild {REBUILD_PATHS} x {N_STEPS} x 3: p50 "
          f"{record['paths_csv_rebuild']['median_s']:.4f} s", flush=True)

    def against(row: dict, key: str) -> str:
        if "baseline" not in row:
            return ""
        return f" (baseline {row['baseline'][key]['median_s']:.4f} s)"

    record["rows"] = []
    for n_paths in args.n_paths:
        row = measure_row(src, n_paths, args.workers, baseline)
        record["rows"].append(row)
        print(f"recorded {n_paths:>7} paths: write p50 "
              f"{row['write_s']['median_s']:.3f} s"
              f"{against(row, 'write_s')}, RSS "
              f"{row['peak_rss_mb']:.1f} MB, {row['bytes'] / MB:.1f} MB "
              "written", flush=True)

    record["save_prices"] = []
    for n_assets in SAVE_ASSETS:
        row = measure_save(src, n_assets, args.workers, baseline)
        record["save_prices"].append(row)
        print(f"save_prices {n_assets:>3} x {SAVE_ROWS}: cold p50 "
              f"{row['cold_s']['median_s']:.4f} s{against(row, 'cold_s')}, "
              f"warm p50 {row['warm_s']['median_s']:.4f} s"
              f"{against(row, 'warm_s')}", flush=True)

    if args.json:
        path = Path(args.json)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[args.label] = record
        path.write_text(json.dumps(merged, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
