#!/usr/bin/env python3
"""Time `simulate` alone over a sweep of (paths, assets) shapes.

Each shape runs 252 steps on a fixed random covariance with equal weights.
After one warm-up run, five timed runs at workers=1 and at the default
alternate which goes first; each setting reports its median and quartiles.
The default is one thread per CPU this process may use, or one thread from
63 assets up, where BLAS threads each path's shock product; the shapes at
40 to 100 assets bracket that crossover. One more run per setting under
tracemalloc gives the peak of traced allocations, numpy arrays included.
The record also names the numpy and Python versions, the CPU count and the
commit measured.

Pass --src to measure another checkout's package, e.g. a parent commit
unpacked with `git archive`, with the same script and settings. --json FILE
merges the result into FILE under --label, so two sides sit side by side.

Usage: python3 scripts/sim_scaling.py [--src src] [--label change]
       [--json BENCH.json] [--commit REV]
"""

from __future__ import annotations

import argparse
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
SHAPES = ((10_000, 3), (1_000, 10), (1_000, 40), (1_000, 50), (1_000, 60),
          (1_000, 80), (1_000, 100), (100, 200), (1_000, 200))
N_STEPS = 252
REPEATS = 5
SEED = 42
MB = 1e6


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


def measure(n_paths: int, n_assets: int) -> dict:
    """Timings and tracemalloc peaks at workers=1 and at the default."""
    from gbmrisk.simulation import simulate

    params, config = inputs(n_paths, n_assets)
    settings = {"workers_1": 1, "workers_default": None}
    simulate(params, config, workers=None)  # warm-up
    runs = {name: [] for name in settings}
    for k in range(REPEATS):
        order = list(settings) if k % 2 == 0 else list(settings)[::-1]
        for name in order:
            t0 = time.perf_counter()
            simulate(params, config, workers=settings[name])
            runs[name].append(time.perf_counter() - t0)
    row = {"n_paths": n_paths, "n_assets": n_assets, "n_steps": N_STEPS}
    for name, workers in settings.items():
        tracemalloc.start()
        try:
            simulate(params, config, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row[name] = summary(runs[name]) | {"tracemalloc_peak_mb": peak / MB}
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--label", default="change")
    parser.add_argument("--json", help="merge the result into this file")
    parser.add_argument("--commit", help="commit to record (default: git)")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    record = {
        "commit": args.commit or git_commit(src),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "repeats": REPEATS,
        "shapes": [],
    }
    print(f"package: {src} ({record['commit']}), {record['cpus']} CPUs")
    header = (f"{'paths':>6} {'assets':>6} {'w=1 p50 s':>10} {'default p50 s':>13}"
              f" {'w=1 peak MB':>11} {'default peak MB':>15}")
    print(header)
    print("-" * len(header))
    for n_paths, n_assets in SHAPES:
        row = measure(n_paths, n_assets)
        record["shapes"].append(row)
        one, default = row["workers_1"], row["workers_default"]
        print(f"{n_paths:>6} {n_assets:>6} {one['median_s']:>10.3f} "
              f"{default['median_s']:>13.3f} {one['tracemalloc_peak_mb']:>11.1f} "
              f"{default['tracemalloc_peak_mb']:>15.1f}", flush=True)

    if args.json:
        path = Path(args.json)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[args.label] = record
        path.write_text(json.dumps(merged, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
