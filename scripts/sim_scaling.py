#!/usr/bin/env python3
"""Time `simulate` alone over a sweep of (paths, assets) shapes.

Two sweeps on a fixed random covariance with equal weights, 252 steps a
year: paths from 1e3 to 1e6 at 3 assets, and 3, 10, 50 and 200 assets at
1,000 paths. After one warm-up run, five timed runs of the default
`simulate` give a median and quartiles. One more run under tracemalloc
gives the peak of traced allocations, numpy arrays included, in this
process only; it cannot see a forked process. So one run in a fresh child
process reports two peaks: its own peak RSS, read as VmHWM from
/proc/self/status where there is one (ru_maxrss keeps the measuring
process's peak across exec), and the largest peak among the processes it
forked and reaped, from its resource accounting (0 when it forked none).
A forked process's peak includes pages it shares with its parent, so the
two peaks are not to be added.

Two more records:
- `paths_csv_rebuild`: the time to rebuild the log prices of 1,000 paths x
  252 steps x 3 assets, the work of the paths.csv writer before it
  formats rows (a Brownian bridge over the step and terminal draws, or, in
  checkouts before the bridge, the cumulative step sum).
- `terminal_forked` (checkouts with the terminal draw only): the terminal
  draw of each path sweep's shape run serially against the same draw
  split into two ranges, each in a forked process through
  `gbmrisk.forking.run_forked`, alternating which goes first.

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
PATH_SWEEP = (1_000, 10_000, 100_000, 1_000_000)  # at 3 assets
ASSET_SWEEP = (10, 50, 200)  # and 3, at 1,000 paths
SHAPES = (*((n, 3) for n in PATH_SWEEP), *((1_000, a) for a in ASSET_SWEEP))
REBUILD_PATHS = 1_000
N_STEPS = 252
REPEATS = 5
SEED = 42
MB = 1e6

# Runs in the child: argv is the package's directory, n_paths and n_assets.
# Prints its two peaks, in bytes.
CHILD = """
import json, os, resource, sys
sys.path.insert(0, sys.argv[1])
from sim_scaling import inputs
from gbmrisk.simulation import simulate
params, config = inputs(int(sys.argv[2]), int(sys.argv[3]))
simulate(params, config)
own, forked = (resource.getrusage(who).ru_maxrss * 1024  # KiB on Linux
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) * 1024 for line in status
                   if line.startswith("VmHWM:"))
print(json.dumps([own, forked]))
"""


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


def child_peaks(src: Path, n_paths: int, n_assets: int) -> dict:
    """One run of a shape in a fresh child process: its own peak RSS and
    the largest among the processes it forked, in MB."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(n_paths), str(n_assets)],
        cwd=Path(__file__).resolve().parent, stdout=subprocess.PIPE,
        check=True,
    )
    own, forked = json.loads(done.stdout)
    return {"peak_rss_mb": own / MB, "workers_peak_rss_mb": forked / MB}


def measure(n_paths: int, n_assets: int) -> dict:
    """Timings, the tracemalloc peak and child-process RSS peaks of the
    default simulate of the gbmrisk package this process imported."""
    from gbmrisk import simulation
    from gbmrisk.simulation import simulate

    src = Path(simulation.__file__).resolve().parents[1]
    params, config = inputs(n_paths, n_assets)
    runs = timed(lambda: simulate(params, config))
    tracemalloc.start()
    try:
        simulate(params, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"n_paths": n_paths, "n_assets": n_assets, "n_steps": N_STEPS,
            "simulate": (summary(runs) | {"tracemalloc_peak_mb": peak / MB}
                         | child_peaks(src, n_paths, n_assets))}


def rebuild_call(n_paths: int):
    """A call that rebuilds the log prices of ``n_paths`` 252-step paths at
    3 assets, as the paths.csv writer of the imported package does."""
    from gbmrisk import paths_csv, simulation

    params, config = inputs(n_paths, 3)
    kernel = simulation._path_kernel(params, config)
    if hasattr(paths_csv, "_log_paths"):
        return lambda: paths_csv._log_paths(kernel, N_STEPS, 0, n_paths)
    return lambda: kernel.cum_log(0, n_paths)


def forked_terminal(n_paths: int) -> dict | None:
    """The terminal draw of ``n_paths`` x 3 assets, serial and split over
    two forked processes, alternating which goes first; None for a package
    without the terminal draw."""
    import numpy as np
    from gbmrisk import forking, simulation

    params, config = inputs(n_paths, 3)
    kernel = simulation._path_kernel(params, config)
    if not hasattr(kernel, "terminal"):
        return None
    ranges = [(0, n_paths // 2), (n_paths // 2, n_paths)]

    def forked():
        out = np.empty((n_paths, 3))

        def consume(paths, size, read):
            out[slice(*paths)].reshape(-1)[:] = np.frombuffer(read(size))

        forking.run_forked(lambda paths: kernel.terminal(*paths)[1], ranges,
                           2, consume)
        return out

    settings = {"serial": lambda: kernel.terminal(0, n_paths)[1],
                "forked_2": forked}
    assert np.array_equal(settings["serial"](), forked())
    runs = {name: [] for name in settings}
    for k in range(REPEATS):
        order = list(settings) if k % 2 == 0 else list(settings)[::-1]
        for name in order:
            t0 = time.perf_counter()
            settings[name]()
            runs[name].append(time.perf_counter() - t0)
    return {"n_paths": n_paths, "n_assets": 3} | {
        name: summary(r) for name, r in runs.items()}


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
    header = (f"{'paths':>8} {'assets':>6} {'p50 s':>8} {'q1 s':>8} "
              f"{'q3 s':>8} {'peak MB':>8} {'RSS MB':>7} {'forked RSS MB':>13}")
    print(header)
    print("-" * len(header))
    for n_paths, n_assets in SHAPES:
        row = measure(n_paths, n_assets)
        record["shapes"].append(row)
        sim = row["simulate"]
        print(f"{n_paths:>8} {n_assets:>6} {sim['median_s']:>8.4f} "
              f"{sim['q1_s']:>8.4f} {sim['q3_s']:>8.4f} "
              f"{sim['tracemalloc_peak_mb']:>8.1f} {sim['peak_rss_mb']:>7.1f} "
              f"{sim['workers_peak_rss_mb']:>13.1f}", flush=True)

    rebuild = summary(timed(rebuild_call(REBUILD_PATHS)))
    record["paths_csv_rebuild"] = {"n_paths": REBUILD_PATHS, "n_assets": 3,
                                   "n_steps": N_STEPS} | rebuild
    print(f"paths.csv rebuild, {REBUILD_PATHS} x {N_STEPS} x 3: "
          f"p50 {rebuild['median_s']:.4f} s", flush=True)

    forked = [forked_terminal(n) for n in PATH_SWEEP]
    if forked[0] is not None:
        record["terminal_forked"] = forked
        for row in forked:
            print(f"terminal draw, {row['n_paths']} x 3: serial p50 "
                  f"{row['serial']['median_s']:.4f} s, two forked processes "
                  f"p50 {row['forked_2']['median_s']:.4f} s", flush=True)

    if args.json:
        path = Path(args.json)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[args.label] = record
        path.write_text(json.dumps(merged, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
