#!/usr/bin/env python3
"""Measure how a recorded-paths run scales with the path count.

For each path count, one fresh child process runs the default mvp pipeline
with record_paths on, then writes its reports (paths.csv included) to a
temporary directory. The child times the pipeline and the write; this
script reads the child's peak RSS from the kernel's accounting for it
(os.wait4), so each count's peak is its own. Prints one row per count.

Pass --src to measure another checkout's package, e.g. a parent commit
unpacked with `git archive`, with the same script and settings.

Usage: python3 scripts/record_scaling.py [--n-paths 1000 2000 10000]
       [--price-csv data/crypto_like.csv] [--seed 42] [--src src]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child: argv is price_csv, n_paths, seed. Prints one JSON line.
CHILD = """
import json, sys, tempfile, time
from pathlib import Path
from gbmrisk.cli import RunConfig, run_pipeline, write_report_files
csv, n_paths, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
config = RunConfig(price_csv=csv, n_paths=n_paths, seed=seed, record_paths=True)
t0 = time.perf_counter()
result = run_pipeline(config)
t1 = time.perf_counter()
with tempfile.TemporaryDirectory() as out:
    written = write_report_files(result, Path(out))
    t2 = time.perf_counter()
    size = sum(p.stat().st_size for p in written)
print(json.dumps({"pipeline_s": t1 - t0, "write_s": t2 - t1, "bytes": size}))
"""


def measure(src: Path, price_csv: str, n_paths: int, seed: int) -> dict:
    """One child run: its timings, output size, wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, price_csv, str(n_paths), str(seed)],
        stdout=subprocess.PIPE, env=env,
    )
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"child for {n_paths} paths failed")
    row = json.loads(out)
    row.update(n_paths=n_paths, wall_s=wall,
               peak_rss_mb=usage.ru_maxrss * 1024 / 1e6)  # KiB on Linux
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-paths", type=int, nargs="+",
                        default=[1_000, 2_000, 10_000])
    parser.add_argument("--price-csv", default=str(ROOT / "data" / "crypto_like.csv"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    print(f"package: {src}")
    header = (f"{'n_paths':>8} {'pipeline_s':>10} {'write_s':>8} "
              f"{'wall_s':>7} {'peak_rss_mb':>11} {'output_mb':>9}")
    print(header)
    print("-" * len(header))
    for n_paths in args.n_paths:
        row = measure(src, args.price_csv, n_paths, args.seed)
        print(f"{n_paths:>8} {row['pipeline_s']:>10.2f} {row['write_s']:>8.2f} "
              f"{row['wall_s']:>7.2f} {row['peak_rss_mb']:>11.1f} "
              f"{row['bytes'] / 1e6:>9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
