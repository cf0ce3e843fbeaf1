#!/usr/bin/env python3
"""Run the benchmark comparison on the bundled fixtures.

For each fixture (high-volatility crypto-like, moderate equity-like) and
each portfolio rule (minimum variance, maximum Sharpe), runs the default
pipeline: fit drift and covariance from the year of daily prices, solve the
weights, simulate 10,000 one-year paths, and report the 5% VaR value and
the chance of loss. Prints one table and writes the underlying reports
under --out-dir.

Usage: python3 scripts/run_benchmark.py [--out-dir results] [--n-paths N]
       [--seed S] [--workers W]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from gbmrisk.cli import RunConfig, run_pipeline, write_report_files

FIXTURES = ("crypto_like", "equity_like")
MODES = ("mvp", "max_sharpe")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default="data")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--n-paths", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workers", type=int,
        help="simulation threads and paths.csv formatting processes "
        "(default: one per available CPU)",
    )
    args = parser.parse_args(argv)
    data_dir = Path(args.data_dir)
    out_root = Path(args.out_dir)

    header = (
        f"{'fixture':<14} {'mode':<11} {'exp_return':>10} {'volatility':>10} "
        f"{'var_value':>12} {'potential_loss':>14} {'chance_of_loss':>14}"
    )
    print(header)
    print("-" * len(header))
    for fixture in FIXTURES:
        for mode in MODES:
            config = RunConfig(
                price_csv=str(data_dir / f"{fixture}.csv"),
                portfolio_mode=mode,
                n_paths=args.n_paths,
                seed=args.seed,
            )
            result = run_pipeline(config, workers=args.workers)
            out_dir = out_root / fixture / mode
            write_report_files(result, out_dir, workers=args.workers)
            r = result.report
            s = result.stats
            print(
                f"{fixture:<14} {mode:<11} {s.expected_return:>10.4f} "
                f"{s.volatility:>10.4f} {r.var_value:>12.2f} "
                f"{r.potential_loss:>14.2f} {r.chance_of_loss:>14.4f}"
            )
    print(f"\nreports written under {out_root}/<fixture>/<mode>/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
