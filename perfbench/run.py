#!/usr/bin/env python3
"""gbmrisk benchmark: one process, one closed-loop client per workload.

An operation (op) is one RunConfig through gbmrisk.cli.run_pipeline and
then write_report_files to disk, timed from outside the program. The client
starts the next op when the previous one has returned, making whole passes
over the workload's schedule until --seconds have passed. Every op's files
are checked (checks.py); an op that raises or fails a check is a failed op.

Workloads (--seed is every RunConfig.seed, so it drives the Monte Carlo):

  fixture_pipeline  the four bundled configs (crypto_like and equity_like,
                    mvp and max_sharpe), 10,000 paths x 252 steps x 3 assets,
                    workers=1: the default pipeline and the byte contract
  wide_universe     one 200-asset mvp universe (100 paths) and four 10-asset
                    max_sharpe universes (1,000 paths), 252 steps; fixed
                    histories from universe.py, generated at set-up
  record_paths      crypto_like mvp with record_paths on, 1,000 paths

--trace 0 prints the end-to-end metrics. --trace 1 runs every scheduled
case twice in a row, once through span wrappers (spans.py) and once plain,
and prints the per-layer metrics. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Per-case
digests and counts, and the spans of a traced run, are written to
.perfbench-run/ under the repository root when the run ends; the counts of
traced runs are also kept there per workload, seed and source digest, and
must repeat exactly across runs of the same code.

Usage: python3 perfbench/run.py --workload fixture_pipeline --seed 42
       --seconds 20 --trace 0
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA = Path("data")  # relative to ROOT, so report bytes do not name the checkout
WORK = ROOT / ".perfbench-run"
WORKLOADS = ("fixture_pipeline", "wide_universe", "record_paths")
FIXTURES = ("crypto_like", "equity_like")
MODES = ("mvp", "max_sharpe")

# wide_universe: one wide mvp universe, then narrow max_sharpe ones. Their
# histories are pinned, like bundled fixtures, and --seed drives only
# RunConfig.seed: the max_sharpe solve time ranges over 100x and the wide mvp
# duality gap over 5x with the history, which no run length here averages
# out (see README.md). SHARPE_INDICES pick universes of HISTORY_SEED whose
# max_sharpe solves take about 0.08, 0.45, 0.58 and 1.7 s, so the slow,
# data-dependent tail stays in every pass; the middle two take about as
# long as the wide mvp op, so report_s.p50 is a median over three cases.
WIDE_ASSETS, WIDE_PATHS = 200, 100
SHARPE_ASSETS, SHARPE_PATHS, SHARPE_INDICES = 10, 1_000, (17, 11, 5, 28)
HISTORY_SEED = 20240104
RECORD_PATHS = 1_000

SETUP_PROBES = 2  # extra cold set-ups in child processes; setup_s is the median
WORKERS_REPEATS = 3
MB = 1e6

# Time metrics are calibrated to the host's speed of the moment: each wall
# time t is reported as t * REF_NOMINAL_S / r, with r the time of
# Reference.seconds() run right before it. On a shared 2-vCPU machine the
# same op took 1.06 s to 1.8 s within one minute, in CPU time as in wall
# time, and the raw report_s.p50 of ten seeds spread up to 0.35 of its
# median, beyond any bound the benchmark may set. REF_NOMINAL_S is the
# reference's median on that machine, so calibrated seconds read as its
# wall seconds at its usual speed; raw times stay in the run record.
REF_NOMINAL_S = 0.017

# In a directory without src/gbmrisk this import fails: exit 1, no result.
sys.path.insert(0, str(SRC))
from checks import Expectation, OutputChecker, optimality_gap  # noqa: E402
import gbmrisk  # noqa: E402
from gbmrisk import cli  # noqa: E402
from gbmrisk.estimation import estimate_params  # noqa: E402
from gbmrisk.market_data import load_prices, log_returns  # noqa: E402
from gbmrisk.optimizer import min_variance  # noqa: E402
from gbmrisk.simulation import SimConfig, cholesky, repair_psd, simulate  # noqa: E402
from spans import Tracer, write_counts  # noqa: E402
from universe import write_universe  # noqa: E402


@dataclasses.dataclass
class Op:
    case: str
    traced: bool
    seconds: float = 0.0
    problems: list = dataclasses.field(default_factory=list)
    gap: float | None = None
    bytes_written: int = 0
    factor_s: float | None = None
    ref_s: float = REF_NOMINAL_S
    slot_s: float = 0.0  # the op with its checks: the client's run time

    def calibrated(self, seconds: float) -> float:
        return seconds * REF_NOMINAL_S / self.ref_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build_schedule(workload: str, seed: int, inputs: Path) -> list:
    """The workload's cases in op order, generating inputs where needed."""
    RunConfig = cli.RunConfig
    if workload == "fixture_pipeline":
        return [
            (f"{fx}.{mode}", RunConfig(price_csv=str(DATA / f"{fx}.csv"),
                                       portfolio_mode=mode, seed=seed))
            for fx in FIXTURES for mode in MODES
        ]
    if workload == "record_paths":
        config = RunConfig(price_csv=str(DATA / "crypto_like.csv"),
                           n_paths=RECORD_PATHS, record_paths=True, seed=seed)
        return [("crypto_like.mvp.paths", config)]
    wide_csv = write_universe(HISTORY_SEED, 0, WIDE_ASSETS,
                              inputs / "wide.csv")
    wide = ("wide.mvp", RunConfig(price_csv=str(wide_csv), n_paths=WIDE_PATHS,
                                  seed=seed))
    schedule = [wide]
    for k in SHARPE_INDICES:
        csv = write_universe(HISTORY_SEED, k, SHARPE_ASSETS, inputs / f"u{k}.csv")
        schedule.append((f"u{k}.max_sharpe", RunConfig(
            price_csv=str(csv), n_paths=SHARPE_PATHS,
            portfolio_mode="max_sharpe", seed=seed)))
    return schedule


def expectations(workload: str, seed: int, schedule: list) -> dict:
    """Per-case values the outputs must match, computed outside the timing."""
    out = {}
    for name, config in schedule:
        exact, lines = {}, None
        if workload == "fixture_pipeline" and seed == 42 and config.portfolio_mode == "mvp":
            meta_path = Path(config.price_csv).with_suffix(".meta.json")
            meta = json.loads(meta_path.read_text())["default_pipeline_report"]
            exact = {k: meta[k] for k in ("var_value", "chance_of_loss")}
        if config.record_paths:
            plain = cli.run_pipeline(dataclasses.replace(config, record_paths=False))
            exact = {"var_value": plain.report.var_value}
            n_steps = plain.simulation.config_echo.n_steps
            lines = config.n_paths * (n_steps + 1) * plain.params.n_assets + 1
        out[name] = Expectation(exact=exact, paths_lines=lines)
    return out


class Reference:
    """Fixed work of the kinds an op's speed depends on: interpreter
    arithmetic, formatting and joining rows of ints and floats, a 16 MB pass
    that no cache holds and a sort of a cached array. It is built from
    Python and numpy builtins, shares no code with gbmrisk, makes no BLAS
    call, draws no random stream and starts no thread, so no library state
    the program sets can change its time. It measures the host's speed of
    the moment; the median of three repeats ignores a single interruption."""

    def __init__(self):
        self.data = np.random.default_rng(0).random(120_000)
        self.buf = np.empty_like(self.data)

    def _once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for k in range(30_000):
            total += k * k
        ints = "\n".join([str(k * k) for k in range(10_000)])
        rows = "\n".join([f"{k},{k % 7},{k * 0.37!r}" for k in range(6_000)])
        np.full(2_000_000, float(len(ints) + len(rows) + total % 7)).sum()
        self.buf[:] = self.data
        self.buf.sort()
        return time.perf_counter() - t0

    def seconds(self) -> float:
        return statistics.median(self._once() for _ in range(3))


def run_op(name, config, out_dir: Path, tracer=None, op_id=0) -> tuple:
    """One timed op; returns (Op, PipelineResult or None)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    op = Op(name, tracer is not None)
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = cli.run_pipeline(config)
            written = cli.write_report_files(result, out_dir)
            op.seconds = time.perf_counter() - t0
        else:
            write = tracer.wrap(op_id, "write_report_files",
                                cli.write_report_files, write_counts)
            with tracer.installed(op_id), tracer.span(op_id, "op") as span:
                result = cli.run_pipeline(config)
                written = write(result, out_dir)
            op.seconds = span.seconds
    except Exception as err:  # a failed op is counted, not fatal
        op.problems.append(f"raised {type(err).__name__}: {err}")
        return op, None
    op.bytes_written = sum(p.stat().st_size for p in written)
    return op, result


def score(op: Op, result, checker, out_dir: Path) -> None:
    op.problems += checker.check(op.case, out_dir)
    config, params = result.config, result.params
    op.gap = optimality_gap(config.portfolio_mode, params.cov, params.mu,
                            result.weights.w, config.risk_free)


def factor_probe(cov) -> float:
    """Time the factoring simulate does today: repair_psd, then cholesky."""
    t0 = time.perf_counter()
    repaired, _ = repair_psd(cov)
    cholesky(repaired)
    return time.perf_counter() - t0


def workers_speedup(seed: int) -> float:
    """simulate time at workers=1 over workers=nproc, fixture_pipeline inputs."""
    series = load_prices(DATA / "crypto_like.csv")
    params = estimate_params(log_returns(series))
    sim = SimConfig(weights=min_variance(params).weights, seed=seed,
                    initial_prices=series.prices[-1])
    nproc = len(os.sched_getaffinity(0))
    times = {1: [], nproc: []}
    for k in range(WORKERS_REPEATS):
        for workers in ((1, nproc) if k % 2 == 0 else (nproc, 1)):
            t0 = time.perf_counter()
            simulate(params, sim, workers=workers)
            times[workers].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[nproc])


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(measured: list, setup: list, schedule: list,
                       ok_ratio: float) -> dict:
    times = [op.calibrated(op.seconds) for op in measured if not op.problems]
    run_time = math.fsum(op.calibrated(op.slot_s) for op in measured)
    per_case_bytes = {op.case: op.bytes_written for op in measured if not op.problems}
    gaps = [op.gap for op in measured if op.gap is not None]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    return {
        "setup_s": (statistics.median(setup), "s"),
        "report_s.p50": (median_or_zero(times), "s"),
        "reports_per_s": (len(times) / run_time, "1/s"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (peak, "MB"),
        "output_mb": (statistics.fmean(
            per_case_bytes.get(name, 0) for name, _ in schedule) / MB, "MB"),
        # floored at machine epsilon: an exactly converged solve is not 0
        "optimality_gap.max": (max(max(gaps, default=0.0), sys.float_info.epsilon),
                               "ratio"),
    }


SPAN_METRICS = {
    "load_prices": "market_data.load_prices_s",
    "log_returns": "market_data.log_returns_s",
    "estimate_params": "estimation.estimate_params_s",
    "min_variance": "optimizer.min_variance_s",
    "max_sharpe": "optimizer.max_sharpe_s",
    "simulate": "simulation.simulate_s",
    "build_report": "risk.build_report_s",
    "write_report_files": "cli.write_report_files_s",
    "op": "cli.self_s",
}
COUNT_METRICS = {
    "normals": "simulation.normals",
    "path_streams": "simulation.path_streams",
    "bytes_computed": "simulation.bytes_computed",
    "csv_bytes": "market_data.csv_bytes",
    "assets": "optimizer.assets",
    "bytes_written": "cli.bytes_written",
}
COUNT_UNITS = {"bytes_computed": "B", "csv_bytes": "B", "bytes_written": "B"}


def schedule_mean(per_case: dict, schedule: list) -> float:
    """Mean per op over one pass of the schedule; 0 for a case not in per_case."""
    return statistics.fmean(per_case.get(name, 0.0) for name, _ in schedule)


def per_layer_metrics(ops: list, tracer, schedule: list, case_counts: dict,
                      speedup: float) -> dict:
    samples: dict = {}  # (case, metric) -> samples from the case's traced ops
    for i, op in enumerate(ops):
        if op.traced and not op.problems:
            for span, seconds in tracer.self_seconds(i).items():
                samples.setdefault((op.case, SPAN_METRICS[span]), []).append(seconds)
            samples.setdefault((op.case, "simulation.factor_s"), []).append(op.factor_s)
    metrics = {}
    for metric in [*SPAN_METRICS.values(), "simulation.factor_s"]:
        per_case = {case: statistics.median(v) for (case, m), v in samples.items()
                    if m == metric}
        metrics[metric] = (schedule_mean(per_case, schedule), "s")
    for key, metric in COUNT_METRICS.items():
        per_case = {case: counts.get(key, 0) for case, counts in case_counts.items()}
        metrics[metric] = (schedule_mean(per_case, schedule),
                           COUNT_UNITS.get(key, "count"))
    metrics["simulation.workers_speedup"] = (speedup, "x")
    # ops run in (traced, plain) or (plain, traced) pairs of one case
    ratios = [a.seconds / b.seconds if a.traced else b.seconds / a.seconds
              for a, b in zip(ops[0::2], ops[1::2])
              if not a.problems and not b.problems]
    metrics["trace.overhead"] = (median_or_zero(ratios), "x")
    return metrics


def code_digest() -> str:
    """sha256 over the package's and the benchmark's sources: the identity of
    the code whose counts must repeat."""
    digest = hashlib.sha256()
    for root in (Path(gbmrisk.__file__).parent, Path(__file__).parent):
        for path in sorted(root.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_counts(ops: list, tracer, workload: str, seed: int) -> dict:
    """Counts per case; a repeat that disagrees fails, within the run or
    across runs of the same code in this checkout."""
    counts_file = WORK / f"counts-{workload}-s{seed}-{code_digest()[:16]}.json"
    earlier = json.loads(counts_file.read_text()) if counts_file.exists() else {}
    case_counts: dict = {}
    for i, op in enumerate(ops):
        if not op.traced or op.problems:
            continue
        counts = tracer.counts(i)
        first = case_counts.setdefault(op.case, counts)
        if counts != first or earlier.get(op.case, counts) != counts:
            op.problems.append(f"counts {counts} differ from an earlier repeat")
    counts_file.write_text(json.dumps({**earlier, **case_counts}, indent=1,
                                      sort_keys=True))
    return case_counts


def measure(args, run_dir: Path) -> dict:
    inputs, out_root = run_dir / "inputs", run_dir / "out"
    schedule = build_schedule(args.workload, args.seed, inputs)
    warm_name, warm_config = schedule[0]
    warm, warm_result = run_op(warm_name, warm_config, out_root / warm_name)
    reference = Reference()
    setup = [(time.perf_counter() - _START) * REF_NOMINAL_S / reference.seconds()]
    if args.setup_probe:
        return {"setup_s": setup[0]}

    checker = OutputChecker(expectations(args.workload, args.seed, schedule))
    if warm_result is not None:
        score(warm, warm_result, checker, out_root / warm_name)
    tracer = Tracer() if args.trace else None
    if not args.trace:
        setup += [child_setup_seconds(args) for _ in range(SETUP_PROBES)]

    ops = []  # an op's index is its span identifier
    start = time.perf_counter()
    i = 0
    while i == 0 or i % len(schedule) or time.perf_counter() - start < args.seconds:
        name, config = schedule[i % len(schedule)]
        modes = [None]
        if tracer is not None:
            # alternate which of the pair runs first, across cases and passes
            modes = [tracer, None] if (i + i // len(schedule)) % 2 == 0 else [None, tracer]
        for mode in modes:
            ref_s = reference.seconds()
            slot_start = time.perf_counter()
            op, result = run_op(name, config, out_root / name, mode, len(ops))
            if result is not None:
                score(op, result, checker, out_root / name)
                if mode is not None:
                    op.factor_s = factor_probe(result.params.cov)
            op.ref_s, op.slot_s = ref_s, time.perf_counter() - slot_start
            ops.append(op)
        i += 1

    case_counts = {}
    if tracer is not None:
        case_counts = check_counts(ops, tracer, args.workload, args.seed)
    everything = [warm] + ops
    failed = sum(1 for op in everything if op.problems)
    if tracer is None:
        metrics = end_to_end_metrics(ops, setup, schedule,
                                     1.0 - failed / len(everything))
    else:
        metrics = per_layer_metrics(ops, tracer, schedule, case_counts,
                                    workers_speedup(args.seed))
        with open(run_dir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps({**dataclasses.asdict(span),
                                     "case": ops[span.op].case}) + "\n")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup,
        "sha256": checker.digests,
        "counts": case_counts,
        "problems": [(op.case, op.problems) for op in everything if op.problems],
        "ops": [dataclasses.asdict(op) for op in ops],
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / DATA).is_dir():
        print(f"error: no {ROOT / DATA} with the bundled fixtures", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, run_dir)
    finally:
        for sub in ("inputs", "out"):
            shutil.rmtree(run_dir / sub, ignore_errors=True)
        if args.setup_probe:
            shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
