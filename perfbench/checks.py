"""Output checks and the solution-quality measure for benchmark operations.

An operation is one RunConfig through run_pipeline and write_report_files.
It fails when it raises or when any check below finds a problem with the
files it wrote; failures feed the benchmark's ok_ratio and `failed` count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gbmrisk.cli import REPORT_KEYS

SIMPLEX_TOL = 1e-9  # the tolerance WeightVector itself enforces on the sum


@dataclass(frozen=True)
class Expectation:
    """What one benchmark case's outputs must show beyond the invariants.

    ``exact`` maps report.json keys to values they must equal exactly.
    ``paths_lines`` is the line count paths.csv must have, or None when the
    case records no paths.
    """

    exact: dict
    paths_lines: int | None = None


def report_problems(report: dict) -> list[str]:
    """Invariants every report.json must satisfy."""
    if not isinstance(report, dict) or set(report) != set(REPORT_KEYS):
        keys = sorted(report) if isinstance(report, dict) else type(report)
        return [f"report keys {keys} are not {sorted(REPORT_KEYS)}"]
    problems = []
    weights = list(report["weights"].values())
    if any(not isinstance(w, float) or w < 0.0 for w in weights) or not (
        abs(math.fsum(weights) - 1.0) <= SIMPLEX_TOL
    ):
        problems.append(f"weights off the simplex: {weights}")
    chance = report["chance_of_loss"]
    if not 0.0 <= chance <= 1.0:
        problems.append(f"chance_of_loss {chance!r} outside [0, 1]")
    initial = report["config_echo"]["initial_value"]
    if report["potential_loss"] != initial - report["var_value"]:
        problems.append("potential_loss != initial_value - var_value")
    median = report["percentiles"].get("0.5")
    if median is None or not report["var_value"] <= median:
        problems.append(f"var_value {report['var_value']!r} above median {median!r}")
    return problems


class OutputChecker:
    """Checks each operation's files and pins their bytes per case.

    The first time a case is checked its report.json and percentiles.csv
    digests are recorded; every later repeat, traced or not, must match.
    """

    def __init__(self, expectations: dict[str, Expectation]):
        self.expectations = expectations
        self.digests: dict[str, dict[str, str]] = {}

    def check(self, case: str, out_dir: Path) -> list[str]:
        try:
            report_bytes = (out_dir / "report.json").read_bytes()
            csv_bytes = (out_dir / "percentiles.csv").read_bytes()
            report = json.loads(report_bytes)
        except (OSError, ValueError) as err:
            return [f"unreadable output: {err}"]
        problems = report_problems(report)
        expect = self.expectations[case]
        for key, value in expect.exact.items():
            if report.get(key) != value:
                problems.append(f"{key} {report.get(key)!r} != expected {value!r}")
        paths_csv = out_dir / "paths.csv"
        if expect.paths_lines is None:
            if paths_csv.exists():
                problems.append("paths.csv written without record_paths")
        else:
            try:  # in 1 MiB chunks, so checking adds nothing to peak RSS
                with open(paths_csv, "rb") as fh:
                    lines = sum(chunk.count(b"\n") for chunk in iter(
                        lambda: fh.read(1 << 20), b""))
            except OSError as err:
                problems.append(f"paths.csv unreadable: {err}")
            else:
                if lines != expect.paths_lines:
                    problems.append(
                        f"paths.csv has {lines} lines, not {expect.paths_lines}")
        digest = {
            "report.json": hashlib.sha256(report_bytes).hexdigest(),
            "percentiles.csv": hashlib.sha256(csv_bytes).hexdigest(),
        }
        first = self.digests.setdefault(case, digest)
        if digest != first:
            problems.append("output bytes differ from an earlier repeat")
        return problems


def optimality_gap(mode: str, cov: np.ndarray, mu: np.ndarray,
                   w: np.ndarray, risk_free: float) -> float | None:
    """Relative Frank-Wolfe duality gap of the returned weights.

    For the minimum-variance problem min w'Sw on the simplex the gap is
    (g.w - min g) / w'Sw with g = 2Sw; it bounds w'Sw - optimum from above
    whatever solver produced w. Max-Sharpe is scored on its convex form
    min y'Sy subject to e'y = 1, y >= 0 (e = mu - r_f, y = w / e'w), whose
    vertices are the unit vectors scaled by 1/e_i for the assets with
    e_i > 0. Returns None where that problem is undefined: explicit weights,
    or max-Sharpe with no positive excess return or e'w <= 0.
    """
    if mode == "mvp":
        g = 2.0 * cov @ w
        return float((g @ w - g.min()) / (w @ cov @ w))
    if mode != "max_sharpe":
        return None
    e = mu - risk_free
    positive = e > 0.0
    scale = float(e @ w)
    if not positive.any() or scale <= 0.0:
        return None
    y = w / scale
    g = 2.0 * cov @ y
    return float((g @ y - (g[positive] / e[positive]).min()) / (y @ cov @ y))
