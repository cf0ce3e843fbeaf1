"""Tests for the benchmark's output checks, quality measure and generator.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path)
from checks import Expectation, OutputChecker, optimality_gap  # noqa: E402
from gbmrisk import cli, simulation  # noqa: E402
from gbmrisk.cli import RunConfig  # noqa: E402
from spans import Tracer  # noqa: E402
from universe import write_universe  # noqa: E402

CONFIG = RunConfig(price_csv=str(run.ROOT / "data" / "equity_like.csv"),
                   n_paths=500)


def checked_op(tmp_path, checker, tamper=None):
    """Run one benchmark op, optionally edit its report.json, then check it."""
    op, result = run.run_op("case", CONFIG, tmp_path)
    assert result is not None and not op.problems
    if tamper is not None:
        path = tmp_path / "report.json"
        report = json.loads(path.read_text())
        tamper(report)
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    run.score(op, result, checker, tmp_path)
    return op


def fresh_checker():
    return OutputChecker({"case": Expectation(exact={})})


def test_clean_op_passes_and_repeats_byte_identically(tmp_path):
    checker = fresh_checker()
    assert checked_op(tmp_path, checker).problems == []
    assert checked_op(tmp_path, checker).problems == []
    assert set(checker.digests["case"]) == {"report.json", "percentiles.csv"}


def test_tampered_report_is_a_failed_op(tmp_path):
    checker = fresh_checker()
    checked_op(tmp_path, checker)

    def bump_var(report):
        report["var_value"] += 1.0

    problems = checked_op(tmp_path, checker, bump_var).problems
    assert any("potential_loss" in p for p in problems)
    assert any("differ from an earlier repeat" in p for p in problems)


def test_tampered_bytes_alone_are_a_failed_op(tmp_path):
    checker = fresh_checker()
    checked_op(tmp_path, checker)

    def edit_echo(report):
        report["config_echo"]["version"] = "tampered"

    problems = checked_op(tmp_path, checker, edit_echo).problems
    assert problems == ["output bytes differ from an earlier repeat"]


@pytest.mark.parametrize("weights", [{"EQA": 1.1, "EQB": 0.0, "EQC": -0.1},
                                     {"EQA": 0.5, "EQB": 0.5, "EQC": 0.5}])
def test_off_simplex_weights_are_a_failed_op(tmp_path, weights):
    def set_weights(report):
        report["weights"] = weights

    problems = checked_op(tmp_path, fresh_checker(), set_weights).problems
    assert any("off the simplex" in p for p in problems)


def test_expected_values_must_match_exactly(tmp_path):
    op, result = run.run_op("case", CONFIG, tmp_path)
    checker = OutputChecker({"case": Expectation(
        exact={"var_value": result.report.var_value * (1 + 1e-15)})})
    run.score(op, result, checker, tmp_path)
    assert any("var_value" in p for p in op.problems)


def test_optimality_gap_is_zero_at_the_optimum_only():
    sigma2 = np.array([0.04, 0.09, 0.25])
    cov = np.diag(sigma2)
    mvp = (1 / sigma2) / (1 / sigma2).sum()
    assert abs(optimality_gap("mvp", cov, None, mvp, 0.0)) < 1e-12
    assert optimality_gap("mvp", cov, None, np.full(3, 1 / 3), 0.0) > 0.1

    mu = np.array([0.08, 0.10, 0.05])
    tangent = (mu / sigma2) / (mu / sigma2).sum()
    assert abs(optimality_gap("max_sharpe", cov, mu, tangent, 0.0)) < 1e-12
    assert optimality_gap("max_sharpe", cov, mu, np.full(3, 1 / 3), 0.0) > 0.01
    assert optimality_gap("max_sharpe", cov, -mu, tangent, 0.0) is None


def test_universe_generator_is_byte_deterministic(tmp_path):
    a = write_universe(7, 3, 12, tmp_path / "a.csv").read_bytes()
    b = write_universe(7, 3, 12, tmp_path / "b.csv").read_bytes()
    c = write_universe(8, 3, 12, tmp_path / "c.csv").read_bytes()
    assert a == b != c
    assert a.count(b"\n") == 254


def traced_counts(n_paths):
    tracer = Tracer()
    with tracer.installed(0):
        cli.run_pipeline(dataclasses.replace(CONFIG, n_paths=n_paths))
    return tracer.counts(0)


def test_simulate_counts_follow_the_program(monkeypatch):
    counts = traced_counts(7)
    assert counts["normals"] == 7 * 252 * 3
    assert counts["path_streams"] == 7
    assert counts["bytes_computed"] == 3 * 7 * 252 * 3 * 8

    # a simulate that draws no Philox streams reads as drawing none
    monkeypatch.setattr(simulation, "draw_standard_normals",
                        lambda seed, path, count: np.zeros(count))
    counts = traced_counts(7)
    assert counts["normals"] == 0 and counts["path_streams"] == 0
