"""The byte contract: sha256 of every file the CLI writes for the bundled
fixtures at seed 42.

Each command runs in-process from the repository root with relative
``data/...`` paths, so the echoed ``price_csv`` does not depend on where the
checkout lives; the ``SERIAL`` case sees one CPU. A declared contract change
edits ``CONTRACT`` below; on a mismatch the failure prints the full fresh
table to paste in.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from gbmrisk import __version__, cli, simulation

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("equity_like", "crypto_like")
EXPLICIT = "EQA=0.5,EQB=0.2,EQC=0.3"
SERIAL = "crypto_like/simulate-mvp-serial"


def commands() -> dict[str, list[str]]:
    """Case name -> argv, without --out-dir."""
    cases = {}
    for fixture in FIXTURES:
        run = ["--price-csv", f"data/{fixture}.csv", "--seed", "42"]
        cases[f"{fixture}/estimate"] = ["estimate", *run]
        for mode in ("mvp", "max_sharpe"):
            mode_run = [*run, "--portfolio-mode", mode]
            cases[f"{fixture}/optimize-{mode}"] = ["optimize", *mode_run]
            cases[f"{fixture}/simulate-{mode}"] = ["simulate", *mode_run]
        cases[f"{fixture}/simulate-record"] = [
            "simulate", *run, "--n-paths", "300", "--record-paths"
        ]
        cases[f"{fixture}/backtest"] = ["backtest", *run, "--window", "100"]
    cases["equity_like/simulate-explicit"] = [
        "simulate", "--price-csv", "data/equity_like.csv", "--seed", "42",
        "--portfolio-mode", "explicit-weights", "--explicit-weights", EXPLICIT,
    ]
    cases[SERIAL] = [
        "simulate", "--price-csv", "data/crypto_like.csv", "--seed", "42",
    ]
    return cases


CONTRACT = {
    "equity_like/estimate/params.json": "82925bc6b4ff9efe4fb1b17e4e354a0705b87056e3125914b9615c5a23ce0282",
    "equity_like/optimize-mvp/weights.json": "ad93b9ebbe9c94b418f53f7399be6a1b1d26626d2abdc614861af92e6a3e8b97",
    "equity_like/simulate-mvp/percentiles.csv": "0deab1f8517d18e9e856b52e427c539ae4b347e0bd212e445f42161534443246",
    "equity_like/simulate-mvp/report.json": "2d346310cad3556368c3be44aaf2ce296bf877c9647b2602efec941fd754c454",
    "equity_like/optimize-max_sharpe/weights.json": "f61912d7c1b24c12180c20401807925f59f410dcf6a8a7fdd2b50ceb4891051d",
    "equity_like/simulate-max_sharpe/percentiles.csv": "9a6891583618297657d555dca1128d3eb53aaa422fdb41911813429726080782",
    "equity_like/simulate-max_sharpe/report.json": "a5c6ce75d2be96acf6f7bc2c5dd61cc8b4065087b2c805ddb17c047e2e614e53",
    "equity_like/simulate-record/paths.csv": "161bff09c3737376f683b4eca5364daeb11485c81bb5bdd37ec55ba776bef8fd",
    "equity_like/simulate-record/percentiles.csv": "12e6f0ea319f0a5a887b68487c50e0ccb8b561c268686c8fc88d83dfcc80a585",
    "equity_like/simulate-record/report.json": "33c47574f6aea27f04c72155696a36923ebcc44be4464b1fdd2da1d47b89a13d",
    "equity_like/backtest/backtest.json": "ea3136badc0ad9796d23f5636dd8056b5e6331d5516feb9b235c39bc647f0cf7",
    "crypto_like/estimate/params.json": "354671a71f8cc540e3c59c23319236273cb1718cca4cefd20599c4ce1f7d97dd",
    "crypto_like/optimize-mvp/weights.json": "6e7fe38df7666abc2647893cf34750c568447f0b5dd30a6f110b5d9a36865bc7",
    "crypto_like/simulate-mvp/percentiles.csv": "cc88ec733dd5aa4e8cbc658012e6596b8e49d60eb5dbe3a51d297896ad9239f2",
    "crypto_like/simulate-mvp/report.json": "64af34bfdb1b877278a07c60bf4102f86ef87ea607a36678f2eb21c1b7f8087f",
    "crypto_like/optimize-max_sharpe/weights.json": "a250bc964610ebd9ae6c3bba8d75db1af05467a1f9e078a8e53ddbc0acd55499",
    "crypto_like/simulate-max_sharpe/percentiles.csv": "b8124f8bb0233a02e96a31b50a41890423548b425cc9d31d9cff2b5b67850904",
    "crypto_like/simulate-max_sharpe/report.json": "4c1957a4449ccd0a0df0522b2806ecb0c9b24e2d4391891e8e432f94cf730c45",
    "crypto_like/simulate-record/paths.csv": "3932fb09c5004580e56a0d1fe26cf8f22e09dc2210cdf91a13511f09df8d10c1",
    "crypto_like/simulate-record/percentiles.csv": "4a5b3537a49293518974a35d32f6f63a2f0d895d1861b48645d40baae831e4b8",
    "crypto_like/simulate-record/report.json": "aee9adce582757c51c1d75f35dd16ccef91c7e188a31221fbbf57a044bb40573",
    "crypto_like/backtest/backtest.json": "83eef0bd1cd47f5a66cf8f73910dea579daa90d2bed146c7d637a2a457cb8936",
    "equity_like/simulate-explicit/percentiles.csv": "c1669eacc2321a5e406091fbb8da1c916b85a4a143df0f6f15400b4e3d008c16",
    "equity_like/simulate-explicit/report.json": "d24747c30d929da4c0164e228fb584b59a01838d0667e6586f5fdaec3c569db2",
    "crypto_like/simulate-mvp-serial/percentiles.csv": "cc88ec733dd5aa4e8cbc658012e6596b8e49d60eb5dbe3a51d297896ad9239f2",
    "crypto_like/simulate-mvp-serial/report.json": "64af34bfdb1b877278a07c60bf4102f86ef87ea607a36678f2eb21c1b7f8087f",
    "compare/comparison.json": "ae7e6066a134e03fbd064aa4ed81ab4be8def4098e4af023189331bcff2b8858",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> dict[str, str]:
    """Run every command once; map ``case/file`` to the written file's sha256."""
    root = tmp_path_factory.mktemp("contract")
    for fixture in FIXTURES:
        (root / f"{fixture}.json").write_text(json.dumps(
            {"price_csv": f"data/{fixture}.csv", "seed": 42}
        ))
    cases = commands()
    cases["compare"] = [
        "compare", "--config-a", str(root / "equity_like.json"),
        "--config-b", str(root / "crypto_like.json"),
    ]
    digests = {}
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        for case, argv in cases.items():
            out = root / case
            with pytest.MonkeyPatch.context() as patch:
                if case == SERIAL:
                    patch.setattr(simulation, "_available_cpus", lambda: 1)
                assert cli.main([*argv, "--out-dir", str(out)]) == 0, case
            for path in sorted(out.iterdir()):
                digests[f"{case}/{path.name}"] = _sha256(path)
    finally:
        os.chdir(cwd)
    return digests


def test_outputs_match_pinned_digests(fresh):
    if fresh != CONTRACT:
        table = "\n".join(f'    "{name}": "{d}",' for name, d in fresh.items())
        pytest.fail(f"output bytes changed; fresh table:\nCONTRACT = {{\n{table}\n}}")


def test_serial_run_writes_the_default_bytes(fresh):
    for name in ("report.json", "percentiles.csv"):
        assert (fresh[f"{SERIAL}/{name}"]
                == fresh[f"crypto_like/simulate-mvp/{name}"])


def test_version_is_pinned():
    # every report echoes the version, so the digests above pin it as well
    assert __version__ == "0.2.0"
