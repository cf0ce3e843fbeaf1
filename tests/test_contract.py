"""The byte contract: sha256 of every file the CLI writes for the bundled
fixtures at seed 42.

Each command runs in-process from the repository root with relative
``data/...`` paths, so the echoed ``price_csv`` does not depend on where the
checkout lives. The ``SERIAL`` case is ``simulate-record`` with the
``paths.csv`` writer seeing one CPU, so it formats every block in the calling
process. A declared contract change edits ``CONTRACT`` below; on a mismatch
the failure prints the full fresh table to paste in.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from gbmrisk import __version__, cli, forking

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("equity_like", "crypto_like")
EXPLICIT = "EQA=0.5,EQB=0.2,EQC=0.3"
SERIAL = "crypto_like/simulate-record-serial"


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
    cases[SERIAL] = cases["crypto_like/simulate-record"]
    return cases


CONTRACT = {
            "equity_like/estimate/params.json": "7218ad18551474871e2b4227936d7dcc4ad48590d78268c55f3f6a72359bf6b5",
            "equity_like/optimize-mvp/weights.json": "6cc1bec5cf9c3c5000cfba03459368c022d27792801d69fbedbc2710f05f4317",
            "equity_like/simulate-mvp/percentiles.csv": "c29301ab10dd7a2bff85972c93be967a13111f4bdd26149111a8c4f9ac301898",
            "equity_like/simulate-mvp/report.json": "93bc67748c67588c39c098c0324310c06447516c96279e8747972193bc350fb7",
            "equity_like/optimize-max_sharpe/weights.json": "d16537942106df9f0e5bce6746fd0c2370a27699d1098c02efa30da30a79fc82",
            "equity_like/simulate-max_sharpe/percentiles.csv": "db49cb9a5b7fa4f0c40e643ad396dff65a64e570f9108103b433604e526c19a3",
            "equity_like/simulate-max_sharpe/report.json": "8c4b672d78b3ff567078282eb9af4f237a4ee63314729d6987e2090390ac7585",
            "equity_like/simulate-record/paths.csv": "bcb12097309630831b9b8c25a132a042ae11e08301a9697c6a7f072036f3e669",
            "equity_like/simulate-record/percentiles.csv": "0c670bffa5a318d04589d18cb919edd5e9c14947c079d583169005f0347ba481",
            "equity_like/simulate-record/report.json": "50b9142fcaa6e6cfb2ccbc22da8911109b5130ac5e4efe5854634f40105fe23b",
            "equity_like/backtest/backtest.json": "6c6dc4901344c09270524eaed1d6c818e2e27fddd1d9f4462efb8f6e74a21b19",
            "crypto_like/estimate/params.json": "12c5ba59921e71d1cdb7e1ff9afdef3e1881854f822837b2762011c4c95e910c",
            "crypto_like/optimize-mvp/weights.json": "c8d60d0d56c31abcc4cd71f4a08a91ac0ee7f846d84cd96efbd5c2d4027860bd",
            "crypto_like/simulate-mvp/percentiles.csv": "e9eea3c998a956dc34becb7ed3fba609c0214945d3f7cf3ed25f5a4c0ba9f6fb",
            "crypto_like/simulate-mvp/report.json": "34d367d9e008354687035271fed7a14adff38e17d07e3d102854d3932143116f",
            "crypto_like/optimize-max_sharpe/weights.json": "826df1b51ce3e902267cff8fc87d5f543952444559add0f863050c8ecb065cdf",
            "crypto_like/simulate-max_sharpe/percentiles.csv": "ee1e8729cfe389a6a598729dd026d5f3bb47ef1d35b70bf25c23f88152ab90b2",
            "crypto_like/simulate-max_sharpe/report.json": "51a3bc0268658b151e287e794d226203bb2098b2fdf165a497119e9860f6784c",
            "crypto_like/simulate-record/paths.csv": "fd865ae2abf98e6081d0b19844a93324694e94b9bfaf2232a8c7f6316136a941",
            "crypto_like/simulate-record/percentiles.csv": "7262619ae0c37aaf8a53238115261b6fce39317130c42e0afcd756b6fb00e36c",
            "crypto_like/simulate-record/report.json": "57c69b59aff9e69a27c86a52627f9fe0bf13fe7783f0e400d588fcc9468d2abc",
            "crypto_like/backtest/backtest.json": "79f53dfcb3d1e3b8738bc218cf9e228727274dd560249b82c0bbec485b31c492",
            "equity_like/simulate-explicit/percentiles.csv": "b4cb9bc502e6d618e3da24112e47822d2c7f957f0b6a80e40f583b79978fcf1b",
            "equity_like/simulate-explicit/report.json": "1cd88f2c17919264e6462ba331c84cb3da385916b39f393043edf04b37e321ce",
            "crypto_like/simulate-record-serial/paths.csv": "fd865ae2abf98e6081d0b19844a93324694e94b9bfaf2232a8c7f6316136a941",
            "crypto_like/simulate-record-serial/percentiles.csv": "7262619ae0c37aaf8a53238115261b6fce39317130c42e0afcd756b6fb00e36c",
            "crypto_like/simulate-record-serial/report.json": "57c69b59aff9e69a27c86a52627f9fe0bf13fe7783f0e400d588fcc9468d2abc",
            "compare/comparison.json": "575562c1c815e242f6f90b3f3b86bb72ff0f45a5b0c2e392c7e08a4cf09fd033",
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
                    patch.setattr(forking, "available_cpus", lambda: 1)
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
    for name in ("report.json", "percentiles.csv", "paths.csv"):
        assert (fresh[f"{SERIAL}/{name}"]
                == fresh[f"crypto_like/simulate-record/{name}"])


def test_version_is_pinned():
    # every report echoes the version, so the digests above pin it as well;
    # the package metadata carries the same one
    assert __version__ == "0.5.0"
    # (read by pattern: tomllib is 3.11+, and the package supports 3.10)
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [__version__]
