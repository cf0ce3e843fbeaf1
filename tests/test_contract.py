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
            "equity_like/estimate/params.json": "49c0d2091c2e3c6dc06a1b1bc150f6fe68123b8c0aec8fdcc8933dd3496c7fde",
            "equity_like/optimize-mvp/weights.json": "c580c11ce46393fd00a726e1296dbd4b43a3f2d9fa7384605ae4ce172676c0dc",
            "equity_like/simulate-mvp/percentiles.csv": "187d0494c14b1d424749190f8f8a9120855e0f488d0a55cec40927f4e6ada57a",
            "equity_like/simulate-mvp/report.json": "026d93e2dff7f8f2b835786049bf16ab63f5d1156fc9bb1970a85d6fdb629b19",
            "equity_like/optimize-max_sharpe/weights.json": "d867e4e3e040fe005cd57209484ec1c98142094bd1d90647e608b0b676d5344a",
            "equity_like/simulate-max_sharpe/percentiles.csv": "e1955adefbdf3115d807a374107749347444755b85a8e98ce7da1531b04802f0",
            "equity_like/simulate-max_sharpe/report.json": "3b2cb7bdc47d68460b67b00d814f28bfbc3bd18dcb59a76e7541305312ee1b0a",
            "equity_like/simulate-record/paths.csv": "9a1443fdf72c24bbb1c79c95be6fb46bac8e562ecca1a9bc729a5024744f3c2a",
            "equity_like/simulate-record/percentiles.csv": "94b0a4a2dc3fcd671c6bf9adf0c2a21056f3ee9e4a2750a07743fb8d41d31eed",
            "equity_like/simulate-record/report.json": "26427ab490b59dd069731856ed0136a7ca76c002224d05efc0d139fe349eeebb",
            "equity_like/backtest/backtest.json": "8d5e6ddd0cc53e5232af1fe46262351fa38befef48300a8721519bc9a62e48c2",
            "crypto_like/estimate/params.json": "b2a619adcfc28ab2a575933dd5b8ae02089b6eea40687e233c685fc2f08faad3",
            "crypto_like/optimize-mvp/weights.json": "f26c8f4af20bec8c234119ff76d83ba66dba6daec239a87c15054b129e6a4b69",
            "crypto_like/simulate-mvp/percentiles.csv": "23b92652cb7c05c0fdc16a8b139c7fea6a80753316c0f38d323eb696066dd8ce",
            "crypto_like/simulate-mvp/report.json": "791407b5d4633861949197d90650323bc0e29d859dd640cde585c731e76f28af",
            "crypto_like/optimize-max_sharpe/weights.json": "3c919ce59b0ee077669448dfb2bc46b1662216434b39455a931f918830b441e9",
            "crypto_like/simulate-max_sharpe/percentiles.csv": "0422ff4703cdd9e974e6592e16c81d0acef12002f5b03c39a415905a99749d91",
            "crypto_like/simulate-max_sharpe/report.json": "b47edbb1f863c4ac4ecc0e3f15180ee8bd026babd700fbebff5953edbc6771d7",
            "crypto_like/simulate-record/paths.csv": "808ab876324239e4cc60d08850f91a40671db1b909530aab8911b1b380f722ee",
            "crypto_like/simulate-record/percentiles.csv": "d78f2614b4f49bc3bec2b015d2ee89f56a477e52d0fa5dcf3ca46758ee628d13",
            "crypto_like/simulate-record/report.json": "11306fdb9ffe881d30388164f13fd1a6c6131712ce8c93cff51a37dffd9fa782",
            "crypto_like/backtest/backtest.json": "8db1919c14aa759ce80848f72c42ec3e839c555bfc78e1c9649f122f85b1606d",
            "equity_like/simulate-explicit/percentiles.csv": "e8adfb8eacef2daaf601d4f57598d0bdaf61e96cc8b79a2413950d0293af5180",
            "equity_like/simulate-explicit/report.json": "628eb08d79ea891e03d6e5eaaf0714bd79c74bf8c3804e90fb70c3b9dee4b1a2",
            "crypto_like/simulate-mvp-serial/percentiles.csv": "23b92652cb7c05c0fdc16a8b139c7fea6a80753316c0f38d323eb696066dd8ce",
            "crypto_like/simulate-mvp-serial/report.json": "791407b5d4633861949197d90650323bc0e29d859dd640cde585c731e76f28af",
            "compare/comparison.json": "ca3cbc4470dfc1e7aa13d3f0e826f51ada4828b9246088823e75ef737165aa5f",
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
    assert __version__ == "0.3.0"
