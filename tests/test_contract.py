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
            "equity_like/estimate/params.json": "f8438b01b63605e682fc34ced21305c87341df282c8536024f88cd653e2a1558",
            "equity_like/optimize-mvp/weights.json": "952c6774bf987ed04c58035f4390391652bfdacf8a74b547e8d553a8703a528f",
            "equity_like/simulate-mvp/percentiles.csv": "94500fa0089217bfb3d84b172c5f1088b9eca3b64927287d9dc93bac340d58b6",
            "equity_like/simulate-mvp/report.json": "db4f8915558bbdf7c94dec4830837b1cad27863a9d3e6d5ecd6d3ba59914a39c",
            "equity_like/optimize-max_sharpe/weights.json": "2fbbe4a05b7e34be28ecdd825a085d42114c2be37c615e1bafbc27d9f3e8148a",
            "equity_like/simulate-max_sharpe/percentiles.csv": "f709a3e09010f381b9e9956d957e14738b136ba09d4a983673690c8852d8719f",
            "equity_like/simulate-max_sharpe/report.json": "7ee148fd04a1efc21e9097da08ce7af0aec4cf903a20848746e41d6672b609e8",
            "equity_like/simulate-record/paths.csv": "9a1443fdf72c24bbb1c79c95be6fb46bac8e562ecca1a9bc729a5024744f3c2a",
            "equity_like/simulate-record/percentiles.csv": "5c098803c126c3975ad9bf4e72ebc220892336ae6c9e6d7e7676320d8d31e54d",
            "equity_like/simulate-record/report.json": "f32b4dcca21179c4b5b12467b3efdadae9757b28fd41ed556d319f9162931eb8",
            "equity_like/backtest/backtest.json": "d1ebbd9e3a51319d954467a3a400f2e88a24ea498ed412cbf144b048ff60df42",
            "crypto_like/estimate/params.json": "4bbd0f3cb8035d99a3a81899c51056bc2bf9c8234106995942bbbb99570be1d5",
            "crypto_like/optimize-mvp/weights.json": "6b4f66b0a41332ae4570efc767eb5f5842f28c0ebd1620f65e989be214b4060c",
            "crypto_like/simulate-mvp/percentiles.csv": "a7a048d6ef1be80283522b1622928d442616cdbc7e3f4719c274baa200427e80",
            "crypto_like/simulate-mvp/report.json": "9d934bf8b8018a48f26ec0f6cf14a6ed589e1356deeeb11e7525d561c21eef58",
            "crypto_like/optimize-max_sharpe/weights.json": "fd6c1be4766fdcfdcdea5dc02fe46297676c655bf585569e41ae0901bda0c5ff",
            "crypto_like/simulate-max_sharpe/percentiles.csv": "0422ff4703cdd9e974e6592e16c81d0acef12002f5b03c39a415905a99749d91",
            "crypto_like/simulate-max_sharpe/report.json": "aa7024655c2599c6d9ef99960dc1904ab3a62dbbd046c023e97c6d47b183888d",
            "crypto_like/simulate-record/paths.csv": "808ab876324239e4cc60d08850f91a40671db1b909530aab8911b1b380f722ee",
            "crypto_like/simulate-record/percentiles.csv": "9ff290a2ae5c26b34b9ca4e1de7e166d309b50565267888ce3a34f9019089aa7",
            "crypto_like/simulate-record/report.json": "8a5ffb5fa16a33a8052a00bccfc78436ae20a1749feae52c1b887a258523d2e7",
            "crypto_like/backtest/backtest.json": "36fda2b0eabe16ac78f2e6a59c77cc6ae8f1eae350697c4dcebae1e4820dfbd4",
            "equity_like/simulate-explicit/percentiles.csv": "e8adfb8eacef2daaf601d4f57598d0bdaf61e96cc8b79a2413950d0293af5180",
            "equity_like/simulate-explicit/report.json": "627130616b35faaa211e75f078c41545a834ea731bb9a7696ce4fd255a626a23",
            "crypto_like/simulate-record-serial/paths.csv": "808ab876324239e4cc60d08850f91a40671db1b909530aab8911b1b380f722ee",
            "crypto_like/simulate-record-serial/percentiles.csv": "9ff290a2ae5c26b34b9ca4e1de7e166d309b50565267888ce3a34f9019089aa7",
            "crypto_like/simulate-record-serial/report.json": "8a5ffb5fa16a33a8052a00bccfc78436ae20a1749feae52c1b887a258523d2e7",
            "compare/comparison.json": "a8fb28517ba81c92f37cd3d05e257d0af35327a5ced3cf0fa0b1eebf9d8000cc",
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
    # every report echoes the version, so the digests above pin it as well
    assert __version__ == "0.4.0"
