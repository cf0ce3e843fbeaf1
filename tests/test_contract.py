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
            "equity_like/estimate/params.json": "92bb2770f26ed06df3db268c2343a63de25e5b01685fd9229dc1365348754fc2",
            "equity_like/optimize-mvp/weights.json": "bf6712e002cd982abe45101dd752d0f782b9e2adf99cbe7933f846fa47ab979a",
            "equity_like/simulate-mvp/percentiles.csv": "affcba32cb2874e68e387da0b5bc8b8fa78327fe116f9a335f9cfa4c955b4aa1",
            "equity_like/simulate-mvp/report.json": "e19cd35bb041ca2f22825b46256828cf3c0329150a6957f4beb5a5377e1d4b78",
            "equity_like/optimize-max_sharpe/weights.json": "6fe15835ce4d29cbf7d12e42bd6e6f4c52fbc821f7a4e0e9c21635a9d00323ca",
            "equity_like/simulate-max_sharpe/percentiles.csv": "6b7e5f391cb731381ed5a8b6b937e21d7ba6ffacc08a6a1b438a86070176c352",
            "equity_like/simulate-max_sharpe/report.json": "5a8206443b1afd92db98fab38341ee94c88187468f36255fc41c19cf6f8e0df7",
            "equity_like/simulate-record/paths.csv": "32e2870fead23a33bf520d59dd84c502caaf8f99a6376335eee028c6104b5ba5",
            "equity_like/simulate-record/percentiles.csv": "0915ea1616a147a3a180517b1fc939f66a7069ce261ce1cc77728f486a120529",
            "equity_like/simulate-record/report.json": "c9b822cbd53a8780531d32c3c94b965ab646c3936c4590cc79bfcefba04f7203",
            "equity_like/backtest/backtest.json": "e27f4e66c4ffba0d4e4d69bd4db2626f954a6278f7f06bb9bef19a200870c1b5",
            "crypto_like/estimate/params.json": "67760360c50e6edb934d2731e40b65f8c57802a4c3b03bf6688378ea0feb75fe",
            "crypto_like/optimize-mvp/weights.json": "d870375e532557120d27cd510fc1fa34a748e38759065587baabb2b53a8ce908",
            "crypto_like/simulate-mvp/percentiles.csv": "b65f104dbb1eaf6c9bcbf9b186fc6a15963c58bbd9c1fc311fb628b339b921ba",
            "crypto_like/simulate-mvp/report.json": "7035b3352ffab8b808baa443f32d7b92d20357c14f9cc785e5a51156ad7d6459",
            "crypto_like/optimize-max_sharpe/weights.json": "6244cabe1337d444885003f505409e91fcc37ce8105e3c7dc98fa26e7a588ed6",
            "crypto_like/simulate-max_sharpe/percentiles.csv": "52a8174f951ce155e558816f7df32797adcfdd507ead4f1a48d6ae455a9a3b2d",
            "crypto_like/simulate-max_sharpe/report.json": "3fb25b3a5e46cd09143b654d0ef1eaf602116f3e52c65a1e685274754fe01dc1",
            "crypto_like/simulate-record/paths.csv": "a94f310407523ef0752d122b23fc04871e2cb49f56b163b62847b8c818b65f38",
            "crypto_like/simulate-record/percentiles.csv": "510a9cfa28bf72187892e4b0f88d57c19f500dd067239890fed8f9842268c829",
            "crypto_like/simulate-record/report.json": "ca5b4665e84f9d5a4fc1372675d14643b9a678ebb500ad28e317ea372a12b959",
            "crypto_like/backtest/backtest.json": "13ff8be63bce98bfeb191b4fc42b914457f0ca87731d632f3d091d7d56ce720e",
            "equity_like/simulate-explicit/percentiles.csv": "efe87c5cdd5bbc8d27b8e47f2349cbe15d57276230856cf255fe7f21ca5bb5a4",
            "equity_like/simulate-explicit/report.json": "d94f0a9c9798ab3fd3568adb0262c61175cfc5eafcd293b06a738e8cff39ebb9",
            "crypto_like/simulate-record-serial/paths.csv": "a94f310407523ef0752d122b23fc04871e2cb49f56b163b62847b8c818b65f38",
            "crypto_like/simulate-record-serial/percentiles.csv": "510a9cfa28bf72187892e4b0f88d57c19f500dd067239890fed8f9842268c829",
            "crypto_like/simulate-record-serial/report.json": "ca5b4665e84f9d5a4fc1372675d14643b9a678ebb500ad28e317ea372a12b959",
            "compare/comparison.json": "3c3f40508f969a912dcc4657ec465094b5e4efd544584b867bd7b25f4d7e036c",
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
    assert __version__ == "0.6.0"
    # (read by pattern: tomllib is 3.11+, and the package supports 3.10)
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [__version__]
