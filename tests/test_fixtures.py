"""The bundled fixtures are what scripts/make_fixtures.py writes."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR

FIXTURE_FILES = ("crypto_like.csv", "crypto_like.meta.json",
                 "equity_like.csv", "equity_like.meta.json")


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    root = DATA_DIR.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_fixtures.py"),
         "--out-dir", str(out)],
        check=True, env=env, capture_output=True,
    )
    return out


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_committed_fixture_regenerates_byte_identically(regenerated, name):
    # a metadata value edited by hand, or left stale after a change to the
    # default pipeline, shows up here
    assert (regenerated / name).read_bytes() == (DATA_DIR / name).read_bytes()
