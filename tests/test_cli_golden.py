"""Byte-level golden outputs of the CLI on the paper room.

tests/data/cli_golden_sha256.json holds the sha256 of every file each
invocation below writes, keyed by its path in the output tree.  The other
CLI tests compare two runs of the same code; this one pins the bytes
themselves, so a refactor of the CLI or the engine that changes any output
file, adds one or drops one shows up here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR
from evacsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden_sha256.json"
ROOM = str(SCENARIO_DIR / "room37x33.txt")

INVOCATIONS = {
    "run_single": ["run", "--dump-sff", "--dump-distributions", "3"],
    "run_batch": ["run", "--seeds", "1,2,3"],
    # the swept k_P must win over --set k_P, and mu > 0 draws at conflicts
    "sweep": ["sweep", "--sweep", "k_P=6,18", "--seeds", "1,2", "--workers", "2",
              "--set", "mu=0.2", "--set", "k_P=30"],
}


def tree_sha256(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_bytes_match_golden(name, tmp_path):
    argv = INVOCATIONS[name]
    out = tmp_path / name
    assert main([argv[0], "--scenario", ROOM, "--out", str(out), *argv[1:]]) == 0
    want = json.loads(GOLDEN.read_text())[name]
    assert tree_sha256(out) == want
