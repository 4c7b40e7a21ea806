"""Byte-level golden outputs of the CLI on the paper room.

tests/data/cli_golden_sha256.json holds the sha256 of every file each
invocation below writes, keyed by its path in the output tree.  The other
CLI tests compare two runs of the same code; this one pins the bytes
themselves, so a refactor of the CLI or the engine that changes any output
file, adds one or drops one shows up here.

The distributions file of run_single prints p with repr, and p comes from
np.exp, whose float64 bits depend on the SIMD routine numpy dispatches to:
its AVX512 exp differs from libm's by one ulp on some inputs.
tests/data/run_single_exp_t3.json holds the arguments that file's capture
passes to np.exp and the sha256 of np.exp's result bits on them, as
recorded on an AVX512 host; a host that computes other bits fails
test_exp_matches_the_recording_host, which names its numpy and SIMD
targets, before the golden bytes are blamed on a regression.  Running
this module as a script (PYTHONPATH=src python tests/test_cli_golden.py)
records the file again.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SCENARIO_DIR
from evacsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden_sha256.json"
EXP_CAPTURE = Path(__file__).parent / "data" / "run_single_exp_t3.json"
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


def capture_exp_arguments(out: Path) -> np.ndarray:
    """The argument np.exp gets for run_single's --dump-distributions 3
    capture, taken by a wrapper around np.exp while the invocation runs."""
    calls = []
    exp = np.exp

    def recording(x):
        calls.append(np.array(x, dtype=np.float64))
        return exp(x)

    np.exp = recording
    try:
        argv = INVOCATIONS["run_single"]
        assert main([argv[0], "--scenario", ROOM, "--out", str(out), *argv[1:]]) == 0
    finally:
        np.exp = exp
    # one call per step for steps 0-2, then the capture at step 3, then
    # step 3's own call on the same state
    capture = calls[3]
    assert np.array_equal(capture, calls[4])
    return capture.ravel()


def exp_digest(args: np.ndarray) -> str:
    return hashlib.sha256(np.exp(args).astype("<f8").tobytes()).hexdigest()


def differ_from_math_exp(args: np.ndarray) -> int:
    return int(np.sum(np.exp(args) != [math.exp(x) for x in args]))


def avx512_targets() -> str:
    """numpy's enabled AVX512 dispatch targets, not the single CPU features."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return ", ".join(sorted(k for k, on in __cpu_features__.items()
                            if on and (k.startswith("AVX512_") or k in ("AVX512F", "X86_V4"))))


def test_exp_arguments_match_the_recording(tmp_path):
    want = [float.fromhex(h) for h in json.loads(EXP_CAPTURE.read_text())["arguments"]]
    assert capture_exp_arguments(tmp_path / "o").tobytes() == np.array(want).tobytes()


def test_exp_matches_the_recording_host():
    recorded = json.loads(EXP_CAPTURE.read_text())
    args = np.array([float.fromhex(h) for h in recorded["arguments"]])
    if exp_digest(args) != recorded["result_sha256"]:
        pytest.fail(
            f"np.exp gives other bits than on the recording host, so the golden "
            f"distributions bytes cannot hold here: numpy {np.__version__}, AVX512 "
            f"targets enabled: {avx512_targets() or 'none'}; np.exp differs from math.exp "
            f"on {differ_from_math_exp(args)} of {args.size} arguments here.  Recorded "
            f"with numpy {recorded['numpy']}, AVX512 targets "
            f"{recorded['avx512_targets'] or 'none'}, differing on "
            f"{recorded['differ_from_math_exp']}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        args = capture_exp_arguments(Path(tmp) / "o")
    EXP_CAPTURE.write_text(json.dumps({
        "invocation": "run_single",
        "numpy": np.__version__,
        "avx512_targets": avx512_targets(),
        "differ_from_math_exp": differ_from_math_exp(args),
        "result_sha256": exp_digest(args),
        "arguments": [float(x).hex() for x in args],
    }, indent=1) + "\n")
    print(f"wrote {EXP_CAPTURE}", file=sys.stderr)
