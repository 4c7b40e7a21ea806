"""The byte contract under a second exp: numpy's AVX512 routines switched off.

On an AVX512 host np.exp runs numpy's own AVX512 routine, which differs
from libm's exp by one ulp on some inputs (see test_cli_golden.py).  p's
last bit moves with it, and the files that print p with repr move too;
the runs themselves must not.  This module re-runs test_corpus.py's runs
and the golden CLI invocations in a subprocess whose numpy has the host's
AVX512 dispatch targets disabled through NPY_DISABLE_CPU_FEATURES, and
checks the results against the recorded digests: the corpus and the
run_batch and sweep trees hold, and of the run_single tree exactly
s1/distributions_t3.csv differs, which also shows that the other exp ran.
A host with no AVX512 target present skips: there the subprocess would
repeat the rest of the suite's runs.

Run as a script (python tests/test_second_exp.py OUT_DIR, with src/ on
PYTHONPATH) it is that subprocess: it writes the trees under OUT_DIR and
prints the digests as JSON on its last line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from evacsim.cli import main
from test_cli_golden import GOLDEN, INVOCATIONS, ROOM, avx512_dispatch_targets, tree_sha256
from test_corpus import CORPUS, ROOMS, room_digests

DIFFERS = {"run_single": {"s1/distributions_t3.csv"}, "run_batch": set(), "sweep": set()}


def second_exp_digests(out: Path) -> dict:
    trees = {}
    for name, argv in INVOCATIONS.items():
        assert main([argv[0], "--scenario", ROOM, "--out", str(out / name), *argv[1:]]) == 0
        trees[name] = tree_sha256(out / name)
    return {
        "enabled": avx512_dispatch_targets(),
        "corpus": {name: room_digests(name) for name in sorted(ROOMS)},
        "trees": trees,
    }


def test_bytes_hold_under_a_second_exp(tmp_path):
    targets = avx512_dispatch_targets()
    if not targets:
        pytest.skip("no AVX512 dispatch target is present, so np.exp has no second routine here")
    env = dict(src_env(), NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["enabled"] == [], f"NPY_DISABLE_CPU_FEATURES={' '.join(targets)} left them on"
    assert got["corpus"] == json.loads(CORPUS.read_text())
    golden = json.loads(GOLDEN.read_text())
    for name, want in golden.items():
        assert sorted(got["trees"][name]) == sorted(want)
        differ = {path for path, digest in want.items() if got["trees"][name][path] != digest}
        assert differ == DIFFERS[name], name


if __name__ == "__main__":
    print(json.dumps(second_exp_digests(Path(sys.argv[1]))))
