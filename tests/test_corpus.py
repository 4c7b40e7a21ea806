"""Byte corpus: pinned digests of library runs over a grid of rooms and parameters.

Each room under tests/data/corpus/ plus the shipped scenarios runs through
engine.run for every r in (1, 3, 10, max(h, w, 10) + 1), k_P in (0, 6, 18),
mu in (0, 0.3) and seeds 1 and 2, capped at the room's MAX_STEPS.  A run's
digest is the sha256 of its curve, evacuation time, spread samples and
final occupancy; each room also pins the bytes of its static field.  The
transition distributions are left out: np.exp's last bit depends on the
CPU features numpy dispatches to, and the CLI golden test already pins
them on the paper room.

The rooms cover interior obstacles around an unreachable pocket, exits on
two walls (no spread axis), agents starting on exits, a serpentine detour
and a room narrower than r.  The large rooms of large_rooms.py, built in
code and too big for a run grid here, pin their static field alone in
large_sff_sha256.json.  To record both files afresh, run
`python tests/test_corpus.py` from the checkout root; a recording belongs
to the revision it was taken at, and the digests must never change.
"""

import hashlib
import json
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR
from large_rooms import ROOMS as LARGE_ROOMS
from evacsim.engine import run
from evacsim.floorfield import compute_sff
from evacsim.scenario import parse_scenario

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus_sha256.json"
LARGE = DATA / "large_sff_sha256.json"
ROOMS = {p.stem: p for p in sorted((DATA / "corpus").glob("*.txt"))}
ROOMS.update({p.stem: p for p in sorted(SCENARIO_DIR.glob("*.txt"))})
# steps per run; the paper room's 300 agents make its steps the dearest
MAX_STEPS = {"room37x33": 25, "corridor30": 40}
K_PS = (0.0, 6.0, 18.0)
MUS = (0.0, 0.3)
SEEDS = (1, 2)


def load(name):
    sc = parse_scenario(ROOMS[name].read_text())
    if name == "on_exit":
        # the map format cannot put a pedestrian on an exit; ids follow raster order
        sc = replace(sc, initial_agents=tuple(sorted(sc.initial_agents + tuple(sc.grid.exits))))
    return replace(sc, params=replace(sc.params, max_steps=MAX_STEPS.get(name, 60)))


def run_digest(result, max_steps):
    h = hashlib.sha256()
    h.update(repr(result.curve).encode())
    h.update(repr(result.evac_time).encode())
    h.update(repr([(s.step, s.value) for s in result.spread]).encode())
    (t, occ), = [(t, occ) for t, occ in result.snapshots if t == max_steps]
    h.update(repr(occ.shape).encode() + (occ != 0).tobytes())
    return h.hexdigest()


def sff_digest(grid):
    field = compute_sff(grid)
    return hashlib.sha256(repr(field.shape).encode() + field.tobytes()).hexdigest()


def room_digests(name):
    sc = load(name)
    out = {"sff": sff_digest(sc.grid)}
    max_steps = sc.params.max_steps
    for r in (1, 3, 10, max(sc.grid.height, sc.grid.width, 10) + 1):
        for k_p in K_PS:
            for mu in MUS:
                for seed in SEEDS:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # k_P = 0 < k_S
                        params = replace(sc.params, r=r, k_p=k_p, mu=mu, seed=seed)
                    result = run(replace(sc, params=params), snapshot_steps=(max_steps,))
                    out[f"r={r} k_P={k_p} mu={mu} seed={seed}"] = run_digest(result, max_steps)
    return out


@pytest.mark.parametrize("name", sorted(ROOMS))
def test_corpus_digests_unchanged(name):
    assert room_digests(name) == json.loads(CORPUS.read_text())[name]


@pytest.mark.parametrize("name", sorted(LARGE_ROOMS))
def test_large_room_sff_unchanged(name):
    assert sff_digest(LARGE_ROOMS[name]()) == json.loads(LARGE.read_text())[name]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({name: room_digests(name) for name in sorted(ROOMS)}, indent=1) + "\n")
    LARGE.write_text(json.dumps({name: sff_digest(LARGE_ROOMS[name]()) for name in sorted(LARGE_ROOMS)},
                                indent=1) + "\n")
