"""The benchmark's workloads, its set-up sequence and its output digests.

Each workload turns the workload seed into fixed inputs, runs them through
evacsim's public entry points (`evacsim.run`, `evacsim.cli.main`) and
reduces everything the run produced to one sha256 digest.  A repetition is
a list of parts (one simulation, one CLI invocation) that run.py times one
by one.  Digests are recorded per seed class (the workload seed modulo
POOL) in digests.json, so any workload seed is checked against output that
reference code produced.

Every call into evacsim goes through a module attribute
(`evacsim.scenario.parse_scenario`, not a name imported here), so the
traced run sees it through the wrappers in layertrace.py.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import evacsim
import evacsim.cli
import evacsim.engine
import evacsim.floorfield
import evacsim.metrics
import evacsim.scenario
import evacsim.transition

# workload seeds are reduced modulo POOL; digests.json has one digest per class
POOL = 32
PANELS = (25, 65, 135, 165, 180, 225)
# big_room: side of the square room, crowd size, exit cells, step cut-off
BIG_SIZE, BIG_AGENTS, BIG_EXIT_WIDTH, BIG_MAX_STEPS = 300, 1080, 4, 40


@dataclass
class Outcome:
    """What one repetition produced, reduced after its timer stopped."""

    digest: str
    agent_steps: int
    problems: list[str]
    # the CLI's output tree, for corridor_sweep
    tasks: int = 0
    files: int = 0
    bytes: int = 0


def setup_sequence(text: str) -> None:
    """Everything before the first step: parse, validate, SFF, tables, state."""
    sc = evacsim.scenario.parse_scenario(text)
    field = evacsim.floorfield.compute_sff(sc.grid)
    problems = evacsim.scenario.validate(sc, field)
    if problems:
        raise ValueError(f"invalid scenario: {problems}")
    evacsim.transition.TransitionTables(field, sc.grid, sc.params)
    evacsim.engine.initial_state(sc)


def rep(wl) -> list:
    """One repetition, every part in order; the caller times it as a whole."""
    return [part() for part in wl.parts()]


def _agent_steps(curve) -> int:
    """Agents present at the start of each executed step, summed."""
    return sum(int(n) for _, n in curve[:-1])


def _feed_result(h, res) -> None:
    """Hash a SimulationResult by value, independent of array dtypes."""
    h.update(repr([(int(t), int(n)) for t, n in res.curve]).encode())
    h.update(repr(res.evac_time).encode())
    h.update(repr([(int(s.step), repr(float(s.value))) for s in res.spread]).encode())
    for t, occ in res.snapshots:
        occ = np.asarray(occ)
        h.update(repr((int(t), occ.shape)).encode())
        h.update((occ != 0).astype(np.uint8).tobytes())


class RoomBatch:
    """The paper room as the criterion-8 batch through library run()."""

    name = "room_batch"
    seeds_per_kp = 3
    k_ps = (6.0, 18.0)

    def __init__(self, root: Path, seed: int):
        self.seed_class = seed % POOL
        self.text = (root / "scenarios" / "room37x33.txt").read_text(encoding="ascii")
        self.golden = (root / "tests" / "data" / "room37x33_s1_t25.txt").read_text()
        # seed 1 first, so its t25 panel can be compared with the golden file
        n = self.seeds_per_kp - 1
        self.sim_seeds = [1] + [2 + n * self.seed_class + i for i in range(n)]

    def describe(self) -> dict:
        return {"scenario": "scenarios/room37x33.txt", "k_P": list(self.k_ps),
                "sim_seeds": self.sim_seeds, "runs": len(self.k_ps) * len(self.sim_seeds),
                "panels_on_seed": self.sim_seeds[0]}

    def parts(self) -> list:
        return [functools.partial(self._simulate, k_p, s)
                for k_p in self.k_ps for s in self.sim_seeds]

    def _simulate(self, k_p: float, s: int):
        sc = evacsim.scenario.parse_scenario(self.text)
        first = s == self.sim_seeds[0]
        # the max_steps snapshot is the final occupancy
        steps = (PANELS if first else ()) + (sc.params.max_steps,)
        res = evacsim.run(replace(sc, params=replace(sc.params, k_p=k_p, seed=s)),
                          snapshot_steps=steps)
        texts = {}
        if first:
            for t, occ in res.snapshots:
                if t in PANELS:
                    texts[t] = evacsim.metrics.render_snapshot(occ, sc.grid)
        return k_p, s, res, texts

    def reduce(self, out) -> Outcome:
        h = hashlib.sha256()
        problems = []
        steps = 0
        for k_p, s, res, texts in out:
            h.update(repr((k_p, s)).encode())
            _feed_result(h, res)
            for t in sorted(texts):
                text, pgm = texts[t]
                h.update(text.encode())
                h.update(pgm)
            if res.evac_time is None:
                problems.append(f"k_P={k_p} seed={s} did not evacuate")
            if k_p == 6.0 and s == 1 and texts.get(25, ("",))[0] != self.golden:
                problems.append("k_P=6 seed=1 t25 snapshot differs from tests/data")
            steps += _agent_steps(res.curve)
        return Outcome(h.hexdigest()[:32], steps, problems)


def big_room_text(seed_class: int) -> str:
    """An enclosed BIG_SIZE-square room, exits on the east wall, uniform crowd.

    Everything is drawn from the seed class: the exit position, the agent
    cells (distinct interior cells) and the simulation seed.
    """
    size, width = BIG_SIZE, BIG_EXIT_WIDTH
    rng = np.random.default_rng(seed_class)
    rows = np.full((size, size), ord("."), dtype=np.uint8)
    rows[0, :] = rows[-1, :] = rows[:, 0] = rows[:, -1] = ord("#")
    top = int(rng.integers(size // 4, 3 * size // 4 - width))
    rows[top:top + width, -1] = ord("E")
    interior = size - 2
    picks = rng.choice(interior * interior, size=BIG_AGENTS, replace=False)
    rows[1 + picks // interior, 1 + picks % interior] = ord("P")
    params = (f"k_S = 4.0\nk_P = 6.0\nk_W = 4.0\nr = 10\nmu = 0.3\n"
              f"seed = {int(rng.integers(1, 2**31))}\nmax_steps = {BIG_MAX_STEPS}\n")
    return params + "\n" + "\n".join(r.tobytes().decode("ascii") for r in rows) + "\n"


class BigRoom:
    """A generated room, cut off at a small max_steps.

    One repetition is one simulation, set-up included.  The room is sized
    so that a repetition takes well under a second: a run then times some
    twenty of them and twenty set-ups, where a 500x500 room allows four
    or five, and medians of so few samples move with a shared host's load.
    """

    name = "big_room"

    def __init__(self, root: Path, seed: int):
        self.seed_class = seed % POOL
        self.text = big_room_text(self.seed_class)
        sc = evacsim.scenario.parse_scenario(self.text)
        problems = evacsim.scenario.validate(sc, evacsim.floorfield.compute_sff(sc.grid))
        if problems:
            raise ValueError(f"generated big room is invalid: {problems[:3]}")
        self.info = {"grid": f"{sc.grid.height}x{sc.grid.width}",
                     "agents": len(sc.initial_agents),
                     "exits": sorted(sc.grid.exits), "max_steps": sc.params.max_steps,
                     "mu": sc.params.mu, "sim_seed": sc.params.seed}

    def describe(self) -> dict:
        return dict(self.info)

    def parts(self) -> list:
        return [self._simulate]

    def _simulate(self):
        sc = evacsim.scenario.parse_scenario(self.text)
        return evacsim.run(sc, snapshot_steps=(sc.params.max_steps,))

    def reduce(self, out) -> Outcome:
        (res,) = out
        h = hashlib.sha256()
        _feed_result(h, res)
        problems = []
        # stopping at max_steps is the expected end; the final occupancy
        # snapshot must be there either way
        if not any(t == self.info["max_steps"] for t, _ in res.snapshots):
            problems.append("no final occupancy snapshot")
        return Outcome(h.hexdigest()[:32], _agent_steps(res.curve), problems)


class CorridorSweep:
    """`evacsim sweep` over one-agent corridor runs, two worker processes.

    A repetition is `invocations` sweeps over consecutive slices of the
    seed list, each writing its own output tree under the benchmark's work
    directory in the checkout, so the result measures the checkout's
    filesystem and not a temp one.  Snapshots are off, so a task writes one
    file: with the default six (13 files a task) file creation took about
    half the wall time, and its speed, set by other users of a shared disk,
    spread ten runs' results by a third of their median.
    """

    name = "corridor_sweep"
    seeds_per_kp = 100
    invocations = 10
    workers = 2

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed_class = seed % POOL
        self.scenario = root / "scenarios" / "corridor30.txt"
        self.text = self.scenario.read_text(encoding="ascii")
        first = 1 + self.seed_class * self.seeds_per_kp
        self.sim_seeds = list(range(first, first + self.seeds_per_kp))
        self.work = work / "corridor_sweep"
        self.out_dir = self.work.relative_to(root)
        self.n = 0

    def describe(self) -> dict:
        return {"scenario": "scenarios/corridor30.txt", "sweep": "k_P=6,18",
                "snapshots": "none",
                "sim_seeds": f"{self.sim_seeds[0]}..{self.sim_seeds[-1]}",
                "tasks": 2 * len(self.sim_seeds), "invocations": self.invocations,
                "workers": self.workers,
                "out_dir": str(self.out_dir),
                "out_fs": fs_type(self.work)}

    def parts(self) -> list:
        self.n += 1
        k = len(self.sim_seeds) // self.invocations
        return [functools.partial(self._sweep, self.work / f"rep{self.n}" / f"part{i}",
                                  self.sim_seeds[i * k:(i + 1) * k])
                for i in range(self.invocations)]

    def _sweep(self, out: Path, seeds: list[int]):
        argv = ["sweep", "--scenario", str(self.scenario), "--out", str(out),
                "--sweep", "k_P=6,18", "--seeds", ",".join(map(str, seeds)),
                "--workers", str(self.workers), "--snapshot-steps", "none"]
        return evacsim.cli.main(argv), out

    def reduce(self, out) -> Outcome:
        problems = [f"evacsim sweep exited {code}" for code, _ in out if code != 0]
        tree = out[0][1].parent
        h = hashlib.sha256()
        files = size = steps = tasks = 0
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            data = path.read_bytes()
            h.update(path.relative_to(tree).as_posix().encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
            files += 1
            size += len(data)
            if path.name == "curve.csv":
                tasks += 1
                remaining = [int(line.split(",")[1]) for line in data.decode().splitlines()[1:]]
                steps += sum(remaining[:-1])
        shutil.rmtree(tree, ignore_errors=True)
        return Outcome(h.hexdigest()[:32], steps, problems, tasks, files, size)


def fs_type(path: Path) -> str:
    """Filesystem type of the mount that holds path, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


@contextlib.contextmanager
def work_dir(root: Path):
    """Scratch space in the checkout for CLI output trees and worker spools.

    One directory per process under root/.bench_work, removed on exit.
    """
    work = root / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass


def make(name: str, root: Path, seed: int, work: Path):
    if name == "room_batch":
        return RoomBatch(root, seed)
    if name == "big_room":
        return BigRoom(root, seed)
    if name == "corridor_sweep":
        return CorridorSweep(root, seed, work)
    raise KeyError(name)


WORKLOADS = ("room_batch", "big_room", "corridor_sweep")
