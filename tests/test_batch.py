"""engine.run_batch against per-run references stepped by the scalar oracle.

A lockstep batch shares one set-up and one distributions call per step
among its runs, but each run must get exactly what it gets alone: the
same curve, evacuation time, spread, snapshots and captured rows, and its
generator left in the same state.  oracle_run steps one run at a time with
oracles.oracle_step and records it the way engine.run documents, so the
batches below are checked against code that shares no step with them.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CROWD_RAYS, DRAW_PATHS, SCENARIO_DIR, make_scenario, random_grid
from evacsim import engine
from evacsim.engine import initial_state, run_batch
from evacsim.floorfield import compute_sff
from evacsim.metrics import SimulationResult, SpreadSample, lateral_offsets
from evacsim.scenario import ModelParams, Scenario, parse_scenario
from evacsim.transition import TransitionTables
from oracles import distributions_oracle, oracle_step

CORPUS = Path(__file__).parent / "data" / "corpus"


def oracle_run(scenario, snapshot_steps=(), capture_step=None):
    """One run stepped by oracle_step; returns (result, final generator state)."""
    grid, params = scenario.grid, scenario.params
    tables = TransitionTables(compute_sff(grid), grid, params)
    state = initial_state(scenario)
    offsets = lateral_offsets(grid)
    res = SimulationResult(curve=[], evac_time=None)
    while True:
        n = state.cells.size
        res.curve.append((state.step, n))
        if state.step in snapshot_steps:
            res.snapshots.append((state.step, state.occupancy.copy()))
        if offsets is not None and n:
            res.spread.append(SpreadSample(state.step, float(offsets[state.cells].mean())))
        if not n or state.step >= params.max_steps:
            break
        if state.step == capture_step:
            p, norm_zero = distributions_oracle(tables, state.occupancy, state.cells, params.k_p)
            res.captured += [(aid, cell, p[k], bool(norm_zero[k]))
                             for k, (aid, cell) in enumerate(state.agents)]
        state = oracle_step(state, grid, params, tables)
    if not state.cells.size:
        res.evac_time = state.step
        res.snapshots += [(t, state.occupancy.copy())
                          for t in sorted(set(snapshot_steps)) if t > state.step]
    return res, state.rngs[0].bit_generator.state


def batch_with_generators(monkeypatch, scenarios, **kw):
    """run_batch's results and, per run, its generator's final state."""
    states = []

    def recording(*scs):
        states.append(initial_state(*scs))
        return states[-1]

    monkeypatch.setattr(engine, "initial_state", recording)
    results = run_batch(scenarios, **kw)
    return results, [rng.bit_generator.state for s in states for rng in s.rngs]


def assert_batch_matches_oracle(monkeypatch, scenarios, snapshot_steps=(), capture_step=None):
    results, gens = batch_with_generators(monkeypatch, scenarios, snapshot_steps=snapshot_steps,
                                          capture_step=capture_step)
    assert len(results) == len(gens) == len(scenarios)
    for k, (sc, got, gen) in enumerate(zip(scenarios, results, gens)):
        want, want_gen = oracle_run(sc, snapshot_steps, capture_step)
        where = f"run {k} (seed {sc.params.seed})"
        assert got.curve == want.curve, where
        assert got.evac_time == want.evac_time, where
        assert got.spread == want.spread, where
        assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots], where
        for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
            assert a.shape == b.shape and np.array_equal(a, b), where
        assert [(aid, cell, p.tobytes(), nz) for aid, cell, p, nz in got.captured] == [
            (aid, cell, p.tobytes(), nz) for aid, cell, p, nz in want.captured], where
        assert gen == want_gen, where
    return results


def mixed(sc, runs):
    """sc once per (seed, k_p, mu, max_steps) in runs."""
    return [replace(sc, params=replace(sc.params, seed=s, k_p=k_p, mu=mu, max_steps=m))
            for s, k_p, mu, m in runs]


def test_paper_room_mixed_batch(monkeypatch):
    sc = parse_scenario((SCENARIO_DIR / "room37x33.txt").read_text())
    runs = [(1, 6.0, 0.0, 30), (2, 18.0, 0.3, 12), (3, 6.0, 0.5, 20)]
    assert_batch_matches_oracle(monkeypatch, mixed(sc, runs), snapshot_steps=(0, 12, 25, 400),
                                capture_step=5)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_bottleneck_runs_end_at_different_steps(monkeypatch):
    sc = parse_scenario((SCENARIO_DIR / "bottleneck2.txt").read_text())
    runs = [(1, 6.0, 0.0, 200), (2, 18.0, 0.5, 200), (3, 0.0, 1.0, 15), (4, 6.0, 0.3, 3)]
    results = assert_batch_matches_oracle(monkeypatch, mixed(sc, runs),
                                          snapshot_steps=(1, 3, 60, 500), capture_step=2)
    ends = {res.curve[-1][0] for res in results}
    assert len(ends) >= 3
    assert results[2].evac_time is None and results[2].curve[-1] == (15, 2)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.txt")) + ["corridor30"])
def test_corpus_room_mixed_batch(monkeypatch, name):
    path = CORPUS / f"{name}.txt" if name != "corridor30" else SCENARIO_DIR / "corridor30.txt"
    sc = parse_scenario(path.read_text())
    if name == "on_exit":
        sc = replace(sc, initial_agents=tuple(sorted(sc.initial_agents + tuple(sc.grid.exits))))
    runs = [(1, 0.0, 0.3, 60), (2, 6.0, 0.0, 25), (3, 18.0, 0.3, 40), (4, 6.0, 0.0, 7)]
    assert_batch_matches_oracle(monkeypatch, mixed(sc, runs), snapshot_steps=(0, 7, 30),
                                capture_step=3)


def test_agent_on_exit_and_sealed_agent_in_one_batch(monkeypatch):
    sc = make_scenario("#########\n#.#.P..E#\n###E#####", seed=5, max_steps=20)
    on_exit = Scenario(grid=sc.grid, initial_agents=((1, 4), (1, 7)), params=sc.params)
    sealed = Scenario(grid=sc.grid, initial_agents=((1, 1), (1, 4)),
                      params=replace(sc.params, seed=6, max_steps=12))
    alone = Scenario(grid=sc.grid, initial_agents=((1, 5),), params=replace(sc.params, seed=7))
    empty = Scenario(grid=sc.grid, initial_agents=(), params=replace(sc.params, seed=8))
    results = assert_batch_matches_oracle(monkeypatch, [on_exit, sealed, alone, empty],
                                          snapshot_steps=(0, 1, 30), capture_step=0)
    assert results[1].evac_time is None and results[1].curve[-1] == (12, 1)
    assert results[3].evac_time == 0 and results[3].captured == []


def test_groups_of_a_large_batch_match_oracle(monkeypatch):
    # a budget this small puts each run in a group of its own
    monkeypatch.setattr(engine, "_BATCH_CELLS", 1)
    sc = parse_scenario((SCENARIO_DIR / "bottleneck2.txt").read_text())
    runs = [(s, 6.0, 0.3, 40) for s in range(1, 5)]
    assert_batch_matches_oracle(monkeypatch, mixed(sc, runs), snapshot_steps=(10,))


@st.composite
def random_batches(draw, rs=st.integers(1, 10)):
    """One to four runs of a random enclosed room of up to 10 x 10 cells,
    each with its own crowd, seed, k_P, mu and max_steps, and one r drawn
    from rs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.tuples(st.integers(4, 10), st.integers(4, 10)))
    density = draw(st.floats(0.05, 0.9))
    r = draw(rs)
    runs = draw(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(0.0, 20.0),
                                   st.sampled_from([0.0, 0.3, 1.0]), st.integers(1, 30)),
                         min_size=1, max_size=4))
    grid = random_grid(rng, *shape, 0.2, int(rng.integers(1, 3)), enclosed=True)
    free = [(i, j) for i in range(shape[0]) for j in range(shape[1]) if not grid.walls[i, j]]
    scenarios = []
    for seed, k_p, mu, max_steps in runs:
        agents = tuple(cell for cell in free if rng.random() < density)
        params = ModelParams(k_s=4.0, k_p=k_p, k_w=4.0, r=r, mu=mu, seed=seed,
                             max_steps=max_steps)
        scenarios.append(Scenario(grid=grid, initial_agents=agents, params=params))
    return scenarios


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(scenarios=random_batches())
def test_random_room_batches_match_oracle(scenarios):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_batch_matches_oracle(monkeypatch, scenarios, snapshot_steps=(2, 40),
                                    capture_step=1)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(scenarios=random_batches())
def test_random_room_batches_match_oracle_on_the_split_path(scenarios):
    # these batches hold too few agents to split at the default constant
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine, "_SPLIT_DRAWS", DRAW_PATHS["always"])
        assert_batch_matches_oracle(monkeypatch, scenarios, snapshot_steps=(2, 40),
                                    capture_step=1)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["paper", "bottleneck"] + sorted(p.stem for p in CORPUS.glob("*.txt"))
                         + ["corridor30"])
def test_mixed_batches_on_the_split_path(monkeypatch, name):
    # the mixed batches above, which the default constant keeps on the
    # scan, with every step split
    monkeypatch.setattr(engine, "_SPLIT_DRAWS", DRAW_PATHS["always"])
    mixed_batch(monkeypatch, name)


def mixed_batch(monkeypatch, name):
    """The mixed batch test above that name picks."""
    if name == "paper":
        test_paper_room_mixed_batch(monkeypatch)
    elif name == "bottleneck":
        test_bottleneck_runs_end_at_different_steps(monkeypatch)
    else:
        test_corpus_room_mixed_batch(monkeypatch, name)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenarios=random_batches(st.sampled_from(CROWD_RAYS)))
def test_random_room_batches_match_oracle_under_each_crowd_sum(crowd_sum, scenarios):
    # the fixture's setting holds for every example
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_batch_matches_oracle(monkeypatch, scenarios, snapshot_steps=(2, 40),
                                    capture_step=1)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["paper", "bottleneck"] + sorted(p.stem for p in CORPUS.glob("*.txt"))
                         + ["corridor30"])
def test_mixed_batches_under_each_crowd_sum(crowd_sum, monkeypatch, name):
    # the mixed batches above with every distributions call on one crowd sum
    mixed_batch(monkeypatch, name)


def test_batch_step_with_no_drawing_agent(draw_path, monkeypatch):
    # a sealed agent and one on an exit: nobody draws on the first step
    sc = make_scenario("#########\n#.#.P..E#\n###E#####", seed=5, max_steps=4)
    sealed = Scenario(grid=sc.grid, initial_agents=((1, 1),), params=sc.params)
    on_exit = Scenario(grid=sc.grid, initial_agents=((1, 7), (2, 3)),
                       params=replace(sc.params, seed=6))
    results = assert_batch_matches_oracle(monkeypatch, [sealed, on_exit], capture_step=0)
    assert results[0].curve[-1] == (4, 1) and results[1].evac_time == 1


# agents walk straight at the exit, so dS = 1 occurs, and r = 1 leaves no
# wall term on a free neighbour: at k_S's bound the exponent reaches 708 (a
# few ulps above it, as the field's sums round)
STRAIGHT_ROOM = """
###########
#PPPPP....E
#PPPPP....E
#PPPPP....#
###########
"""


@pytest.mark.parametrize("runs", [1, 2])
def test_k_s_at_its_bound_matches_oracle(draw_path, monkeypatch, runs):
    sc = make_scenario(STRAIGHT_ROOM, k_S=708, k_P=708, k_W=708, r=1, mu=0.3, max_steps=60)
    tables = TransitionTables(compute_sff(sc.grid), sc.grid, sc.params)
    assert tables.static_expo.max() >= 708.0
    contested = []
    friction = engine._friction
    monkeypatch.setattr(engine, "_friction", lambda *a: contested.append(a) or friction(*a))
    results = assert_batch_matches_oracle(
        monkeypatch, [replace(sc, params=replace(sc.params, seed=s)) for s in range(1, runs + 1)],
        capture_step=0)
    assert contested
    for res in results:
        assert res.captured and all(np.isfinite(p).all() for _, _, p, _ in res.captured)


@pytest.mark.parametrize("constant, rooms, path", [
    (4, ["spaced"], "split"), (5, ["spaced"], "scan"),
    (4, ["spaced", "spaced"], "split"),
    # the stack holds 8 safe agents, but only 4 per room
    (5, ["spaced", "spaced"], "scan"),
    # a room without drawing agents does not count
    (4, ["spaced", "on_exit"], "split"),
], ids=["one_room_split", "one_room_scan", "two_rooms_split", "two_rooms_scan",
        "idle_room_uncounted"])
def test_split_counts_safe_agents_per_room(monkeypatch, constant, rooms, path):
    # four agents, none next to another, are all safe on the first step
    sc = make_scenario("#########\n#P.P.P.P#\n#.......#\n####E####", seed=3, max_steps=1)
    agents = {"spaced": sc.initial_agents, "on_exit": ((3, 4),)}
    scenarios = [Scenario(grid=sc.grid, initial_agents=agents[room],
                          params=replace(sc.params, seed=3 + k)) for k, room in enumerate(rooms)]
    monkeypatch.setattr(engine, "_SPLIT_DRAWS", constant)
    taken = []
    for name, draws in (("split", engine._split_draws), ("scan", engine._scan_draws)):
        monkeypatch.setattr(engine, f"_{name}_draws",
                            lambda *args, name=name, draws=draws: taken.append(name) or draws(*args))
    assert_batch_matches_oracle(monkeypatch, scenarios)
    assert taken == [path]


class BlockSizes:
    """Stands in for a generator and records the size of each block of
    uniforms it hands out."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None):
        if size is not None:
            self.sizes.append(size)
        return self.rng.random(size)


def test_large_sparse_room_at_the_default_constant(monkeypatch):
    # a 140 x 140 room with about 2.5 % of its free cells taken, plus a
    # dense block on its bottom rows whose agents redraw; at the default
    # constant its steps draw through _split_draws
    rng = np.random.default_rng(1)
    grid = random_grid(rng, 140, 140, 0.02, 3, enclosed=True)
    free = np.argwhere(grid.walls == 0)
    agents = {(int(i), int(j)) for i, j in free[rng.random(len(free)) < 0.025]}
    agents |= {(i, j) for i in range(133, 139) for j in range(1, 12) if not grid.walls[i, j]}
    params = ModelParams(k_s=4.0, k_p=6.0, k_w=4.0, r=10, mu=0.3, seed=1, max_steps=15)
    sc = Scenario(grid=grid, initial_agents=tuple(sorted(agents - grid.exits)), params=params)

    # per run and step that drew through _split_draws: (blocks drawn,
    # second draws, whether the run's last drawing agent is a safe one)
    drawn = []
    split = engine._split_draws

    def recording(state, p, free, drawing, risky, starts, size):
        gens = [BlockSizes(g) for g in state.rngs]
        moves = split(replace(state, rngs=gens), p, free, drawing, risky, starts, size)
        for s, gen in enumerate(gens):
            n = starts[s + 1] - starts[s]
            drawn.append((len(gen.sizes), sum(gen.sizes) - n, starts[s + 1] - 1 not in risky))
        return moves

    monkeypatch.setattr(engine, "_split_draws", recording)
    assert_batch_matches_oracle(monkeypatch, [sc])
    assert_batch_matches_oracle(monkeypatch, [sc, replace(sc, params=replace(params, seed=2))])
    assert drawn
    # safe agents after a redraw, whose first draws sit one place later
    assert any(seconds and last_safe for _, seconds, last_safe in drawn)
    # a block extended inside the scan: besides the first block and the
    # one for the safe agents after the last risky one
    assert any(blocks >= 3 for blocks, _, _ in drawn)


R3, R10, KS2, KW0 = {"r": 3}, {"r": 10}, {"k_s": 2.0}, {"k_w": 0.0}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "path, setups, starts, budget",
    [(SCENARIO_DIR / "room37x33.txt", [R3, R3, R10, R3], [0, 2, 3], None),
     (SCENARIO_DIR / "room37x33.txt", [KS2, KS2, KW0, KW0], [0, 2], None),
     (CORPUS / "serpentine.txt", [R3, {**R3, **KS2}, R10, R3], [0, 1, 2, 3], None),
     (CORPUS / "serpentine.txt", [KW0, KW0, KW0, R3, R3], [0, 3], 1)],
    ids=["paper_interleaved", "paper_contiguous", "serpentine_interleaved",
         "serpentine_groups"],
)
def test_mixed_setups_in_one_batch(monkeypatch, path, setups, starts, budget):
    # run k takes setups[k]; starts: the runs that begin a stretch of one
    # (k_S, k_W, r); a budget of 1 cell also puts each run of a stretch in
    # a memory group of its own
    if budget is not None:
        monkeypatch.setattr(engine, "_BATCH_CELLS", budget)
    sc = parse_scenario(path.read_text())
    runs = [(1, 6.0, 0.0, 9), (2, 18.0, 0.3, 6), (3, 6.0, 0.5, 12), (4, 0.0, 0.3, 7),
            (5, 6.0, 0.0, 8)]
    scenarios = [replace(s, params=replace(s.params, **setup))
                 for s, setup in zip(mixed(sc, runs), setups)]
    built = []
    monkeypatch.setattr(engine, "compute_sff",
                        lambda grid: built.append("field") or compute_sff(grid))
    monkeypatch.setattr(engine, "TransitionTables",
                        lambda field, grid, params: built.append(params)
                        or TransitionTables(field, grid, params))
    assert_batch_matches_oracle(monkeypatch, scenarios, snapshot_steps=(0, 5, 30),
                                capture_step=3)
    assert built == ["field"] + [scenarios[k].params for k in starts]


def test_mixed_grids_raise():
    sc = parse_scenario((SCENARIO_DIR / "corridor30.txt").read_text())
    other = parse_scenario((SCENARIO_DIR / "bottleneck2.txt").read_text())
    with pytest.raises(ValueError, match="one grid"):
        run_batch([sc, replace(other, params=sc.params)])
    # an equal grid built apart from the first is the same room
    twin = parse_scenario((SCENARIO_DIR / "corridor30.txt").read_text())
    assert twin.grid is not sc.grid
    assert [r.curve for r in run_batch([sc, twin])] == [run_batch([sc])[0].curve] * 2


def test_empty_batch_gives_no_results():
    assert run_batch([]) == []
