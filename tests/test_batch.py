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
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_scenario, random_grid
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


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(
    room_seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(4, 10), st.integers(4, 10)),
    density=st.floats(0.05, 0.9),
    r=st.integers(1, 10),
    runs=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(0.0, 20.0),
                            st.sampled_from([0.0, 0.3, 1.0]), st.integers(1, 30)),
                  min_size=1, max_size=4),
)
def test_random_room_batches_match_oracle(room_seed, shape, density, r, runs):
    rng = np.random.default_rng(room_seed)
    grid = random_grid(rng, *shape, 0.2, int(rng.integers(1, 3)), enclosed=True)
    free = [(i, j) for i in range(shape[0]) for j in range(shape[1]) if not grid.walls[i, j]]
    scenarios = []
    for seed, k_p, mu, max_steps in runs:
        agents = tuple(cell for cell in free if rng.random() < density)
        params = ModelParams(k_s=4.0, k_p=k_p, k_w=4.0, r=r, mu=mu, seed=seed,
                             max_steps=max_steps)
        scenarios.append(Scenario(grid=grid, initial_agents=agents, params=params))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_batch_matches_oracle(monkeypatch, scenarios, snapshot_steps=(2, 40),
                                    capture_step=1)


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
