import copy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, random_grid, src_env
from evacsim.engine import initial_state, run, step
from evacsim.floorfield import compute_sff
from evacsim.metrics import render_snapshot
from evacsim.scenario import DIR_OFFSETS, Grid, ModelParams, Scenario, parse_scenario, place
from evacsim.transition import TransitionTables
from oracles import (
    Proposal,
    TransitionDistribution,
    choose_target,
    draw_direction,
    in_bounds,
    placement_oracle,
    resolve_conflicts,
)

DATA = Path(__file__).parent / "data"
REPO_ROOT = Path(__file__).resolve().parent.parent


def searchsorted_twin(p, us):
    """Vectorized counterpart of the reference scalar draw."""
    cum = np.cumsum(p)
    picks = np.searchsorted(cum, us, side="right")
    if (picks >= 4).any():
        last = max(d for d in range(4) if p[d] > 0.0)
        picks = np.where(picks >= 4, last, picks)
    return picks


def test_draw_direction_matches_vectorized_twin():
    rng = np.random.default_rng(42)
    for _ in range(50):
        raw = rng.random(4) * (rng.random(4) < 0.8)
        if raw.sum() == 0.0:
            continue
        p = raw / raw.sum()
        us = rng.random(2000)
        scalar = np.array([draw_direction(p, float(u)) for u in us])
        assert np.array_equal(scalar, searchsorted_twin(p, us))


def test_draw_direction_never_picks_zero_bin():
    p = np.array([0.5, 0.0, 0.5, 0.0])
    rng = np.random.default_rng(7)
    for u in rng.random(1000):
        assert draw_direction(p, float(u)) in (0, 2)
    assert draw_direction(p, 0.5) == 2  # boundary lands in the next bin


def test_choose_target_norm_zero_stays_without_randomness():
    rng = np.random.default_rng(1)
    before = copy.deepcopy(rng.bit_generator.state)
    dist = TransitionDistribution(p=np.zeros(4), norm_zero=True)
    prop = choose_target(3, (2, 2), dist, np.zeros((5, 5), dtype=np.uint8), rng)
    assert prop == Proposal(3, (2, 2), (2, 2))
    assert rng.bit_generator.state == before


def test_choose_target_moves_to_empty_cell():
    rng = np.random.default_rng(2)
    dist = TransitionDistribution(p=np.array([0.0, 1.0, 0.0, 0.0]), norm_zero=False)
    occ = np.zeros((3, 3), dtype=np.uint8)
    occ[1, 1] = 1
    prop = choose_target(0, (1, 1), dist, occ, rng)
    assert prop.target == (1, 2)


def test_choose_target_all_neighbors_occupied_stays():
    rng = np.random.default_rng(3)
    occ = np.ones((3, 3), dtype=np.uint8)
    dist = TransitionDistribution(p=np.array([0.25, 0.25, 0.25, 0.25]), norm_zero=False)
    for _ in range(200):
        prop = choose_target(0, (1, 1), dist, occ, rng)
        assert prop.target == (1, 1)


def test_choose_target_patience_redistribution_frequencies():
    # up and right empty, down and left occupied: the second draw keeps the
    # empty directions at their original mass and stays with the rest
    rng = np.random.default_rng(11)
    occ = np.zeros((3, 3), dtype=np.uint8)
    occ[1, 1] = 1
    occ[2, 1] = 1  # down occupied
    occ[1, 0] = 1  # left occupied
    p = np.array([0.1, 0.2, 0.3, 0.4])
    dist = TransitionDistribution(p=p, norm_zero=False)
    n = 40000
    counts = {"up": 0, "right": 0, "stay": 0}
    for _ in range(n):
        t = choose_target(0, (1, 1), dist, occ, rng).target
        if t == (0, 1):
            counts["up"] += 1
        elif t == (1, 2):
            counts["right"] += 1
        elif t == (1, 1):
            counts["stay"] += 1
        else:
            raise AssertionError(f"illegal target {t}")
    # exact law: the first draw hits an occupied direction w.p. .7 and then
    # the second draw keeps empty dirs at original mass, so
    # P(up) = .1 + .7*.1, P(right) = .2 + .7*.2, P(stay) = .7*.7
    for key, want in (("up", 0.17), ("right", 0.34), ("stay", 0.49)):
        sigma = (n * want * (1 - want)) ** 0.5
        assert abs(counts[key] - n * want) <= 4 * sigma, (key, counts)


def test_resolve_conflicts_single_proposer_always_moves():
    rng = np.random.default_rng(5)
    props = [Proposal(0, (1, 1), (1, 2))]
    for mu in (0.0, 0.5, 1.0):
        assert resolve_conflicts(props, mu, rng) == props


def test_resolve_conflicts_stay_proposals_untouched():
    rng = np.random.default_rng(6)
    props = [Proposal(0, (1, 1), (1, 1)), Proposal(1, (2, 2), (2, 2))]
    assert resolve_conflicts(props, 0.0, rng) == []


def test_resolve_conflicts_mu_edge_semantics():
    props = [Proposal(0, (1, 1), (1, 2)), Proposal(1, (1, 3), (1, 2))]
    rng = np.random.default_rng(8)
    for _ in range(100):
        assert resolve_conflicts(props, 1.0, rng) == []
    winners = {resolve_conflicts(props, 0.0, rng)[0].agent for _ in range(100)}
    assert winners == {0, 1}


def test_resolve_conflicts_raster_order_is_deterministic():
    # two conflict groups; the (0, 5) group must consume randomness first
    props = [
        Proposal(0, (1, 5), (0, 5)),
        Proposal(1, (0, 4), (0, 5)),
        Proposal(2, (2, 0), (2, 1)),
        Proposal(3, (2, 2), (2, 1)),
    ]
    a = resolve_conflicts(props, 0.0, np.random.default_rng(123))
    b = resolve_conflicts(props, 0.0, np.random.default_rng(123))
    assert a == b
    assert [p.target for p in a] == [(0, 5), (2, 1)]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_step_vacated_cell_not_enterable_same_step():
    # front agent leaves, back agent still sees the frozen snapshot and
    # must not slide into the vacated cell this step
    sc = make_scenario("######\n#E.PP#\n######", k_S="100.0", k_W="100.0")
    field = compute_sff(sc.grid)
    state = initial_state(sc)
    out = step(state, sc.grid, TransitionTables(field, sc.grid, sc.params))
    cells = {cell for _, cell in out.agents}
    assert cells == {(1, 2), (1, 4)}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_step_agent_reaching_exit_removed_same_step():
    sc = make_scenario("####\n#PE#\n####", k_S="100.0", k_W="100.0")
    field = compute_sff(sc.grid)
    state = initial_state(sc)
    out = step(state, sc.grid, TransitionTables(field, sc.grid, sc.params))
    assert out.agents == []
    assert out.occupancy.sum() == 0


def test_step_agent_starting_on_exit_removed():
    sc = make_scenario("####\n#.E#\n####")
    bad = Scenario(grid=sc.grid, initial_agents=((1, 2),), params=sc.params)
    state = initial_state(bad)
    field = compute_sff(sc.grid)
    out = step(state, sc.grid, TransitionTables(field, sc.grid, sc.params))
    assert out.agents == [] and out.step == 1


@pytest.mark.parametrize(
    "agents, message",
    [
        (((1, -1),), r"agent out of bounds at \(1, -1\)"),  # would wrap to a wall cell
        (((1, 40),), r"agent out of bounds at \(1, 40\)"),
        (((0, 0),), r"agent on wall at \(0, 0\)"),
        (((1, 3), (1, 5), (1, 5)), r"cell occupied twice at \(1, 5\)"),
        (((1.7, 5),), r"agent at \(1.7, 5\) is not two integers"),
        (((True, 5),), r"agent at \(True, 5\) is not two integers"),
    ],
    ids=["negative_column", "past_last_column", "wall", "occupied", "float", "bool"],
)
def test_initial_state_rejects_agents_it_cannot_place(agents, message):
    sc = parse_scenario((REPO_ROOT / "scenarios" / "corridor30.txt").read_text())
    bad = replace(sc, initial_agents=agents)
    with pytest.raises(ValueError, match=message):
        initial_state(bad)
    with pytest.raises(ValueError, match=message):
        run(bad)


@st.composite
def rooms_with_agents(draw):
    """A small wall-enclosed room and agent cells from two cells around it,
    with interior walls, cells off the grid and repeats."""
    h, w = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    walls = np.ones((h, w), dtype=np.uint8)
    inner = draw(st.lists(st.sampled_from((0, 0, 0, 1)), min_size=(h - 2) * (w - 2),
                          max_size=(h - 2) * (w - 2)))
    walls[1:-1, 1:-1] = np.array(inner, dtype=np.uint8).reshape(h - 2, w - 2)
    cell = (st.tuples(st.integers(1, h - 2), st.integers(1, w - 2))
            | st.tuples(st.integers(-2, h + 1), st.integers(-2, w + 1)))
    agents = draw(st.lists(cell, max_size=8))
    if agents:
        agents = draw(st.permutations(agents + draw(st.lists(st.sampled_from(agents), max_size=3))))
    return Grid(height=h, width=w, walls=walls, exits=frozenset()), tuple(agents)


@settings(max_examples=300, deadline=None)
@given(rooms_with_agents())
def test_place_agrees_with_oracle_and_initial_state(room):
    grid, agents = room
    flat, problems = place(grid.walls, agents)
    assert problems == placement_oracle(grid, agents)
    sc = replace(make_scenario("###\n#E#\n###"), grid=grid, initial_agents=agents)
    if problems:
        with pytest.raises(ValueError) as info:
            initial_state(sc)
        assert str(info.value) == problems[0]
    else:
        want = [i * grid.width + j for i, j in agents]
        assert flat.dtype == np.int64 and flat.tolist() == want
        assert initial_state(sc).cells.tolist() == want


def test_step_raises_on_occupancy_desync():
    # a person in the occupancy who is not in the agent list must be
    # reported, also under python -O, which strips assert statements
    sc = make_scenario("#######\n#P...E#\n#.....#\n#######", seed=3)
    state = initial_state(sc)
    state.occupancy[2, 3] = 1
    with pytest.raises(RuntimeError, match="occupancy holds 2 people, agent list 1"):
        step(state, sc.grid, TransitionTables(compute_sff(sc.grid), sc.grid, sc.params))
    if not sys.flags.optimize:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{Path(__file__).resolve()}::test_step_raises_on_occupancy_desync"],
            capture_output=True, text=True, cwd=REPO_ROOT, env=src_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_step_empty_room_only_increments():
    sc = make_scenario("####\n#.E#\n####")
    state = initial_state(sc)
    field = compute_sff(sc.grid)
    out = step(state, sc.grid, TransitionTables(field, sc.grid, sc.params))
    assert out.step == 1 and out.agents == []
    assert np.array_equal(out.occupancy, state.occupancy)


def test_sealed_agent_never_moves():
    sc = make_scenario("#####\n#.#E#\n#####")
    locked = Scenario(grid=sc.grid, initial_agents=((1, 1),), params=sc.params)
    res = run(replace(locked, params=replace(sc.params, max_steps=25)))
    assert res.evac_time is None
    assert all(n == 1 for _, n in res.curve)


def test_run_zero_agents_evac_time_zero():
    sc = make_scenario("####\n#.E#\n####")
    res = run(sc)
    assert res.evac_time == 0
    assert res.curve == [(0, 0)]


def test_run_same_seed_bit_identical():
    sc = make_scenario(
        """
        ##########
        #P.P..P.E#
        #..P...P.#
        #P....P..#
        ##########
        """,
        seed=9,
    )
    a = run(sc, snapshot_steps=(3, 5))
    b = run(sc, snapshot_steps=(3, 5))
    assert a.curve == b.curve
    assert a.evac_time == b.evac_time
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a.snapshots, b.snapshots))
    assert [(s.step, s.value) for s in a.spread] == [(s.step, s.value) for s in b.spread]


def test_run_different_seeds_differ():
    sc = make_scenario(
        """
        ##########
        #P.P..P.E#
        #..P...P.#
        #P....P..#
        ##########
        """
    )
    a = run(replace(sc, params=replace(sc.params, seed=1)))
    b = run(replace(sc, params=replace(sc.params, seed=2)))
    assert a.curve != b.curve or a.evac_time != b.evac_time


def test_run_conservation_invariants_stepwise():
    sc = make_scenario(
        """
        ###########
        #P.P..P.#E#
        #..P...P..#
        #P....P..##
        ###########
        """,
        seed=4,
    )
    field = compute_sff(sc.grid)
    state = initial_state(sc)
    tables = TransitionTables(field, sc.grid, sc.params)
    prev = dict(state.agents)
    count = len(state.agents)
    for _ in range(40):
        state = step(state, sc.grid, tables)
        assert len(state.agents) <= count
        count = len(state.agents)
        assert int(state.occupancy.sum()) == count
        assert (state.occupancy <= 1).all()
        now = dict(state.agents)
        for aid, cell in now.items():
            pi, pj = prev[aid]
            assert abs(cell[0] - pi) + abs(cell[1] - pj) <= 1
        prev = now
        if not state.agents:
            break


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(
    room_seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(4, 14), st.integers(4, 14)),
    wall_frac=st.floats(0.0, 0.3),
    density=st.floats(0.05, 0.9),
    k_s=st.floats(0.0, 8.0),
    k_p=st.floats(0.0, 20.0),
    k_w=st.floats(0.0, 8.0),
    r=st.integers(1, 10),
    mu=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_rooms_conserve_agents(room_seed, shape, wall_frac, density, k_s, k_p, k_w, r,
                                      mu, seed):
    """At every step each agent holds one occupied cell and nobody else
    does; survivors moved at most one orthogonal cell, and whoever left
    stood on an exit: one it was on, or a free one next to it."""
    rng = np.random.default_rng(room_seed)
    h, w = shape
    grid = random_grid(rng, h, w, wall_frac, int(rng.integers(1, 4)), enclosed=True)
    free = [(i, j) for i in range(h) for j in range(w) if not grid.walls[i, j]]
    agents = tuple(cell for cell in free if rng.random() < density)
    params = ModelParams(k_s=k_s, k_p=k_p, k_w=k_w, r=r, mu=mu, seed=seed, max_steps=40)
    tables = TransitionTables(compute_sff(grid), grid, params)
    on_exit = grid.exit_mask
    state = initial_state(Scenario(grid=grid, initial_agents=agents, params=params))
    prev = None
    while True:
        occ, ids, cells = state.occupancy, state.ids, state.cells
        assert (occ.reshape(-1)[cells] == 1).all() and int(occ.sum()) == cells.size
        assert (np.diff(ids) > 0).all()
        if prev is not None:
            for aid, c in zip(ids.tolist(), cells.tolist()):
                (i, j), (pi, pj) = divmod(c, w), divmod(prev[aid], w)
                assert abs(i - pi) + abs(j - pj) <= 1
            assert not on_exit.reshape(-1)[cells].any()
            for aid in prev.keys() - set(ids.tolist()):
                i, j = divmod(prev[aid], w)
                reach = [(i + di, j + dj) for di, dj in DIR_OFFSETS]
                assert on_exit[i, j] or any(
                    in_bounds(grid, c) and on_exit[c] and not prev_occ[c] for c in reach
                )
        if not cells.size or state.step == params.max_steps:
            break
        prev, prev_occ = dict(zip(ids.tolist(), cells.tolist())), occ
        state = step(state, grid, tables)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_snapshot_padding_only_when_complete():
    sc = make_scenario("######\n#P..E#\n######", k_S="100.0", k_W="100.0")
    res = run(sc, snapshot_steps=(50, 80))
    assert res.evac_time is not None and res.evac_time < 50
    assert [t for t, _ in res.snapshots] == [50, 80]
    assert all(occ.sum() == 0 for _, occ in res.snapshots)
    stuck = make_scenario("#####\n#.#E#\n#####")
    stuck = Scenario(grid=stuck.grid, initial_agents=((1, 1),),
                     params=replace(stuck.params, max_steps=10))
    res2 = run(stuck, snapshot_steps=(50,))
    assert res2.evac_time is None and res2.snapshots == []


def test_capture_step_distributions():
    sc = make_scenario("######\n#P.PE#\n######", seed=2)
    res = run(sc, capture_step=0)
    assert len(res.captured) == 2
    for aid, cell, p, norm_zero in res.captured:
        assert not norm_zero
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_golden_room_snapshot_and_curve():
    sc = parse_scenario((Path(__file__).parent.parent / "scenarios" / "room37x33.txt").read_text())
    res = run(sc, snapshot_steps=(25,))
    want = (DATA / "room37x33_s1_t25.txt").read_text()
    got, _ = render_snapshot(res.snapshots[0][1], sc.grid)
    assert got == want
    frozen = eval((DATA / "room37x33_s1_meta.py").read_text())
    assert res.evac_time == frozen["evac_time"]
    assert res.curve[: len(frozen["curve_head"])] == frozen["curve_head"]
