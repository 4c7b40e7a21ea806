"""engine.step against the scalar reference step, one step at a time.

The array kernel must make the same moves and leave the generator in the
same state as oracles.oracle_step after every step, which is what ties the
direct tests of the reference pieces (test_engine, criterion 6) to the
engine.
"""

import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CROWD_RAYS, DRAW_PATHS, make_scenario, random_grid
from evacsim import engine
from evacsim.engine import SimulationState, initial_state, step
from evacsim.floorfield import compute_sff
from evacsim.scenario import Cell, ModelParams, Scenario, parse_scenario
from evacsim.transition import TransitionTables
from oracles import distributions_oracle, oracle_step

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def lockstep(scenario: Scenario, max_steps: int | None = None, rng_prep=None) -> list:
    """Run engine and oracle side by side from equal states; returns the
    engine's states.  rng_prep(rng) may touch both generators first.

    Before each step the fused distributions must equal the per-direction
    ones bit for bit, since a last-bit change rarely flips a draw."""
    grid, params = scenario.grid, scenario.params
    field = compute_sff(grid)
    tables = TransitionTables(field, grid, params)
    a, b = initial_state(scenario), initial_state(scenario)
    if rng_prep is not None:
        rng_prep(a.rngs[0])
        rng_prep(b.rngs[0])
    limit = params.max_steps if max_steps is None else max_steps
    states = [a]
    w = grid.width
    while a.agents and a.step < limit:
        cells = np.array([i * w + j for _, (i, j) in a.agents], dtype=np.int64)
        fused = tables.distributions(a.occupancy, cells, params.k_p)
        split = distributions_oracle(tables, a.occupancy, cells, params.k_p)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(fused, split)), (
            f"distributions differ before step {a.step + 1}"
        )
        a = step(a, grid, tables)
        b = oracle_step(b, grid, params, tables)
        assert a.agents == b.agents, f"agents differ after step {a.step}"
        assert np.array_equal(a.occupancy, b.occupancy), f"occupancy differs after step {a.step}"
        assert a.rngs[0].bit_generator.state == b.rngs[0].bit_generator.state, (
            f"generator state differs after step {a.step}"
        )
        assert a.step == b.step
        states.append(a)
    return states


def _with(scenario: Scenario, **kw) -> Scenario:
    return replace(scenario, params=replace(scenario.params, **kw))


@pytest.mark.parametrize("mu", [0.0, 0.3])
@pytest.mark.parametrize("k_p", [6.0, 18.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paper_room_matches_oracle(seed, k_p, mu):
    sc = parse_scenario((SCENARIOS / "room37x33.txt").read_text())
    states = lockstep(_with(sc, seed=seed, k_p=k_p, mu=mu))
    assert not states[-1].agents


def test_bottleneck_with_friction_matches_oracle():
    sc = parse_scenario((SCENARIOS / "bottleneck2.txt").read_text())
    lockstep(_with(sc, mu=0.5))


def test_corridor_matches_oracle():
    sc = parse_scenario((SCENARIOS / "corridor30.txt").read_text())
    for seed in (1, 2, 3):
        states = lockstep(_with(sc, seed=seed))
        assert not states[-1].agents


def test_agent_starting_on_exit_matches_oracle():
    sc = make_scenario("######\n#.P.E#\n######", seed=3)
    on_exit = Scenario(grid=sc.grid, initial_agents=((1, 2), (1, 4)), params=sc.params)
    states = lockstep(on_exit)
    assert all(aid != 1 for aid, _ in states[1].agents)


def test_sealed_agent_draws_nothing():
    sc = make_scenario("#######\n#.#.P.#\n###E###", seed=5, max_steps=20)
    sealed = Scenario(grid=sc.grid, initial_agents=((1, 1), (1, 4)), params=sc.params)
    states = lockstep(sealed)
    assert all((0, (1, 1)) in s.agents for s in states)
    # the sealed agent consumes no draws: the stream matches a room without it
    alone = lockstep(Scenario(grid=sc.grid, initial_agents=((1, 4),), params=sc.params))
    assert states[-1].rngs[0].bit_generator.state == alone[-1].rngs[0].bit_generator.state


@pytest.mark.parametrize("seed", range(1, 6))
def test_surrounded_agent_redraws_then_stays(seed):
    sc = make_scenario(
        """
        #######
        #..P..#
        #.PPP.#
        #..P..#
        #.....#
        ###E###
        """,
        seed=seed,
    )
    states = lockstep(sc, max_steps=1)
    assert (2, (2, 3)) in states[1].agents  # agent 2 is the one in the middle


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_three_contenders_for_one_cell(mu):
    sc = make_scenario(
        """
        #####
        ##P##
        #P.P#
        ##.##
        ##E##
        """,
        mu=mu,
    )
    # each agent's only open direction is the middle cell (2, 2)
    outcomes = []
    for seed in range(1, 31):
        states = lockstep(_with(sc, seed=seed), max_steps=1)
        moved = [aid for aid, cell in states[1].agents if cell == (2, 2)]
        assert len(moved) <= 1
        outcomes.append(moved[0] if moved else None)
    if mu == 0.0:
        assert set(outcomes) == {0, 1, 2}
    else:
        assert None in outcomes and len(set(outcomes)) > 1


def test_pending_32bit_draw_survives_the_step():
    sc = parse_scenario((SCENARIOS / "bottleneck2.txt").read_text())

    def half_word(rng):
        rng.integers(0, 10, dtype=np.uint32)  # leaves half a 64-bit word buffered

    states = lockstep(_with(sc, mu=0.5), max_steps=30, rng_prep=half_word)
    assert states[-1].rngs[0].bit_generator.state["has_uint32"] == 1


@st.composite
def random_rooms(draw, rs=st.integers(1, 10)):
    """A random enclosed room of up to 14 x 14 cells with a random crowd
    and random parameters (r drawn from rs), run for up to 40 steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(4, 14)), draw(st.integers(4, 14))
    grid = random_grid(rng, h, w, draw(st.floats(0.0, 0.3)), int(rng.integers(1, 4)),
                       enclosed=True)
    # agents in sealed pockets included: they have norm_zero and never draw
    density = draw(st.floats(0.05, 0.9))
    free = [(i, j) for i in range(h) for j in range(w) if not grid.walls[i, j]]
    agents = tuple(cell for cell in free if rng.random() < density)
    params = ModelParams(k_s=draw(st.floats(0.0, 8.0)), k_p=draw(st.floats(0.0, 20.0)),
                         k_w=draw(st.floats(0.0, 8.0)), r=draw(rs),
                         mu=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
                         seed=draw(st.integers(0, 2**32 - 1)), max_steps=40)
    return Scenario(grid=grid, initial_agents=agents, params=params)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(scenario=random_rooms())
def test_random_rooms_match_oracle(scenario):
    lockstep(scenario)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(scenario=random_rooms())
def test_random_rooms_match_oracle_on_the_split_path(scenario):
    # these rooms hold too few agents to split at the default constant
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine, "_SPLIT_DRAWS", DRAW_PATHS["always"])
        lockstep(scenario)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=random_rooms(st.sampled_from(CROWD_RAYS)))
def test_random_rooms_match_oracle_under_each_crowd_sum(crowd_sum, scenario):
    # the fixture's setting holds for every example
    lockstep(scenario)


def test_step_with_no_drawing_agent(draw_path):
    # a sealed agent and one on an exit: nobody draws on the first step,
    # and only the sealed agent is left for the others
    sc = make_scenario("#######\n#.#.P.#\n###E###", seed=5, max_steps=3)
    states = lockstep(Scenario(grid=sc.grid, initial_agents=((1, 1), (2, 3)),
                               params=sc.params))
    assert [s.agents for s in states] == [[(0, (1, 1)), (1, (2, 3))]] + [[(0, (1, 1))]] * 3
    fresh = np.random.Generator(np.random.PCG64(5)).bit_generator.state
    assert states[-1].rngs[0].bit_generator.state == fresh


class QueuedUniforms:
    """Stands in for the generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def rounded_total_moves(neighbour: bool) -> tuple[Cell, list]:
    """A cell next to the west wall whose four probabilities add up to a
    hair under 1, with down the last positive direction; with neighbour,
    the cell above it holds an agent and up keeps a positive p, so the
    agent is one that may redraw.  Returns the cell and the agents after
    one step from engine.step and from oracle_step, with every uniform the
    largest double below 1, which lands past the rounded total."""
    sc = parse_scenario((SCENARIOS / "room37x33.txt").read_text())
    grid = sc.grid
    field = compute_sff(grid)
    tables = TransitionTables(field, grid, sc.params)
    w = grid.width
    for (i, j) in sorted(set(zip(*np.nonzero(grid.walls == 0))) - grid.exits):
        occ = np.zeros((grid.height, w), dtype=np.uint8)
        occ[i, j] = 1
        if neighbour:
            if grid.walls[i - 1, j] or (i - 1, j) in grid.exits:
                continue
            occ[i - 1, j] = 1
        p, _ = tables.distributions(occ, np.array([i * w + j]), sc.params.k_p)
        total = 0.0
        for d in range(4):
            total += p[0, d]
        if total < 1.0 and p[0, 3] == 0.0 and p[0, 2] > 0.0 and (p[0, 0] > 0.0 or not neighbour):
            break
    else:
        pytest.fail("no cell with a rounded-down total next to a west wall")
    cell = (int(i), int(j))
    agents = ((cell[0] - 1, cell[1]), cell) if neighbour else (cell,)
    top = float(np.nextafter(1.0, 0.0))
    moved = []
    for advance in (lambda st: step(st, grid, tables),
                    lambda st: oracle_step(st, grid, sc.params, tables)):
        state = initial_state(Scenario(grid=grid, initial_agents=agents, params=sc.params))
        state.rngs = [QueuedUniforms([top] * 8)]
        moved.append(advance(state).agents)
    assert moved[0] == moved[1]
    return cell, moved[0]


def test_draw_past_rounded_total_takes_last_positive_direction():
    cell, moved = rounded_total_moves(neighbour=False)
    assert moved == [(0, (cell[0] + 1, cell[1]))]  # down, the last positive


@pytest.mark.parametrize("path, neighbour", [("always", False), ("always", True),
                                             ("never", True)])
def test_draw_past_rounded_total_on_each_draw_path(monkeypatch, path, neighbour):
    # the test above is the "never" path without the neighbour
    monkeypatch.setattr(engine, "_SPLIT_DRAWS", DRAW_PATHS[path])
    cell, moved = rounded_total_moves(neighbour)
    assert (int(neighbour), (cell[0] + 1, cell[1])) in moved


def first_step_rows(sc: Scenario):
    """sc's state at step 0 with p, free and the drawing agents of its first
    step, built as engine.step builds them for one room."""
    tables = TransitionTables(compute_sff(sc.grid), sc.grid, sc.params)
    state = initial_state(sc)
    p, norm_zero = tables.distributions(state.occupancy, state.cells, sc.params.k_p)
    nbr = tables.nbr.take(state.cells, axis=1)
    free = np.where(state.occupancy.reshape(-1)[nbr] != 0, -1, nbr).T
    drawing = np.flatnonzero(~(norm_zero | sc.grid.exit_mask.reshape(-1)[state.cells]))
    return state, p, free, drawing


def split_and_scan(state, p, free, drawing, size) -> tuple[list[tuple[int, int]], dict]:
    """One step's draws through _split_draws and through _scan_draws, each
    with a copy of state's one generator.  Asserts that both make the same
    moves and leave the generator in the same state, and returns the moves,
    as sorted (agent, cell) pairs, and that state."""
    rows_p, rows_free = p[drawing], free[drawing]
    risky = np.flatnonzero(((rows_free < 0) & (rows_p > 0.0)).any(axis=1))
    outcomes = []
    for draws, args in ((engine._split_draws, (rows_p, rows_free, drawing, risky)),
                        (engine._scan_draws, (p, free, drawing))):
        rng = copy.deepcopy(state.rngs[0])
        movers, cells = draws(replace(state, rngs=[rng]), *args, [0, drawing.size], size)
        moves = sorted((int(a), int(t)) for a, t in zip(movers, cells))
        outcomes.append((moves, rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("seed", range(1, 4))
def test_split_and_scan_agree_when_nobody_claims_a_cell(seed):
    # a packed corridor behind an agent on the exit: each drawing agent
    # draws an occupied neighbour, redraws over no free direction and stays
    sc = make_scenario("########\n#E.....#\n########", seed=seed)
    sc = Scenario(grid=sc.grid, initial_agents=tuple((1, j) for j in range(1, 7)),
                  params=sc.params)
    state, p, free, drawing = first_step_rows(sc)
    assert drawing.tolist() == [1, 2, 3, 4, 5]
    moves, end = split_and_scan(state, p, free, drawing, sc.grid.height * sc.grid.width)
    assert moves == []
    # two draws per drawing agent, nothing else
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.random(10)
    assert end == rng.bit_generator.state


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(1, 4))
def test_split_and_scan_agree_when_every_claim_is_contested(seed, mu):
    # two pairs of agents whose one open direction is the cell between them
    sc = make_scenario(
        """
        ###########
        #P.P###P.P#
        ##.#####.##
        ##E#####E##
        ###########
        """,
        seed=seed, mu=mu,
    )
    state, p, free, drawing = first_step_rows(sc)
    open_dirs = p[drawing] > 0.0
    assert open_dirs.sum(axis=1).tolist() == [1, 1, 1, 1]
    assert np.unique(free[drawing][open_dirs], return_counts=True)[1].tolist() == [2, 2]
    moves, _ = split_and_scan(state, p, free, drawing, sc.grid.height * sc.grid.width)
    assert len({t for _, t in moves}) == len(moves) <= 2
    if mu == 1.0:
        assert moves == []


@pytest.mark.parametrize("seed", range(1, 4))
def test_split_and_scan_agree_on_draws_past_the_rounded_total(seed):
    # rows adding up to 0.4-0.5, so that most first draws land past the
    # total and take the last positive direction, which varies by row; both
    # paths follow one rule for any rows.  Rows 1 and 4 of each six are
    # risky: a positive direction is occupied (-1), so their draws past the
    # total redraw.  Cells repeat across agents, so some are contested.
    p = np.array([[0.1, 0.1, 0.1, 0.1], [0.2, 0.2, 0.1, 0.0], [0.0, 0.4, 0.0, 0.0],
                  [0.3, 0.0, 0.2, 0.0], [0.1, 0.2, 0.1, 0.0], [0.0, 0.0, 0.0, 0.5]] * 4)
    m = len(p)
    free = (7 * np.arange(m)[:, None] + 3 * np.arange(4)) % 40
    free[p == 0.0] = -1
    free[1::6, 1] = free[4::6, 2] = -1
    # the agents stand on cells 40 to 63, past every target cell
    occupancy = np.zeros((1, 64), dtype=np.uint8)
    occupancy[0, 40:] = 1
    state = SimulationState(occupancy=occupancy, ids=np.arange(m), cells=np.arange(m) + 40, step=0,
                            rngs=[np.random.Generator(np.random.PCG64(seed))],
                            k_p=np.array([6.0]), mu=[0.3])
    # the seeds do not dodge the branch: many of the stream's first m
    # uniforms lie past the total of the row with their index
    first = copy.deepcopy(state.rngs[0]).random(m)
    assert (first >= p.sum(axis=1)).sum() >= m // 3
    moves, _ = split_and_scan(state, p, free, np.arange(m), 64)
    assert moves


@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("claimants", [3, 4])
@pytest.mark.parametrize("seed", range(1, 4))
def test_split_and_scan_agree_on_interleaved_contested_cells(seed, claimants, mu):
    # claimants agents claim cell 10 and three claim cell 20, their ranks
    # interleaved, so the split's one sort must keep each cell's claims in
    # agent order for the friction draw to pick the scan's winner.  Every
    # row is certain of its one open direction, except agent 1's: an
    # occupied direction (-1) makes it risky, so its claim on 20, if any,
    # comes from the scan
    targets = [10, 20] * 3 + [10] * (claimants - 3)
    m = len(targets)
    p = np.zeros((m, 4))
    free = np.full((m, 4), -1)
    p[:, 0], free[:, 0] = 1.0, targets
    p[1, :2] = 0.5
    free[1] = [-1, 20, -1, -1]
    occupancy = np.zeros((1, 64), dtype=np.uint8)
    occupancy[0, 40:40 + m] = 1
    state = SimulationState(occupancy=occupancy, ids=np.arange(m), cells=np.arange(m) + 40, step=0,
                            rngs=[np.random.Generator(np.random.PCG64(seed))],
                            k_p=np.array([6.0]), mu=[mu])
    moves, _ = split_and_scan(state, p, free, np.arange(m), 64)
    assert len(moves) <= 2 and len({t for _, t in moves}) == len(moves)
    if mu == 0.0:
        assert 10 in {t for _, t in moves}
