"""engine.step against the scalar reference step, one step at a time.

The array kernel must make the same moves and leave the generator in the
same state as oracles.oracle_step after every step, which is what ties the
direct tests of the reference pieces (test_engine, criterion 6) to the
engine.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, random_grid
from evacsim.engine import initial_state, step
from evacsim.floorfield import compute_sff
from evacsim.scenario import ModelParams, Scenario, parse_scenario
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
    mu=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_rooms_match_oracle(room_seed, shape, wall_frac, density, k_s, k_p, k_w, r, mu,
                                   seed):
    rng = np.random.default_rng(room_seed)
    h, w = shape
    grid = random_grid(rng, h, w, wall_frac, int(rng.integers(1, 4)), enclosed=True)
    # agents in sealed pockets included: they have norm_zero and never draw
    free = [(i, j) for i in range(h) for j in range(w) if not grid.walls[i, j]]
    agents = tuple(cell for cell in free if rng.random() < density)
    params = ModelParams(k_s=k_s, k_p=k_p, k_w=k_w, r=r, mu=mu, seed=seed, max_steps=40)
    lockstep(Scenario(grid=grid, initial_agents=agents, params=params))


class QueuedUniforms:
    """Stands in for the generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def test_draw_past_rounded_total_takes_last_positive_direction():
    # a lone agent next to the west wall whose four probabilities add up to
    # a hair under 1; the largest uniform below 1 lands past that total
    sc = parse_scenario((SCENARIOS / "room37x33.txt").read_text())
    grid = sc.grid
    field = compute_sff(grid)
    tables = TransitionTables(field, grid, sc.params)
    w = grid.width
    for (i, j) in sorted(set(zip(*np.nonzero(grid.walls == 0))) - grid.exits):
        occ = np.zeros((grid.height, w), dtype=np.uint8)
        occ[i, j] = 1
        p, _ = tables.distributions(occ, np.array([i * w + j]), sc.params.k_p)
        total = 0.0
        for d in range(4):
            total += p[0, d]
        if total < 1.0 and p[0, 3] == 0.0 and p[0, 2] > 0.0:
            break
    else:
        pytest.fail("no cell with a rounded-down total next to a west wall")
    cell = (int(i), int(j))
    top = float(np.nextafter(1.0, 0.0))
    moved = []
    for advance in (lambda st: step(st, grid, tables),
                    lambda st: oracle_step(st, grid, sc.params, tables)):
        state = initial_state(Scenario(grid=grid, initial_agents=(cell,), params=sc.params))
        state.rngs = [QueuedUniforms([top])]
        moved.append(advance(state).agents)
    assert moved[0] == moved[1] == [(0, (cell[0] + 1, cell[1]))]  # down, the last positive
