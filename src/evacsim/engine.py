"""Per-step decision rules, conflict resolution, and the simulation loop.

Every step works on a frozen snapshot of the occupancy.  In agent-id order
each pedestrian draws a target from its transition distribution; a draw
landing on an occupied cell triggers a second draw in which the occupied
directions hand their probability mass to staying put (people are patient,
they do not shove).  Movers contending for the same cell are resolved per
target cell in raster order: with probability mu nobody gets it, otherwise
a uniformly chosen contender does.  All permitted moves then happen at
once, and whoever stands on an exit cell at the end of the step has left
the room.

Randomness discipline: the only generator method ever consumed is
rng.random(), in a fixed order (agents ascending, then conflict cells in
raster order), so equal seeds give bit-identical runs.

step() runs as an array kernel that keeps this discipline draw for draw.
The distributions, the free-neighbour table and the set of drawing agents
are computed for all agents at once; a scan over plain lists then makes
the draws in agent order.  It takes its uniforms in blocks, and
rng.random(m) yields the same doubles as m calls of rng.random(), so a
block is the stream itself.  A block never holds more draws than are
certain to be made: m is the number of agents still waiting for their
first draw (plus one when an agent needs its second), and each of them
makes at least one.  The generator is therefore never ahead of the scan,
needs no rewinding, and is left exactly where one call per draw leaves it,
with its state (the buffered 32-bit half-word included) untouched
otherwise.  Contested cells then draw one call at a time, in raster order.

The run state says where each agent stands in one form only: ids ascending
and, at the same positions, flat row-major cells, the index that
TransitionTables uses.  Moves and exits are array writes to these and to
the occupancy; SimulationState.agents derives (id, (i, j)) pairs from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floorfield import compute_sff
from .metrics import SimulationResult, SpreadSample, exit_axis, spread_metric
from .scenario import Cell, Grid, ModelParams, Scenario, place
from .transition import TransitionTables


@dataclass
class SimulationState:
    """Mutable run state; step() returns a new one sharing the generator.

    ids (ascending) and cells are int64 arrays of one entry per agent in
    the room: cells[k] is agent ids[k]'s flat row-major cell, i * width + j,
    and occupancy is 1 exactly there.
    """

    occupancy: np.ndarray
    ids: np.ndarray
    cells: np.ndarray
    step: int
    rng: np.random.Generator

    @property
    def agents(self) -> list[tuple[int, Cell]]:
        """(id, (i, j)) per agent, ascending by id; derived from ids and cells."""
        w = self.occupancy.shape[1]
        return [(aid, divmod(c, w)) for aid, c in zip(self.ids.tolist(), self.cells.tolist())]


def initial_state(scenario: Scenario) -> SimulationState:
    """State at step 0.  Agent ids follow the scenario's raster order.

    Raises ValueError with scenario.place's first message for an agent that
    breaks its rule: no run can place it.  An agent with no path to an exit
    is placed, and stays where it is.
    """
    grid = scenario.grid
    cells, problems = place(grid.walls, scenario.initial_agents)
    if problems:
        raise ValueError(problems[0])
    occ = np.zeros((grid.height, grid.width), dtype=np.uint8)
    occ.reshape(-1)[cells] = 1
    ids = np.arange(cells.size, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(scenario.params.seed))
    return SimulationState(occupancy=occ, ids=ids, cells=cells, step=0, rng=rng)


def step(
    state: SimulationState,
    grid: Grid,
    params: ModelParams,
    tables: TransitionTables,
) -> SimulationState:
    """Advance one step; returns the new state (occupancy copied, rng shared).

    tables are the grid's TransitionTables for params' (k_S, k_W, r).
    Agents already standing on an exit (possible only by initial
    placement) propose to stay and are removed at the end of the step like
    everyone else who reaches a door.
    """
    occ = state.occupancy
    cells = state.cells
    rng = state.rng
    p, norm_zero = tables.distributions(occ, cells, params.k_p)
    # per agent and direction: the neighbour cell if it is free in the
    # snapshot, else -1.  Blocked directions hold the agent's own (occupied)
    # cell in tables.nbr and have p = 0, so they are never drawn.
    nbr = tables.nbr.take(cells, axis=1)
    free = np.where(occ.reshape(-1)[nbr] != 0, -1, nbr).T.ravel().tolist()
    prob = p.ravel().tolist()
    on_exit = grid.exit_mask.reshape(-1)
    drawing = np.flatnonzero(~(norm_zero | on_exit[cells])).tolist()

    # the draw scan: agents ascending, one draw each and a second one after
    # a hit on an occupied cell; u is refilled with as many draws as are
    # certain to be made, so the generator never runs ahead of the scan
    claims: dict[int, list[int]] = {}
    u: list[float] = []
    used = 0
    left = len(drawing)  # agents whose first draw is still to come
    for k in drawing:
        if used == len(u):
            u = rng.random(left).tolist()
            used = 0
        x = u[used]
        used += 1
        left -= 1
        b = 4 * k
        acc = 0.0
        for d in range(b, b + 4):
            acc += prob[d]
            if x < acc:
                break
        else:
            # rounding left the total a hair under 1 and x landed past it
            d = max(dd for dd in range(b, b + 4) if prob[dd] > 0.0)
        t = free[d]
        if t < 0:
            # patience: occupied directions hand their mass to staying put
            if used == len(u):
                u = rng.random(left + 1).tolist()
                used = 0
            x = u[used]
            used += 1
            acc = 0.0
            for d in range(b, b + 4):
                t = free[d]
                if t >= 0:
                    acc += prob[d]
                    if x < acc:
                        break
            else:
                continue
        claims.setdefault(t, []).append(k)

    # friction: contested cells in raster order (ascending flat index)
    movers: list[int] = []
    targets: list[int] = []
    mu = params.mu
    for t in sorted(claims):
        group = claims[t]
        if len(group) > 1:
            if rng.random() < mu:
                continue
            size = len(group)
            movers.append(group[min(int(rng.random() * size), size - 1)])
        else:
            movers.append(group[0])
        targets.append(t)

    new_cells = cells.copy()
    new_cells[movers] = targets
    keep = ~on_exit[new_cells]
    new_cells = new_cells[keep]
    new_occ = occ.copy()
    flat = new_occ.reshape(-1)
    flat[cells] = 0
    flat[new_cells] = 1
    # two winners on one cell cannot happen; a desync here means the
    # conflict grouping or the parallel move application is broken
    if int(flat.sum()) != new_cells.size:
        raise RuntimeError(
            f"step {state.step}: occupancy holds {int(flat.sum())} people, "
            f"agent list {new_cells.size}"
        )
    return SimulationState(occupancy=new_occ, ids=state.ids[keep], cells=new_cells,
                           step=state.step + 1, rng=rng)


def run(
    scenario: Scenario,
    snapshot_steps: tuple[int, ...] = (),
    capture_step: int | None = None,
) -> SimulationResult:
    """Run a validated scenario to evacuation or max_steps.

    Records the evacuation curve, occupancy snapshots at the requested
    steps, and the lateral spread per step while the room still has people
    (when the exit geometry defines an axis).  capture_step dumps every
    agent's transition distribution as evaluated at that step, i.e. the one
    the draws at that step actually used.
    """
    grid = scenario.grid
    params = scenario.params
    field = compute_sff(grid)
    tables = TransitionTables(field, grid, params)
    state = initial_state(scenario)
    axis = exit_axis(grid)
    wanted = set(snapshot_steps)

    curve: list[tuple[int, int]] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    spread: list[SpreadSample] = []
    captured: list[tuple[int, Cell, np.ndarray, bool]] = []
    while True:
        # every state the run reaches, step 0 included, is recorded here
        curve.append((state.step, state.cells.size))
        if state.step in wanted:
            snapshots.append((state.step, state.occupancy.copy()))
        if axis is not None and state.cells.size:
            spread.append(SpreadSample(state.step, spread_metric(state, axis)))
        if not state.cells.size or state.step >= params.max_steps:
            break
        if state.step == capture_step:
            p_rows, norm_zero = tables.distributions(state.occupancy, state.cells, params.k_p)
            for k, (aid, cell) in enumerate(state.agents):
                captured.append((aid, cell, p_rows[k].copy(), bool(norm_zero[k])))
        state = step(state, grid, params, tables)

    evac_time = state.step if not state.cells.size else None
    if evac_time is not None:
        # the empty room is absorbing, so later configured snapshots are
        # well-defined; an incomplete run gets no such padding
        for t in sorted(wanted):
            if t > state.step:
                snapshots.append((t, state.occupancy.copy()))
    return SimulationResult(
        curve=curve,
        evac_time=evac_time,
        snapshots=snapshots,
        spread=spread,
        captured=captured,
    )
