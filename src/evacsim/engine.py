"""Per-step decision rules, conflict resolution, and the simulation loop.

Every step works on a frozen snapshot of the occupancy.  In agent-id order
each pedestrian draws a target from its transition distribution; a draw
landing on an occupied cell triggers a second draw in which the occupied
directions hand their probability mass to staying put (people are patient,
they do not shove).  Movers contending for the same cell are resolved per
target cell in raster order by one function, _friction: with probability
mu nobody gets it, otherwise a uniformly chosen contender does.  All
permitted moves then happen at once, and whoever stands on an exit cell at
the end of the step has left the room.

Randomness discipline: each run owns one PCG64 stream, and the only
generator method ever consumed is rng.random(), in a fixed order (the
run's agents ascending, then its conflict cells in raster order), so equal
seeds give bit-identical runs.

Runs of one grid advance in lockstep: run_batch computes the static field
once, builds TransitionTables once per stretch of consecutive runs with
one (k_S, k_W, r), and each step() computes the distributions of the live
agents of such a stretch in one call, every row with its own run's k_P.
The row values do not depend on which other rows share the call, and each
run then makes its own draw scan and conflict pass with its own
generator, so a run's stream, states and result are exactly those it has
alone; run() is run_batch of one run.

step() runs as an array kernel that keeps this discipline draw for draw.
The distributions, the free-neighbour table and the set of drawing agents
are computed for all agents at once.  A run's drawing agent j (counting
from 0 in agent order) takes its first draw from entry j + (the second
draws made by the agents before it) of the run's stream, and a second
draw from the entry after that.  rng.random(m) yields the same doubles as
m calls of rng.random(), so draws come in blocks, and a block is the
stream itself.  A block never holds more draws than are certain to be
made: every drawing agent makes one, so the run's m drawing agents plus
the second draws found so far bound the stream.  The generator is
therefore never ahead of the draws, needs no rewinding, and is left
exactly where one call per draw leaves it, m + R uniforms for R second
draws, with its state (the buffered 32-bit half-word included) untouched
otherwise.  Contested cells then draw one call at a time, in raster order.

One scan over plain lists (_scan) makes the draws, in agent order.  Most
steps scan every drawing agent and group the claims in a dict.  A step
whose rooms hold many safe agents, whose drawable directions all lead to
cells free in the snapshot so that they make exactly one draw, splits
them from the risky ones: the same scan walks the risky agents only, by
the same position and block rules, and marks each second draw in the
list of draws.  The unmarked entries are every agent's first draw, in
agent order, and numpy turns the safe agents' into targets.  One sort of
the unique keys cell * agents + row groups the claims by cell, agents
ascending within a cell, and only contested cells go through Python.

The run state says where each agent stands in one form only: ids and, at
the same positions, flat cells into the runs' occupancies stacked on the
row axis.  Moves and exits are array writes to these and to the
occupancy; SimulationState.agents derives (id, (i, j)) pairs from them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate, groupby

import numpy as np
from numpy.random import PCG64, Generator

from .floorfield import compute_sff
from .metrics import SimulationResult, SpreadSample, lateral_offsets, spread_metric
from .scenario import Cell, Grid, Scenario, place
from .transition import TransitionTables

# run_batch advances its runs in consecutive groups whose stacked
# occupancies and (4, agents, r) ray gathers hold at most this many cells,
# so a batch's step memory stays that of one large room, for any run count
_BATCH_CELLS = 1 << 20

# step() draws through _split_draws when its drawing agents hold at least
# this many safe ones per room with drawing agents.  Both paths were timed
# (median of 7 alternating rounds, process time, on a 2-core x86 host).  On
# single enclosed square rooms with a 4-cell exit, 80 to 819 agents and 15
# steps, the split cost 1.01-1.08x the scan with 66-118 safe agents at step
# 0 and 0.60-0.81x with 162-580 safe.  On every step of whole run_batch
# runs of the paper room it cost 1.23x the scan for one room, 1.11x for a
# stack of 2, 1.02x for 10 and 0.98x for 20.  So the constant stays just
# above the paper room's 300 agents, although the crossover lies near 150
# safe agents: no step of a paper room, or of a stack of them, counts its
# safe agents.
_SPLIT_DRAWS = 301


@dataclass
class SimulationState:
    """Mutable state of S >= 1 runs of one grid; step() returns a new one
    sharing the generators.

    occupancy stacks the runs' (height, width) occupancies on the row
    axis: run s owns rows s * height to (s + 1) * height, and S = 1 is a
    single room.  ids and cells are int64 arrays of one entry per agent in
    the rooms, run by run and ascending by id within a run: cells[k] is
    agent ids[k]'s flat row-major cell in the stacked occupancy,
    (s * height + i) * width + j, and occupancy is 1 exactly there.
    rngs, k_p and mu hold each run's generator, crowd weight and friction.
    """

    occupancy: np.ndarray
    ids: np.ndarray
    cells: np.ndarray
    step: int
    rngs: list[Generator]
    k_p: np.ndarray
    mu: list[float]

    @property
    def agents(self) -> list[tuple[int, Cell]]:
        """(id, (i, j)) per agent, in ids order; i counts the stacked rows."""
        w = self.occupancy.shape[1]
        return [(aid, divmod(c, w)) for aid, c in zip(self.ids.tolist(), self.cells.tolist())]


def initial_state(*scenarios: Scenario) -> SimulationState:
    """State at step 0 of one run per scenario, all on scenarios[0]'s grid
    (run_batch checks that they share it).  Agent ids follow each
    scenario's raster order.

    Raises ValueError with scenario.place's first message for an agent that
    breaks its rule: no run can place it.  An agent with no path to an exit
    is placed, and stays where it is.
    """
    grid = scenarios[0].grid
    size = grid.height * grid.width
    ids, cells = [], []
    for s, scenario in enumerate(scenarios):
        placed, problems = place(grid.walls, scenario.initial_agents)
        if problems:
            raise ValueError(problems[0])
        ids.append(np.arange(placed.size, dtype=np.int64))
        cells.append(placed + s * size)
    cells = np.concatenate(cells)
    occ = np.zeros((len(scenarios) * grid.height, grid.width), dtype=np.uint8)
    occ.reshape(-1)[cells] = 1
    return SimulationState(
        occupancy=occ, ids=np.concatenate(ids), cells=cells, step=0,
        rngs=[Generator(PCG64(sc.params.seed)) for sc in scenarios],
        k_p=np.array([sc.params.k_p for sc in scenarios], dtype=np.float64),
        mu=[sc.params.mu for sc in scenarios],
    )


def step(state: SimulationState, grid: Grid, tables: TransitionTables) -> SimulationState:
    """Advance every run one step; returns the new state (occupancy copied,
    generators shared).

    tables are the grid's TransitionTables for the runs' (k_S, k_W, r).
    Agents already standing on an exit (possible only by initial
    placement) propose to stay and are removed at the end of the step like
    everyone else who reaches a door.  A step with at least _SPLIT_DRAWS
    safe agents per room with drawing agents draws through _split_draws,
    any other through _scan_draws: the same moves and generator states
    either way, as both settle contested cells through _friction.
    """
    occ = state.occupancy
    cells = state.cells
    size = grid.height * grid.width
    rooms = len(state.rngs)
    # local: each agent's cell in its own room, the index the tables use;
    # base: where that room starts in the stack.  One room is the whole
    # stack, so it needs neither, nor a k_P per agent.
    if rooms == 1:
        local, k_p = cells, float(state.k_p[0])
    else:
        run = cells // size
        base = run * size
        local = cells - base
        k_p = state.k_p.take(run)
    p, norm_zero = tables.distributions(occ, local, k_p, cells)
    # per agent and direction: the neighbour cell if it is free in the
    # snapshot, else -1.  Blocked directions hold the agent's own (occupied)
    # cell in tables.nbr and have p = 0, so they are never drawn.
    nbr = tables.nbr.take(local, axis=1)
    if rooms > 1:
        nbr += base
    free = np.where(occ.reshape(-1)[nbr] != 0, -1, nbr).T
    on_exit = grid.exit_mask.reshape(-1)
    drawing = np.flatnonzero(~(norm_zero | on_exit[local]))
    # run s's drawing agents are drawing[starts[s]:starts[s + 1]]
    starts = ([0, drawing.size] if rooms == 1
              else np.searchsorted(run[drawing], np.arange(rooms + 1)).tolist())
    # a safe agent has no drawable direction onto a cell occupied in the
    # snapshot, so it makes exactly one draw.  The split needs _SPLIT_DRAWS
    # safe agents per room with drawing agents, which are counted only
    # where the drawing agents could hold that many.
    need = _SPLIT_DRAWS
    if rooms > 1 and drawing.size >= need:
        need *= sum(hi > lo for lo, hi in zip(starts, starts[1:]))
    split = drawing.size >= need
    # every agent draws on all 1,280 split steps of big_room's 32 seed
    # classes; the split then skips two row copies (7 us at 1,080 agents)
    all_draw = drawing.size == cells.size
    if split:
        # p and free are the transposes of contiguous (4, agents) arrays
        hit = ((free.T < 0) & (p.T > 0.0)).any(axis=0)
        risky = np.flatnonzero(hit if all_draw else hit[drawing])
        split = drawing.size - risky.size >= need
    if split and not all_draw:
        p, free = p.T.take(drawing, axis=1).T, free.T.take(drawing, axis=1).T
    movers, targets = (_split_draws(state, p, free, drawing, risky, starts, size)
                       if split else _scan_draws(state, p, free, drawing, starts, size))

    new_cells = cells.copy()
    new_cells[movers] = targets
    keep = ~on_exit[new_cells if rooms == 1 else new_cells - base]
    new_cells = new_cells[keep]
    new_occ = occ.copy()
    flat = new_occ.reshape(-1)
    flat[cells] = 0
    flat[new_cells] = 1
    # two winners on one cell cannot happen; a desync here means the
    # conflict grouping or the parallel move application is broken
    if np.count_nonzero(flat) != new_cells.size:
        raise RuntimeError(
            f"step {state.step}: occupancy holds {np.count_nonzero(flat)} people, "
            f"agent list {new_cells.size}"
        )
    return SimulationState(occupancy=new_occ, ids=state.ids[keep], cells=new_cells,
                           step=state.step + 1, rngs=state.rngs, k_p=state.k_p, mu=state.mu)


def _scan(rngs, prob, free, ranks, keys, starts):
    """The draw scan, run by run and agents ascending.

    Run s's drawing agents are those of ranks starts[s] to starts[s + 1] in
    agent order.  Scanned agent i is the one of rank ranks[i] (ascending)
    and reads row keys[i] of prob and free, flat lists of four entries per
    row.  Each scanned agent takes its first draw and, after a hit on an
    occupied cell, a second one; a block never reaches past the draws
    certain to be made (one per drawing agent, plus the second draws found
    so far), and in the end every run has drawn all of them.  Returns
    (claims, u): the keys claiming each cell, ascending (a stay claims
    nothing), and every draw in stream order, run after run, with 2.0 in
    place of each second draw.
    """
    # run s's scanned agents are ranks[firsts[s]:firsts[s + 1]]
    firsts = [bisect_left(ranks, lo) for lo in starts]
    claims: dict[int, list[int]] = {}
    u: list[float] = []
    for s, rng in enumerate(rngs):
        a, z, hi = firsts[s], firsts[s + 1], starts[s + 1]
        # the agent of rank j takes its first draw from u[j + off]; off
        # grows by one with each second draw, and hi + off draws are certain
        off = len(u) - starts[s]
        have = len(u)
        for j, k in zip(ranks[a:z], keys[a:z]):
            pos = j + off
            if pos >= have:
                u += rng.random(hi + off - have).tolist()
                have = hi + off
            x = u[pos]
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
                off += 1
                pos += 1
                if pos == have:
                    u += rng.random(hi + off - have).tolist()
                    have = hi + off
                x = u[pos]
                u[pos] = 2.0
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
        if have < hi + off:
            u += rng.random(hi + off - have).tolist()
    return claims, u


def _scan_draws(state, p, free, drawing, starts, size):
    """A step's draws and friction: the scan over every drawing agent, then
    the contested cells from its claims, in raster order (so run by run).

    p and free are step()'s per-agent tables, and run s's drawing agents
    are drawing[starts[s]:starts[s + 1]].  Returns (movers, cells): the
    agents that move and the cells they move to.
    """
    claims, _ = _scan(state.rngs, p.ravel().tolist(), free.ravel().tolist(),
                      range(drawing.size), drawing.tolist(), starts)
    movers: list[int] = []
    targets: list[int] = []
    for t in sorted(claims):
        group = claims[t]
        if len(group) == 1:
            movers.append(group[0])
        elif (i := _friction(state, size, t, len(group))) is not None:
            movers.append(group[i])
        else:
            continue
        targets.append(t)
    return movers, targets


def _friction(state, size, t, n):
    """Friction on cell t among its n > 1 claimants: the mover's index, or None."""
    s = t // size
    if state.rngs[s].random() < state.mu[s]:
        return None
    return min(int(state.rngs[s].random() * n), n - 1)


def _split_draws(state, p, free, drawing, risky, starts, size):
    """_scan_draws for a step with many safe agents: the same moves and
    generator states, with the scan over the risky agents only.

    p and free hold the drawing agents' rows, in agent order (step()
    passes the transposes of contiguous (4, m) arrays), and risky the
    risky agents' rows, ascending.
    """
    claims, u = _scan(state.rngs, p[risky].ravel().tolist(), free[risky].ravel().tolist(),
                      risky.tolist(), range(risky.size), starts)
    # every agent's first draw, in agent order.  Four running column sums
    # add each row left to right, exactly as the scan's acc does, and d
    # counts the sums at or below the draw
    x = np.fromiter(u, dtype=np.float64, count=len(u))
    x = x[x < 1.0]
    acc = p[:, 0]
    d = (acc <= x).astype(np.intp)
    for c in range(1, 4):
        acc = acc + p[:, c]
        d += acc <= x
    past = np.flatnonzero(d == 4)  # past the rounded total, as in the scan
    if past.size:
        d[past] = 3 - (p[past, ::-1] > 0.0).argmax(axis=1)
    # one take from free's columns, which step() keeps contiguous
    cell = free.T.reshape(-1).take(d * d.size + np.arange(d.size))
    # the risky agents' cells are those the scan found
    cell[risky] = -1
    cell[risky[[k for group in claims.values() for k in group]]] = [
        t for t, group in claims.items() for _ in group]

    # claims grouped by cell, agents ascending within a cell: the key
    # cell * m + row is unique, so one plain sort gives that order.  head
    # marks each group's first row and closes the last.  The winners are an
    # index array: the uncontested claims, then the contested cells'
    # winners, raster order
    rows = np.flatnonzero(cell >= 0)
    key = np.sort(cell[rows] * d.size + rows)
    cell = key // d.size
    rows = key - cell * d.size
    head = np.ones(cell.size + 1, dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=head[1:-1])
    heads = np.flatnonzero(head)
    counts = np.diff(heads)
    heads = heads[:-1]
    one = counts == 1
    many = ~one
    contested = []
    for h, n, t in zip(heads[many].tolist(), counts[many].tolist(), cell[heads[many]].tolist()):
        if (i := _friction(state, size, t, n)) is not None:
            contested.append(h + i)
    won = np.concatenate((heads[one], np.array(contested, dtype=np.intp)))
    return drawing[rows[won]], cell[won]


def run_batch(
    scenarios: list[Scenario],
    snapshot_steps: tuple[int, ...] = (),
    capture_step: int | None = None,
) -> list[SimulationResult]:
    """Run validated scenarios of one grid in lockstep.

    Returns one result per scenario, in order ([] for none), each equal to the
    scenario's run() alone.  Raises ValueError when the scenarios do not share
    the grid.  The static field is computed once per call, and the
    TransitionTables once per stretch of consecutive scenarios with equal
    (k_S, k_W, r), whose runs then step together.  Each run stops on its
    own, at evacuation or at its max_steps; seed, k_P and mu are its own too.
    """
    if not scenarios:
        return []
    grid = scenarios[0].grid
    if any(sc.grid is not grid and sc.grid != grid for sc in scenarios):
        raise ValueError("run_batch needs one grid for all scenarios")
    field = compute_sff(grid)
    results = []
    for (_, _, r), runs in groupby(scenarios, key=lambda sc: (sc.params.k_s, sc.params.k_w,
                                                               sc.params.r)):
        runs = list(runs)
        tables = TransitionTables(field, grid, runs[0].params)
        per_run = grid.height * grid.width + 4 * r * max(len(sc.initial_agents) for sc in runs)
        group = max(1, _BATCH_CELLS // per_run)
        for lo in range(0, len(runs), group):
            results += _lockstep(runs[lo:lo + group], tables, snapshot_steps, capture_step)
    return results


def _lockstep(scenarios, tables, snapshot_steps, capture_step) -> list[SimulationResult]:
    """run_batch's loop over one group of runs, set-up given."""
    grid = scenarios[0].grid
    h, w = grid.height, grid.width
    size = h * w
    state = initial_state(*scenarios)
    # the spread's offsets per cell, repeated for each room of the stack
    offsets = lateral_offsets(grid)
    offsets = None if offsets is None else np.tile(offsets, len(scenarios))
    wanted = set(snapshot_steps)
    results = [SimulationResult(curve=[], evac_time=None) for _ in scenarios]
    live = list(range(len(scenarios)))
    while True:
        # every state a run reaches, step 0 included, is recorded here
        counts = ([state.cells.size] if len(scenarios) == 1
                  else np.bincount(state.cells // size, minlength=len(scenarios)).tolist())
        ends = list(accumulate(counts))
        ended = set()
        for s in live:
            res, n = results[s], counts[s]
            res.curve.append((state.step, n))
            if state.step in wanted:
                res.snapshots.append((state.step, state.occupancy[s * h:(s + 1) * h].copy()))
            if offsets is not None and n:
                cells = state.cells[ends[s] - n:ends[s]]
                res.spread.append(SpreadSample(state.step, spread_metric(offsets, cells)))
            if not n:
                # the empty room is absorbing, so later configured snapshots
                # are well-defined; an incomplete run gets no such padding
                res.evac_time = state.step
                res.snapshots += [(t, np.zeros((h, w), dtype=np.uint8))
                                  for t in sorted(wanted) if t > state.step]
                ended.add(s)
            elif state.step >= scenarios[s].params.max_steps:
                ended.add(s)
        if ended:
            live = [s for s in live if s not in ended]
            # runs stopped at max_steps leave the stack: no more steps or draws
            keep = np.ones(state.cells.size, dtype=bool)
            for s in ended:
                keep[ends[s] - counts[s]:ends[s]] = False
                state.occupancy[s * h:(s + 1) * h] = 0
            state = replace(state, ids=state.ids[keep], cells=state.cells[keep])
        if not live:
            return results
        if state.step == capture_step:
            run, local = np.divmod(state.cells, size)
            p_rows, norm_zero = tables.distributions(state.occupancy, local,
                                                     state.k_p.take(run), state.cells)
            for k, (aid, s, cell) in enumerate(zip(state.ids.tolist(), run.tolist(),
                                                   local.tolist())):
                results[s].captured.append((aid, divmod(cell, w), p_rows[k].copy(),
                                            bool(norm_zero[k])))
        state = step(state, grid, tables)


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
    return run_batch([scenario], snapshot_steps, capture_step)[0]
