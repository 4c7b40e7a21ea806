"""Reference implementations for the test suite.

sff_oracle and density_oracle are deliberately written against the model
definitions alone, with different algorithms and data structures than the
package (plain lists and Gauss-Seidel relaxation instead of numpy and a
heap), so agreement between the two is meaningful evidence rather than a
tautology.

The scalar step (distributions_oracle, Proposal, draw_direction,
choose_target, resolve_conflicts, oracle_step) is the per-agent reference
for the package's array kernel in engine.step: one table gather per
direction, one Proposal per agent, one generator call per draw, conflicts
grouped in a dict.  It consumes the generator in the documented order, so
engine.step must match it exactly, generator state included.
"""

import math
from dataclasses import dataclass

import numpy as np

from evacsim.engine import SimulationState
from evacsim.scenario import DIR_OFFSETS
from evacsim.transition import TransitionDistribution, TransitionTables

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

_STEPS = (
    (-1, 0, 1.0),
    (1, 0, 1.0),
    (0, -1, 1.0),
    (0, 1, 1.0),
    (-1, -1, SQRT2),
    (-1, 1, SQRT2),
    (1, -1, SQRT2),
    (1, 1, SQRT2),
)


def sff_oracle(walls, exits):
    """Distance to the nearest exit by Gauss-Seidel relaxation.

    8-neighbor metric: orthogonal cost 1, diagonal cost sqrt(2), diagonals
    forbidden when either cell they cut between is a wall.  Returns a list
    of lists; walls and unreachable cells stay at +inf.
    """
    h, w = len(walls), len(walls[0])
    dist = [[math.inf] * w for _ in range(h)]
    for i, j in exits:
        dist[i][j] = 0.0
    changed = True
    while changed:
        changed = False
        for i in range(h):
            for j in range(w):
                if walls[i][j]:
                    continue
                best = dist[i][j]
                for di, dj, cost in _STEPS:
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < h and 0 <= nj < w) or walls[ni][nj]:
                        continue
                    if di and dj and (walls[i + di][j] or walls[i][j + dj]):
                        continue
                    cand = dist[ni][nj] + cost
                    if cand < best:
                        best = cand
                        changed = True
                dist[i][j] = best
    return dist


def density_oracle(ray_occupancy, r_star):
    """Raw (unclamped) kernel density over one ray.

    ray_occupancy[m-1] is the occupancy of the cell at offset m, for
    m = 1..r_star.  Direct evaluation of the defining sum.
    """
    c = (r_star + 1) / SQRT5
    total = 0.0
    for m in range(1, r_star + 1):
        z = m / c
        if z * z < 5.0:
            total += (0.335 - 0.067 * (z * z)) * 4.4742 * ray_occupancy[m - 1]
    return total / r_star


def distributions_oracle(tables, occupancy, cells_flat):
    """TransitionTables.distributions evaluated one direction at a time."""
    occ_flat = occupancy.reshape(-1).astype(np.float64, copy=False)
    k_p = tables.params.k_p
    weights = np.empty((len(cells_flat), 4), dtype=np.float64)
    for d in range(4):
        crowd = (occ_flat[tables.ray_idx[d, cells_flat]] * tables.ray_w[d, cells_flat]).sum(axis=1)
        dens = np.clip(crowd / tables.ray_div[d, cells_flat], 0.0, 1.0)
        weights[:, d] = np.exp(tables.static_expo[d, cells_flat] - k_p * dens)
    norm = weights.sum(axis=1)
    norm_zero = norm == 0.0
    p = np.zeros_like(weights)
    np.divide(weights, norm[:, None], out=p, where=~norm_zero[:, None])
    return p, norm_zero


@dataclass(frozen=True)
class Proposal:
    """One agent's intended cell for this step; target == source means stay."""

    agent: int
    source: tuple
    target: tuple


def draw_direction(p, u):
    """Index d of the first cumulative bin containing u.

    Zero-probability directions have zero-width bins and can never come
    out.  If rounding leaves the total a hair under 1 and u lands past it,
    the last positive direction takes the draw.
    """
    acc = 0.0
    for d in range(4):
        acc += p[d]
        if u < acc:
            return d
    for d in (3, 2, 1, 0):
        if p[d] > 0.0:
            return d
    raise ValueError("cannot draw from an all-zero distribution")


def choose_target(agent, source, dist, occupancy, rng):
    """Draw this agent's proposal against the frozen occupancy snapshot.

    norm_zero means motion is forbidden: stay, no randomness consumed.
    Otherwise one draw; if it hits an occupied cell, a second draw over
    {empty neighbors at original p, stay with the occupied mass}.
    """
    if dist.norm_zero:
        return Proposal(agent, source, source)
    p = dist.p
    i, j = source
    d = draw_direction(p, rng.random())
    di, dj = DIR_OFFSETS[d]
    target = (i + di, j + dj)
    if not occupancy[target]:
        return Proposal(agent, source, target)

    masses = [0.0, 0.0, 0.0, 0.0]
    for dd in range(4):
        pd = p[dd]
        if pd <= 0.0:
            continue
        ddi, ddj = DIR_OFFSETS[dd]
        if not occupancy[i + ddi, j + ddj]:
            masses[dd] = pd
    u = rng.random()
    acc = 0.0
    for dd in range(4):
        acc += masses[dd]
        if u < acc:
            ddi, ddj = DIR_OFFSETS[dd]
            return Proposal(agent, source, (i + ddi, j + ddj))
    return Proposal(agent, source, source)


def resolve_conflicts(proposals, mu, rng):
    """Permitted moves after friction.

    Stay-proposals never conflict and are not returned.  Each contested
    target cell, visited in raster order, is dropped entirely with
    probability mu; otherwise one contender wins uniformly.  mu uses
    strict `u < mu`, so mu=0 always resolves and mu=1 never does.
    """
    by_target = {}
    for prop in proposals:
        if prop.target != prop.source:
            by_target.setdefault(prop.target, []).append(prop)
    allowed = []
    for target in sorted(by_target):
        group = by_target[target]
        if len(group) == 1:
            allowed.append(group[0])
            continue
        if rng.random() < mu:
            continue
        k = len(group)
        allowed.append(group[min(int(rng.random() * k), k - 1)])
    return allowed


def oracle_step(state, field, grid, params, tables=None):
    """One step from the scalar pieces above; same contract as engine.step."""
    if tables is None:
        tables = TransitionTables(field, grid, params)
    occ = state.occupancy
    exit_mask = grid.exit_mask
    w = grid.width
    cells_flat = np.fromiter(
        (i * w + j for _, (i, j) in state.agents), dtype=np.int64, count=len(state.agents)
    )
    p_rows, norm_zero = distributions_oracle(tables, occ, cells_flat)

    proposals = []
    for k, (aid, cell) in enumerate(state.agents):
        if exit_mask[cell]:
            proposals.append(Proposal(aid, cell, cell))
            continue
        dist = TransitionDistribution(p=p_rows[k], norm_zero=bool(norm_zero[k]))
        proposals.append(choose_target(aid, cell, dist, occ, state.rng))

    moves = resolve_conflicts(proposals, params.mu, state.rng)

    new_occ = occ.copy()
    moved = {}
    for prop in moves:
        new_occ[prop.source] = 0
    for prop in moves:
        new_occ[prop.target] = 1
        moved[prop.agent] = prop.target

    agents = []
    for aid, cell in state.agents:
        now = moved.get(aid, cell)
        if exit_mask[now]:
            new_occ[now] = 0
        else:
            agents.append((aid, now))
    if int(new_occ.sum()) != len(agents):
        raise RuntimeError("occupancy and agent list disagree")
    return SimulationState(occupancy=new_occ, agents=agents, step=state.step + 1, rng=state.rng)
