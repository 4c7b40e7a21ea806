"""Reference implementations for the test suite.

sff_oracle and density_oracle are deliberately written against the model
definitions alone, with different algorithms and data structures than the
package (plain lists and Gauss-Seidel relaxation instead of numpy and a
heap), so agreement between the two is meaningful evidence rather than a
tautology.

sff_heapq_oracle and tables_oracle are the package's earlier set-up code,
kept verbatim: a heap Dijkstra indexing the 2-D arrays cell by cell, and a
TransitionTables build that walks every ray one offset at a time.  The
package's flat-index Dijkstra and in-place tables build must reproduce
them byte for byte.

The scalar step (distributions_oracle, Proposal, draw_direction,
choose_target, resolve_conflicts, oracle_step) is the per-agent reference
for the package's array kernel in engine.step: one table gather per
direction, one Proposal per agent, one generator call per draw, conflicts
grouped in a dict.  It consumes the generator in the documented order, so
engine.step must match it exactly, generator state included.

The scalar reference path at the end of the file evaluates the model's
rules one cell and one direction at a time, straight from their
definitions: the field drop dS (delta_s, max_delta_s), the sight line r*
(obstacle_distance), the kernel density D of people ahead (kernel_phi,
bandwidth, density) and the transition weights and distribution built
from them (unnormalized_weight, direction_weights,
transition_distribution).  TransitionTables precomputes the same factors
for the whole grid and must agree with this path.  serialize_scenario and
parse_snapshot invert parse_scenario and the ASCII half of render_snapshot
for round-trip tests.

placement_oracle is the per-agent loop scenario.validate ran before
scenario.place took the placement rule over (less its reachability
test): tuple cells in a set, the 2-D wall array indexed cell by cell.
place must give its messages, in its order.  in_bounds is the grid-bounds
test it and the scalar path share.
"""

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from evacsim.scenario import (
    AGENT_GLYPH,
    DIR_OFFSETS,
    EXIT_GLYPH,
    FLOOR_GLYPH,
    PARAM_ATTRS,
    WALL_GLYPH,
    Cell,
    Grid,
    ModelParams,
    Scenario,
)
from evacsim.transition import _KERNEL_A, _KERNEL_B, _KERNEL_SCALE

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


_DIAG_OFFSETS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def sff_heapq_oracle(grid):
    """Multi-source Dijkstra from all exit cells at once."""
    h, w = grid.height, grid.width
    walls = grid.walls
    dist = np.full((h, w), np.inf, dtype=np.float64)
    heap: list[tuple[float, int, int]] = []
    for i, j in sorted(grid.exits):
        dist[i, j] = 0.0
        heap.append((0.0, i, j))
    heapq.heapify(heap)

    while heap:
        d, i, j = heapq.heappop(heap)
        if d > dist[i, j]:
            continue
        for di, dj in DIR_OFFSETS:
            ni, nj = i + di, j + dj
            if 0 <= ni < h and 0 <= nj < w and not walls[ni, nj]:
                nd = d + 1.0
                if nd < dist[ni, nj]:
                    dist[ni, nj] = nd
                    heapq.heappush(heap, (nd, ni, nj))
        for di, dj in _DIAG_OFFSETS:
            ni, nj = i + di, j + dj
            if not (0 <= ni < h and 0 <= nj < w) or walls[ni, nj]:
                continue
            # corner rule: both cells the diagonal cuts between must be free
            if walls[i + di, j] or walls[i, j + dj]:
                continue
            nd = d + SQRT2
            if nd < dist[ni, nj]:
                dist[ni, nj] = nd
                heapq.heappush(heap, (nd, ni, nj))
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


def expand_tables(tables):
    """TransitionTables' per-r* rows expanded to per-cell arrays.

    Returns {attribute name: array} for static_expo, the (4, size, r) rays
    ray_idx (cell indices) and ray_w (kernel weights), and the (4, size)
    divisors ray_div, as tables_oracle builds them.
    """
    key = tables.row_key
    return {
        "static_expo": tables.static_expo,
        "ray_idx": tables.off_rows[key] + np.arange(key.shape[1])[:, None],
        "ray_w": tables.w_rows[key],
        "ray_div": tables.div_rows[key],
    }


def distributions_oracle(tables, occupancy, cells_flat, k_p):
    """TransitionTables.distributions evaluated one direction at a time,
    from the expanded per-cell rays."""
    occ_flat = occupancy.reshape(-1).astype(np.float64, copy=False)
    full = expand_tables(tables)
    weights = np.empty((len(cells_flat), 4), dtype=np.float64)
    for d in range(4):
        crowd = (occ_flat[full["ray_idx"][d, cells_flat]] * full["ray_w"][d, cells_flat]).sum(axis=1)
        dens = np.clip(crowd / full["ray_div"][d, cells_flat], 0.0, 1.0)
        weights[:, d] = np.exp(full["static_expo"][d, cells_flat] - k_p * dens)
    norm = weights.sum(axis=1)
    norm_zero = norm == 0.0
    p = np.zeros_like(weights)
    np.divide(weights, norm[:, None], out=p, where=~norm_zero[:, None])
    return p, norm_zero


def _phi_vec(z: np.ndarray) -> np.ndarray:
    zz = z * z
    return np.where(zz >= 5.0, 0.0, (_KERNEL_A - _KERNEL_B * zz) * _KERNEL_SCALE)


def tables_oracle(field, grid, params):
    """TransitionTables' arrays built one ray offset at a time.

    Returns {attribute name: array} for static_expo, ray_idx, ray_w and
    ray_div.
    """
    h, w = grid.height, grid.width
    size = h * w
    s_flat = field.reshape(-1)
    free = (grid.walls == 0)
    free_flat = free.reshape(-1)

    ii, jj = np.divmod(np.arange(size), w)
    ds = np.full((4, size), -np.inf)
    valid = np.zeros((4, size), dtype=bool)
    r_star = np.zeros((4, size), dtype=np.int64)
    ray_idx = np.zeros((4, size, params.r), dtype=np.int64)
    ray_w = np.zeros((4, size, params.r), dtype=np.float64)

    for d, (di, dj) in enumerate(DIR_OFFSETS):
        ni, nj = ii + di, jj + dj
        inb = (ni >= 0) & (ni < h) & (nj >= 0) & (nj < w)
        nidx = np.where(inb, ni * w + nj, np.arange(size))
        ok = inb & free_flat[nidx] & np.isfinite(s_flat[nidx]) & np.isfinite(s_flat)
        with np.errstate(invalid="ignore"):
            diff = s_flat - s_flat[nidx]
        ds[d] = np.where(ok, diff, -np.inf)
        valid[d] = ok

        run = np.ones(size, dtype=bool)
        for m in range(1, params.r + 1):
            mi, mj = ii + m * di, jj + m * dj
            minb = (mi >= 0) & (mi < h) & (mj >= 0) & (mj < w)
            midx = np.where(minb, mi * w + mj, np.arange(size))
            run = run & minb & free_flat[midx]
            r_star[d] += run
            ray_idx[d, :, m - 1] = np.where(run, midx, np.arange(size))
        c = (r_star[d] + 1) / SQRT5
        for m in range(1, params.r + 1):
            ray_w[d, :, m - 1] = np.where(m <= r_star[d], _phi_vec(m / c), 0.0)

    max_ds = ds.max(axis=0)
    wall_term = params.k_w * (1.0 - r_star / params.r) * (ds >= max_ds)
    with np.errstate(invalid="ignore"):  # k_s = 0 makes 0 * -inf in the dead branch
        static_expo = np.where(valid, params.k_s * ds - wall_term, -np.inf)
    return {
        "static_expo": static_expo,
        "ray_idx": ray_idx,
        "ray_w": ray_w,
        "ray_div": np.maximum(r_star, 1).astype(np.float64),
    }


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


def oracle_step(state, grid, params, tables):
    """One step of a single run from the scalar pieces above; same contract
    as engine.step on a state of one run."""
    occ = state.occupancy
    exit_mask = grid.exit_mask
    w = grid.width
    cells_flat = np.fromiter(
        (i * w + j for _, (i, j) in state.agents), dtype=np.int64, count=len(state.agents)
    )
    p_rows, norm_zero = distributions_oracle(tables, occ, cells_flat, params.k_p)

    proposals = []
    for k, (aid, cell) in enumerate(state.agents):
        if exit_mask[cell]:
            proposals.append(Proposal(aid, cell, cell))
            continue
        dist = TransitionDistribution(p=p_rows[k], norm_zero=bool(norm_zero[k]))
        proposals.append(choose_target(aid, cell, dist, occ, state.rngs[0]))

    moves = resolve_conflicts(proposals, params.mu, state.rngs[0])

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
    ids = np.array([aid for aid, _ in agents], dtype=np.int64)
    cells = np.array([i * w + j for _, (i, j) in agents], dtype=np.int64)
    return replace(state, occupancy=new_occ, ids=ids, cells=cells, step=state.step + 1)


# -- the scalar reference path: one cell, one direction at a time ---------

_SUPPORT_SQ = 5.0


def kernel_phi(z: float) -> float:
    """Kernel weight at z.  Even, nonnegative, exactly 0 outside the support.

    Branches on z*z >= 5 so the boundary value is exactly 0.0 (the
    polynomial evaluated at float sqrt(5) would land a few ulp below zero).
    """
    zz = z * z
    if zz >= _SUPPORT_SQ:
        return 0.0
    return (_KERNEL_A - _KERNEL_B * zz) * _KERNEL_SCALE


def bandwidth(r_star: int) -> float:
    """Kernel bandwidth C(r*) = (r* + 1) / sqrt(5); grows with visibility."""
    return (r_star + 1) / SQRT5


def obstacle_distance(grid: Grid, cell: Cell, direction: int, r: int) -> int:
    """Free cells from cell along direction before the first wall, capped at r.

    Out-of-bounds terminates the ray like a wall.  0 means the adjacent
    cell is already blocked.
    """
    i, j = cell
    di, dj = DIR_OFFSETS[direction]
    h, w = grid.height, grid.width
    walls = grid.walls
    count = 0
    while count < r:
        i += di
        j += dj
        if not (0 <= i < h and 0 <= j < w) or walls[i, j]:
            break
        count += 1
    return count


def density(occupancy: np.ndarray, cell: Cell, direction: int, r_star: int) -> float:
    """Kernel density of people over the r* visible cells, clamped to [0, 1].

    D = (1/r*) * sum_{m=1..r*} phi(m / C(r*)) * occupancy[cell + m*dir]

    The raw sum can slightly exceed 1 when every visible cell is occupied
    (the kernel mass is normalised on the continuum, not on the lattice),
    so the result is clamped before it enters the transition exponent.
    Requires r_star >= 1 and all r* ray cells in bounds; use
    obstacle_distance to get a legal r*.
    """
    if r_star < 1:
        raise ValueError(f"r_star must be >= 1, got {r_star}")
    i, j = cell
    di, dj = DIR_OFFSETS[direction]
    c = bandwidth(r_star)
    total = 0.0
    for m in range(1, r_star + 1):
        f = occupancy[i + m * di, j + m * dj]
        if f:
            total += kernel_phi(m / c) * f
    d = total / r_star
    if d < 0.0:
        return 0.0
    return min(d, 1.0)


NEG_INF = float("-inf")


def delta_s(field: np.ndarray, cell: Cell, direction: int) -> float:
    """Distance gained by stepping from cell in direction: S[cell] - S[next].

    Positive toward the exit, in [-1, 1] for walkable neighbors.  Returns
    NEG_INF when the neighbor is out of bounds, a wall, or unreachable
    (infinite S), so callers can drop the direction outright.  The cell
    itself must be walkable with finite S.
    """
    i, j = cell
    di, dj = DIR_OFFSETS[direction]
    ni, nj = i + di, j + dj
    if not (0 <= ni < field.shape[0] and 0 <= nj < field.shape[1]):
        return NEG_INF
    s_next = field[ni, nj]
    if not math.isfinite(s_next):
        return NEG_INF
    return float(field[i, j] - s_next)


def max_delta_s(field: np.ndarray, cell: Cell) -> float:
    """Best delta_s over the four directions; NEG_INF if every one is blocked."""
    return max(delta_s(field, cell, d) for d in range(4))


@dataclass(frozen=True)
class DirectionWeights:
    """Unnormalized weights p~ per direction (up, right, down, left) and their sum."""

    p_tilde: np.ndarray
    norm: float


@dataclass(frozen=True)
class TransitionDistribution:
    """Normalized movement distribution; norm_zero means motion is forbidden."""

    p: np.ndarray
    norm_zero: bool


def in_bounds(grid: Grid, cell: Cell) -> bool:
    i, j = cell
    return 0 <= i < grid.height and 0 <= j < grid.width


def placement_oracle(grid: Grid, cells) -> list[str]:
    """One message per agent cell that breaks the placement rule, in order."""
    problems: list[str] = []
    seen: set[Cell] = set()
    for cell in cells:
        if not in_bounds(grid, cell):
            problems.append(f"agent out of bounds at {cell}")
            continue
        if cell in seen:
            problems.append(f"cell occupied twice at {cell}")
            continue
        seen.add(cell)
        if grid.walls[cell]:
            problems.append(f"agent on wall at {cell}")
    return problems


def unnormalized_weight(
    field: np.ndarray,
    grid: Grid,
    occupancy: np.ndarray,
    cell: Cell,
    direction: int,
    params: ModelParams,
) -> float:
    """p~ for one direction; exactly 0.0 for walls and unreachable neighbors."""
    i, j = cell
    di, dj = DIR_OFFSETS[direction]
    ni, nj = i + di, j + dj
    if not in_bounds(grid, (ni, nj)) or grid.walls[ni, nj]:
        return 0.0
    ds = delta_s(field, cell, direction)
    if ds == NEG_INF:
        return 0.0
    r_star = obstacle_distance(grid, cell, direction, params.r)
    # the neighbor itself is free, so at least one cell is visible
    dens = density(occupancy, cell, direction, r_star)
    expo = params.k_s * ds - params.k_p * dens
    if ds >= max_delta_s(field, cell):
        expo -= params.k_w * (1.0 - r_star / params.r)
    return math.exp(expo)


def direction_weights(
    field: np.ndarray,
    grid: Grid,
    occupancy: np.ndarray,
    cell: Cell,
    params: ModelParams,
) -> DirectionWeights:
    p_tilde = np.array(
        [unnormalized_weight(field, grid, occupancy, cell, d, params) for d in range(4)],
        dtype=np.float64,
    )
    return DirectionWeights(p_tilde=p_tilde, norm=float(p_tilde.sum()))


def transition_distribution(
    field: np.ndarray,
    grid: Grid,
    occupancy: np.ndarray,
    cell: Cell,
    params: ModelParams,
) -> TransitionDistribution:
    """Normalized distribution over the four directions for one pedestrian.

    p sums to 1 except on an all-blocked cell, where every entry is 0 and
    norm_zero is set.  p[d] == 0 iff direction d is blocked by a wall (or
    leaves the walkable region).
    """
    w = direction_weights(field, grid, occupancy, cell, params)
    if w.norm == 0.0:
        return TransitionDistribution(p=np.zeros(4), norm_zero=True)
    return TransitionDistribution(p=w.p_tilde / w.norm, norm_zero=False)


def serialize_scenario(scenario: Scenario) -> str:
    """Render a Scenario back to file text (parse . serialize is identity)."""
    out = [f"{key} = {getattr(scenario.params, attr)!r}" for key, attr in PARAM_ATTRS.items()]
    out.append("")
    grid = scenario.grid
    occupied = set(scenario.initial_agents)
    for i in range(grid.height):
        row = []
        for j in range(grid.width):
            if (i, j) in occupied:
                row.append(AGENT_GLYPH)
            elif (i, j) in grid.exits:
                row.append(EXIT_GLYPH)
            elif grid.walls[i, j]:
                row.append(WALL_GLYPH)
            else:
                row.append(FLOOR_GLYPH)
        out.append("".join(row))
    return "\n".join(out) + "\n"


def parse_snapshot(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the ASCII half of render_snapshot: (occupancy, walls)."""
    rows = [line for line in text.split("\n") if line != ""]
    h, w = len(rows), len(rows[0])
    occupancy = np.zeros((h, w), dtype=np.uint8)
    walls = np.zeros((h, w), dtype=np.uint8)
    for i, row in enumerate(rows):
        for j, ch in enumerate(row):
            if ch == AGENT_GLYPH:
                occupancy[i, j] = 1
            elif ch == WALL_GLYPH:
                walls[i, j] = 1
    return occupancy, walls
