"""Per-direction movement weights and the normalized transition distribution.

For a pedestrian on a cell, each of the four orthogonal directions d gets
an unnormalized weight

    p~_d = exp( k_S * dS_d  -  k_P * D_d(r*_d)  -  k_W * (1 - r*_d / r) * 1[dS_d >= max dS] )

and p~_d = 0 when the neighbor is a wall (or out of bounds / unreachable).
dS_d is the static-field drop in that direction, D_d the kernel density of
people ahead, and the wall term punishes short sight lines but only along
the currently best direction(s); ties are all penalized.  Normalizing by
the sum gives the distribution; an all-blocked cell has norm 0 and yields
the flagged zero distribution instead.

TransitionTables precomputes everything static per grid and (k_S, k_W, r)
(field drops, sight lines, wall terms, kernel weights per r*) so that a
step only gathers occupancy along rays and exponentiates with its k_P.
The same rules written one cell and one direction at a time live in the
test suite's oracles, as the reference these tables are checked against.

r*_d counts the free cells up to the first blocked cell ahead, the edge
included, at most n = min(r, max(h, w)) (people do not block sight), and

    D_d = min(1, (1/r*) * sum_{m=1..r*} phi(m / C) * occupancy[cell + m*d]),  C = (r* + 1) / sqrt(5)

so nearer people weigh more than distant ones.  The sum over m is
numpy's sum along a row of r entries, in its order: distributions follows
that order both when it sums rows of products and when, in calls with many
agents and rays of at most 15 cells, it adds the products column by column.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import DIR_OFFSETS, Grid, ModelParams

SQRT5 = math.sqrt(5.0)

# Epanechnikov-type kernel: phi(z) = (0.335 - 0.067 z^2) * 4.4742 inside
# |z| <= sqrt(5), zero outside.  The scale makes the peak ~1.4989.
_KERNEL_A = 0.335
_KERNEL_B = 0.067
_KERNEL_SCALE = 4.4742

# distributions adds rays of at most 15 cells column by column (_crowd) in
# calls of at least this many agents.  Against .sum(axis=2) (_crowd on the
# first agents of big_room's crowd, best of 3 x 5 alternating rounds, 2-core
# x86 host, numpy 2.4.6) the column sums cost 1.9-2.6x at one agent for r =
# 10-16, 1.02-1.24x at 64 agents, 0.92x at 128 agents for r = 10 (0.97-1.06x
# for r = 12-15, 0.91-0.96x at 192), and 0.68-0.81x at 1,080 agents.
_COLUMN_SUM_AGENTS = 128


class TransitionTables:
    """Static factors per grid and (k_S, k_W, r), flattened row-major.

    Per direction d and cell: static_expo (field drop and wall term), nbr
    (cell + offset[d] if that neighbour is free, else the cell itself) and
    row_key = d * (n + 1) + r*_d.  r*_d, the free cells up to the first
    blocked cell ahead, the edge included, at most n, is one prefix minimum
    per direction over the walls, so the build's work grows with the room,
    not with r, apart from the r-column ray rows.  The m-th ray cell is
    cell + m * offset[d] and its kernel weight depends on (m, r*) alone, so
    the rays are rows of three 4 * (n + 1)-row tables that row_key selects:
    off_rows (m * offset[d] up to r*, 0 past it, so every index is in the
    grid), w_rows (weights, 0.0 past r*) and div_rows (max(r*, 1)); 96 B per
    cell.  The rows keep r columns: the ray length sets numpy's summation
    order (pairwise, with eight accumulators from 8 entries on), so p's
    bits depend on it.  distributions reads the rows as they are in small
    calls and through their transposes, column by column, in large ones.  Past r* a ray stays on its own
    occupied cell, where weight 0.0 gives a +0.0 product just as per-cell
    (size, r) rays do, so p has their bits.

    field is compute_sff's array.  Of params only k_s, k_w and r are read.
    """

    def __init__(self, field: np.ndarray, grid: Grid, params: ModelParams):
        h, w = grid.height, grid.width
        r = params.r
        n = min(r, max(h, w))
        s_flat = field.reshape(-1)
        r_star = np.zeros((4, h * w), dtype=np.int64)
        # the scans' columns in the narrowest integer that holds the longer side
        cols_type = np.min_scalar_type(max(h, w))
        # views of an (h, w) plane in which d runs along the rows, to higher columns
        views = (lambda a: a.T[:, ::-1], lambda a: a, lambda a: a.T, lambda a: a[:, ::-1])
        for d, view in enumerate(views):
            ahead = view(grid.walls)
            cols = np.arange(ahead.shape[1], dtype=cols_type)
            # the first blocked column past each cell, the edge included; r* stays 0 at the edge
            first = np.minimum.accumulate(np.where(ahead, cols, cols.size)[:, :0:-1], axis=1)
            np.minimum(first[:, ::-1] - cols[1:], n, out=view(r_star[d].reshape(h, w))[:, :-1])
        offsets = np.array([di * w + dj for di, dj in DIR_OFFSETS])
        # nbr: the cell + offset[d] where that neighbour is free, else the cell;
        # ds: the field drop towards it, where both ends reach an exit
        ok = r_star > 0
        nbr = ok * offsets[:, None]
        nbr += np.arange(h * w)
        ds = s_flat.take(nbr)
        ok &= np.isfinite(ds)
        ok &= np.isfinite(s_flat)
        np.subtract(s_flat, ds, out=ds, where=ok)
        ds[~ok] = -np.inf

        # static_expo = k_s * ds - k_w * (1 - r*/r) * [ds >= max ds], or -inf
        # where ds is (k_s = 0 would make it NaN), in that operation order; off
        # the best directions the wall term is +0.0 and x - 0.0 = x
        best = ds >= ds.max(axis=0)
        np.multiply(params.k_s, ds, out=ds, where=ok)
        wall = np.divide(r_star[best], r)
        np.subtract(1.0, wall, out=wall)
        np.multiply(params.k_w, wall, out=wall)
        ds[best] -= wall
        self.static_expo = ds
        self.nbr = nbr
        self.row_key = np.add(r_star, (n + 1) * np.arange(4)[:, None], out=r_star)

        # row r* of the ray tables; m <= r* keeps z = m / C below sqrt(5),
        # inside the kernel's support
        rs = np.arange(n + 1)
        steps = np.arange(1, r + 1)
        past = steps > rs[:, None]
        z = steps.astype(np.float64) / ((rs + 1) / SQRT5)[:, None]
        phi = (_KERNEL_A - _KERNEL_B * (z * z)) * _KERNEL_SCALE
        self.off_rows = (offsets[:, None, None] * np.where(past, 0, steps)).reshape(-1, r)
        self.w_rows = np.tile(np.where(past, 0.0, phi), (4, 1))
        self.div_rows = np.tile(np.maximum(rs, 1).astype(np.float64), 4)

    def distributions(self, occupancy: np.ndarray, cells_flat: np.ndarray,
                      k_p: float | np.ndarray, slots: np.ndarray | None = None):
        """Distributions of the flat cells against occupancy, crowd weight k_p.

        occupancy may stack rooms of this grid on its row axis, as
        engine.SimulationState does: slots then index the cells in the
        stack (by default they are cells_flat), rays stay in their own
        room, and k_p is a float or one per cell (the same multiply either
        way).

        Returns (p, norm_zero): p is (n, 4) rows summing to 1 (all-zero where
        norm_zero), the transpose of a contiguous (4, n) array; norm_zero is
        (n,) bool.

        All four directions are gathered at once as rays rebuilt from the
        row tables.  Each ray is added in the order of numpy's sum along
        its contiguous length-r row: calls of at least _COLUMN_SUM_AGENTS
        agents with rays of at most 15 cells add r columns of rays in
        numpy's pairwise order, any other call sums (4, n, r) rows
        (_crowd).  The norm adds the four weights as ((w0 + w1) + w2) + w3,
        the order of numpy's sum along a contiguous 4-entry row, so every
        float operation matches the per-direction evaluation bit for bit.
        """
        key = self.row_key.take(cells_flat, axis=1)
        crowd = _crowd(occupancy.reshape(-1), self.off_rows, self.w_rows, key,
                       cells_flat if slots is None else slots)
        # crowd >= 0 (occupancy and kernel weights are), so of the clamp to
        # [0, 1] only the upper bound can bind
        dens = np.minimum(crowd / self.div_rows.take(key), 1.0)
        weights = np.exp(self.static_expo.take(cells_flat, axis=1) - k_p * dens)
        norm = ((weights[0] + weights[1]) + weights[2]) + weights[3]
        norm_zero = norm == 0.0
        # an all-zero row divided by 1 stays all zero
        p = weights / np.where(norm_zero, 1.0, norm)
        return p.T, norm_zero


def _crowd(occupancy, off_rows, w_rows, key, slots):
    """The (4, n) ray sums of distributions: sum_m w_m * occupancy[slot + off_m].

    occupancy is flat, key holds the (4, n) rows of off_rows and w_rows and
    slots the (n,) cells the rays start from.  Every ray is added in the
    order of numpy's sum along a contiguous row.  Calls of fewer than
    _COLUMN_SUM_AGENTS agents, or with rays of 16 cells or more, make that
    sum: (4, n, r) products and .sum(axis=2).  The others gather the
    products as r columns of 4n rays and add the columns in numpy's order
    for a row of r < 16 entries: below 8 in sequence, from 8 on the first
    eight as ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)), then the
    remaining columns in sequence.  (From 16 entries on numpy adds each
    further eight columns into its eight accumulators first; from 129 on it
    splits the row in halves.)  numpy starts its sum from +0.0, which
    changes no bit here: the products are never -0.0.
    """
    r = off_rows.shape[1]
    if slots.size < _COLUMN_SUM_AGENTS or r >= 16:
        ray = off_rows.take(key, axis=0)
        ray += slots[:, None]
        return (occupancy.take(ray) * w_rows.take(key, axis=0)).sum(axis=2)
    ray = off_rows.T.take(key, axis=1)
    ray += slots
    cols = w_rows.T.take(key, axis=1)
    cols *= occupancy.take(ray)
    if r < 8:
        total, rest = cols[0], range(1, r)
    else:
        acc = cols[0:8:2] + cols[1:8:2]
        acc = acc[0::2] + acc[1::2]
        total, rest = acc[0] + acc[1], range(8, r)
    for c in rest:
        total += cols[c]
    return total
