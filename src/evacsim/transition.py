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

r*_d is the run of free cells ahead before the first wall, capped at the
sight radius r (people do not block sight), and

    D_d = min(1, (1/r*) * sum_{m=1..r*} phi(m / C) * occupancy[cell + m*d]),  C = (r* + 1) / sqrt(5)

so nearer people weigh more than distant ones.
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


class TransitionTables:
    """Static factors per grid and (k_S, k_W, r), flattened row-major.

    Per direction d and cell: static_expo (field drop and wall term), nbr
    (cell + offset[d] if that neighbour is free, else the cell itself) and
    row_key = d * (n + 1) + r*_d, where n = min(r, max(height, width)) bounds
    r*: no free run in the grid is that long.  The m-th ray cell is
    cell + m * offset[d] and its kernel weight depends on (m, r*) alone, so
    the rays are rows of three 4 * (n + 1)-row tables that row_key selects:
    off_rows (m * offset[d] up to r*, 0 past it, so every index is in the
    grid), w_rows (weights, 0.0 past r*) and div_rows (max(r*, 1)); 96 B per
    cell, and rows sized by the grid, for any r.  The rows keep r columns:
    the ray length sets numpy's summation order, so p's bits depend on it.
    Past r* a ray stays on its own occupied cell, where weight 0.0 gives a
    +0.0 product just as per-cell (size, r) rays do, so p has their bits.

    field is compute_sff's array.  Of params only k_s, k_w and r are read.
    """

    def __init__(self, field: np.ndarray, grid: Grid, params: ModelParams):
        h, w = grid.height, grid.width
        r = params.r
        n = min(r, max(h, w))
        size = h * w
        s_flat = field.reshape(-1)
        free_pad = np.zeros((h + 2 * n, w + 2 * n), dtype=bool)
        free_pad[n:n + h, n:n + w] = grid.walls == 0

        cells = np.arange(size)
        ds = np.full((4, size), -np.inf)
        r_star = np.empty((4, size), dtype=np.int64)
        nbr = np.empty((4, size), dtype=np.int64)
        look = np.empty((n, h, w), dtype=bool)
        for d, (di, dj) in enumerate(DIR_OFFSETS):
            for m in range(1, n + 1):
                look[m - 1] = free_pad[n + m * di:n + m * di + h, n + m * dj:n + m * dj + w]
            # the run of free cells ahead: look[m - 1] becomes "the first m
            # cells are free", and r* counts the m that hold
            for m in range(1, n):
                look[m] &= look[m - 1]
            r_star[d] = look.sum(axis=0).reshape(-1)
            free_next = look[0].reshape(-1)
            nbr[d] = np.where(free_next, cells + (di * w + dj), cells)
            # field drop towards a free neighbour, where both ends reach an exit
            s_next = s_flat[nbr[d]]
            ok = free_next & np.isfinite(s_next) & np.isfinite(s_flat)
            np.subtract(s_flat, s_next, out=ds[d], where=ok)

        # static_expo = k_s * ds - k_w * (1 - r*/r) * [ds >= max ds], or -inf
        # where ds is, built in place in that operation order
        ok = ds > -np.inf
        wall = np.divide(r_star, r)
        np.subtract(1.0, wall, out=wall)
        np.multiply(params.k_w, wall, out=wall)
        np.multiply(wall, ds >= ds.max(axis=0), out=wall)
        with np.errstate(invalid="ignore"):  # k_s = 0 makes 0 * -inf where ok is False
            np.multiply(params.k_s, ds, out=ds)
            np.subtract(ds, wall, out=ds)
        np.copyto(ds, -np.inf, where=~ok)
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
        offsets = np.array([di * w + dj for di, dj in DIR_OFFSETS])
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
        norm_zero), norm_zero is (n,) bool.

        All four directions are gathered at once as (4, n, r) rays rebuilt
        from the row tables.  Each ray is summed over its own contiguous
        length-r axis, and the weights are summed per row of a contiguous
        (n, 4) array, so every float operation matches the per-direction
        evaluation bit for bit.
        """
        key = self.row_key.take(cells_flat, axis=1)
        ray = self.off_rows.take(key, axis=0)
        ray += (cells_flat if slots is None else slots)[:, None]
        crowd = (occupancy.reshape(-1).take(ray) * self.w_rows.take(key, axis=0)).sum(axis=2)
        # crowd >= 0 (occupancy and kernel weights are), so of the clamp to
        # [0, 1] only the upper bound can bind
        dens = np.minimum(crowd / self.div_rows.take(key), 1.0)
        weights = np.exp(self.static_expo.take(cells_flat, axis=1) - k_p * dens)
        weights = np.ascontiguousarray(weights.T)
        norm = weights.sum(axis=1)
        norm_zero = norm == 0.0
        # an all-zero row divided by 1 stays all zero
        p = weights / np.where(norm_zero, 1.0, norm)[:, None]
        return p, norm_zero
