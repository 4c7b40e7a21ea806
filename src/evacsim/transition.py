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

TransitionTables precomputes everything static per scenario (field drops,
sight lines, wall terms, kernel ray weights) so that a simulation step only
gathers occupancy along precomputed rays and exponentiates.  The same
rules written one cell and one direction at a time live in the test
suite's oracles, as the reference these tables are checked against.

r*_d is the run of free cells ahead before the first wall, capped at the
sight radius r (people do not block sight), and

    D_d = min(1, (1/r*) * sum_{m=1..r*} phi(m / C) * occupancy[cell + m*d]),  C = (r* + 1) / sqrt(5)

so nearer people weigh more than distant ones.
"""

from __future__ import annotations

import math

import numpy as np

from .floorfield import StaticField
from .scenario import DIR_OFFSETS, Grid, ModelParams

SQRT5 = math.sqrt(5.0)

# Epanechnikov-type kernel: phi(z) = (0.335 - 0.067 z^2) * 4.4742 inside
# |z| <= sqrt(5), zero outside.  The scale makes the peak ~1.4989.
_KERNEL_A = 0.335
_KERNEL_B = 0.067
_KERNEL_SCALE = 4.4742


class TransitionTables:
    """Static per-scenario factors, flattened row-major over the grid.

    For every cell and direction this precomputes the field drop, the sight
    line r*, the wall-term exponent and the kernel ray (cell indices plus
    weights, zero-padded to length r).  distributions() then needs one
    occupancy gather and one exp, shared by all four directions.

    The m-th ray cell of every cell is one shifted slice of a free mask
    padded with r walls; ray_idx and ray_w are filled in place, without
    (size, r) float or int temporaries.
    """

    def __init__(self, field: StaticField, grid: Grid, params: ModelParams):
        self.params = params
        h, w = grid.height, grid.width
        r = params.r
        size = h * w
        s_flat = field.values.reshape(-1)
        free_pad = np.zeros((h + 2 * r, w + 2 * r), dtype=bool)
        free_pad[r:r + h, r:r + w] = grid.walls == 0

        steps = np.arange(1, r + 1)
        ds = np.full((4, size), -np.inf)
        r_star = np.zeros((4, size), dtype=np.int64)
        ray_idx = np.empty((4, size, r), dtype=np.int64)
        ray_w = np.empty((4, size, r), dtype=np.float64)
        look = np.empty((r, h, w), dtype=bool)

        for d, (di, dj) in enumerate(DIR_OFFSETS):
            for m in range(1, r + 1):
                look[m - 1] = free_pad[r + m * di:r + m * di + h, r + m * dj:r + m * dj + w]
            # the run of free cells ahead, as (size, r): ray cells or the cell itself
            np.logical_and.accumulate(look, axis=0, out=look)
            run = look.reshape(r, size).T
            r_star[d] = look.sum(axis=0).reshape(-1)
            ray_idx[d] = np.arange(size)[:, None]
            np.add(ray_idx[d], steps * (di * w + dj), out=ray_idx[d], where=run)
            # field drop towards a free neighbour, where both ends reach an exit
            s_next = s_flat[ray_idx[d, :, 0]]
            ok = run[:, 0] & np.isfinite(s_next) & np.isfinite(s_flat)
            np.subtract(s_flat, s_next, out=ds[d], where=ok)

            # kernel weights phi(m / C) with C = (r* + 1) / sqrt(5), 0 past r*;
            # m <= r* keeps z below sqrt(5), inside the kernel's support
            zz = ray_w[d]
            np.divide(steps.astype(np.float64), ((r_star[d] + 1) / SQRT5)[:, None], out=zz)
            np.multiply(zz, zz, out=zz)
            np.multiply(_KERNEL_B, zz, out=zz)
            np.subtract(_KERNEL_A, zz, out=zz)
            np.multiply(zz, _KERNEL_SCALE, out=zz)
            np.copyto(zz, 0.0, where=~run)

        max_ds = ds.max(axis=0)
        wall_term = params.k_w * (1.0 - r_star / params.r) * (ds >= max_ds)
        with np.errstate(invalid="ignore"):  # k_s = 0 makes 0 * -inf in the dead branch
            self.static_expo = np.where(ds > -np.inf, params.k_s * ds - wall_term, -np.inf)
        self.ray_idx = ray_idx
        self.ray_w = ray_w
        self.ray_div = np.maximum(r_star, 1).astype(np.float64)

    def distributions(self, occupancy: np.ndarray, cells_flat: np.ndarray):
        """Distributions for the given flat cell indices against occupancy.

        Returns (p, norm_zero): p is (n, 4) rows summing to 1 (all-zero where
        norm_zero), norm_zero is (n,) bool.

        All four directions are gathered at once.  Each ray is still summed
        over its own contiguous length-r axis, and the weights are summed per
        row of a contiguous (n, 4) array, so every float operation matches
        the per-direction evaluation bit for bit.
        """
        crowd = (occupancy.reshape(-1)[self.ray_idx[:, cells_flat]]
                 * self.ray_w[:, cells_flat]).sum(axis=2)
        # crowd >= 0 (occupancy and kernel weights are), so of the clamp to
        # [0, 1] only the upper bound can bind
        dens = np.minimum(crowd / self.ray_div[:, cells_flat], 1.0)
        weights = np.exp(self.static_expo[:, cells_flat] - self.params.k_p * dens)
        weights = np.ascontiguousarray(weights.T)
        norm = weights.sum(axis=1)
        norm_zero = norm == 0.0
        # an all-zero row divided by 1 stays all zero
        p = weights / np.where(norm_zero, 1.0, norm)[:, None]
        return p, norm_zero
