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
gathers occupancy along precomputed rays and exponentiates; the scalar
functions stay as the readable reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floorfield import NEG_INF, StaticField, delta_s, max_delta_s
from .perception import SQRT5, _KERNEL_A, _KERNEL_B, _KERNEL_SCALE, density, obstacle_distance
from .scenario import DIR_OFFSETS, Cell, Grid, ModelParams


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


def unnormalized_weight(
    field: StaticField,
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
    if not grid.in_bounds((ni, nj)) or grid.walls[ni, nj]:
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
    field: StaticField,
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
    field: StaticField,
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


def _phi_vec(z: np.ndarray) -> np.ndarray:
    zz = z * z
    return np.where(zz >= 5.0, 0.0, (_KERNEL_A - _KERNEL_B * zz) * _KERNEL_SCALE)


class TransitionTables:
    """Static per-scenario factors, flattened row-major over the grid.

    For every cell and direction this precomputes the field drop, the sight
    line r*, the wall-term exponent and the kernel ray (cell indices plus
    weights, zero-padded to length r).  distributions() then needs one
    occupancy gather and one exp, shared by all four directions.
    """

    def __init__(self, field: StaticField, grid: Grid, params: ModelParams):
        self.params = params
        h, w = grid.height, grid.width
        size = h * w
        s_flat = field.values.reshape(-1)
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
            self.static_expo = np.where(valid, params.k_s * ds - wall_term, -np.inf)
        self.ray_idx = ray_idx
        self.ray_w = ray_w
        self.ray_div = np.maximum(r_star, 1).astype(np.float64)
        self.r_star = r_star

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
