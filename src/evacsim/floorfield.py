"""Static floor field: shortest grid distance from every cell to an exit.

Distances are computed once per room over an 8-connected graph: orthogonal
steps cost 1, diagonal steps cost sqrt(2), and a diagonal step is allowed
only when both orthogonal cells it cuts between are free (no squeezing
through wall corners).  Movement during the simulation itself is purely
orthogonal; the diagonal metric only makes the distance field smoother.

The search runs over the grid padded with a one-cell wall ring and
flattened row-major: a neighbour is a fixed index offset and the ring
replaces bounds checks.  It is a multi-source Dijkstra in two phases.

- Bucket phase (delta-stepping with unit-width buckets).  Each round takes
  B, the smallest tentative distance among the open cells, and settles as
  one bucket every open cell below B + 1.  A step of each bucket cell in
  each of the 8 directions is relaxed with numpy, through one precomputed
  "step allowed" mask per direction (the corner rule folded into the
  diagonals'), and the same additions as the heap: d + 1.0, d + sqrt(2).
- Heap tail.  When the FRONTIER_ROUNDS-th bucket in a row holds fewer than
  FRONTIER_CELLS cells (a corridor, a detour, a tiny region), numpy's
  fixed cost per round no longer pays: the open cells seed a heap of
  (distance, flat index) entries, which sort exactly like (distance, row,
  column), and the search ends one cell at a time in plain lists.  A room
  that keeps wide fronts to the end never builds the lists at all.
  Grids below BUCKET_MIN_CELLS padded cells run the heap alone: on open
  rooms that small it is as fast (the measurements are at the constant).

Why the bits equal a plain heap Dijkstra's.  Every step costs at least 1
and rounding is monotone, so fl(D + c) < fl(B + 1) implies D < B: the
best predecessor of a bucket cell lies below B, was settled in an earlier
round and has already relaxed it, so every bucket cell is final when its
round starts.  Either way the result is the one fixed point of
D(cell) = min over allowed neighbours k of fl(D(k) + c), the exits at 0:
a min of the same IEEE sums, whatever order they are formed in.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

import numpy as np

from .scenario import Grid

SQRT2 = math.sqrt(2.0)
# padded grids smaller than this run the heap alone; the bits are the same
# either way.  Bucket/heap time a call (2-core x86, min of alternating rounds)
# on enclosed open squares with a 3-cell exit: 0.99-1.06 at 576-676 cells,
# 0.90 at 784, 0.81-0.84 at 1,024, 0.71 at 1,296; paper room (1,517) 0.67,
# corridor30 (175) 12.8.  Rooms whose fronts stay under FRONTIER_CELLS (an
# exit on a short wall, thin walled regions) cross later, up to 2,300 cells
BUCKET_MIN_CELLS = 1024
# hand over to the heap at the FRONTIER_ROUNDS-th bucket in a row with
# fewer than FRONTIER_CELLS cells
FRONTIER_CELLS = 32
FRONTIER_ROUNDS = 32


def compute_sff(grid: Grid) -> np.ndarray:
    """Distance to the nearest exit per cell, float64 (height, width): 0 on
    exits, +inf on walls and on cells with no path to any exit."""
    pw = grid.width + 2
    padded = np.ones((grid.height + 2, pw), dtype=bool)
    padded[1:-1, 1:-1] = grid.walls
    exits = [(i + 1) * pw + j + 1 for i, j in sorted(grid.exits)]
    # DIR_OFFSETS order; each diagonal with the two cells it cuts between
    ortho = (-pw, 1, pw, -1)
    diag = ((-pw - 1, -pw, -1), (-pw + 1, -pw, 1), (pw - 1, pw, -1), (pw + 1, pw, 1))

    if padded.size < BUCKET_MIN_CELLS:
        known = heap = [(0.0, k) for k in exits]
    else:
        field = np.full(padded.size, math.inf)
        open_cells = np.array(exits, dtype=np.intp)
        field[open_cells] = 0.0
        open_cells = _bucket_phase(field, padded.reshape(-1), ortho, diag, open_cells)
        if not open_cells.size:
            return field.reshape(-1, pw)[1:-1, 1:-1].copy()
        reached = np.flatnonzero(field < math.inf)
        known = zip(field[reached].tolist(), reached.tolist())
        heap = list(zip(field[open_cells].tolist(), open_cells.tolist()))
    dist = [math.inf] * padded.size
    for d, k in known:
        dist[k] = d
    heapify(heap)
    blocked = padded.reshape(-1).tolist()

    while heap:
        d, k = heappop(heap)
        if d > dist[k]:
            continue
        nd = d + 1.0
        for o in ortho:
            n = k + o
            if nd < dist[n] and not blocked[n]:
                dist[n] = nd
                heappush(heap, (nd, n))
        nd = d + SQRT2
        for o, a, b in diag:
            n = k + o
            if nd < dist[n] and not (blocked[n] or blocked[k + a] or blocked[k + b]):
                dist[n] = nd
                heappush(heap, (nd, n))
    return np.fromiter(dist, np.float64, len(dist)).reshape(-1, pw)[1:-1, 1:-1].copy()


def _bucket_phase(dist: np.ndarray, blocked: np.ndarray, ortho, diag,
                  open_cells: np.ndarray) -> np.ndarray:
    """Settle dist (flat, padded) in place bucket by bucket; return the
    cells still open when the fronts stay small, or none when done."""
    size = blocked.size
    free = ~blocked
    steps = ortho + tuple(o for o, _, _ in diag)
    # allowed[d, k]: the step from cell k along steps[d] lands on a free
    # cell and, on a diagonal, cuts between two free cells; only free cells
    # are ever open, so the ring keeps every k + steps[d] in the grid
    allowed = np.zeros((8, size), dtype=bool)
    for row, o in zip(allowed, steps):
        if o > 0:
            row[:-o] = free[o:]
        else:
            row[-o:] = free[:o]
    for row, (_, a, b) in zip(allowed[4:], diag):
        row &= allowed[ortho.index(a)] & allowed[ortho.index(b)]
    allowed = allowed.reshape(-1)
    rows = np.arange(0, 8 * size, size)[:, None]
    offsets = np.array(steps)[:, None]
    costs = np.array([1.0] * 4 + [SQRT2] * 4)[:, None]
    slot = np.empty(size, dtype=np.intp)

    small = 0
    while open_cells.size:
        d_open = dist[open_cells]
        in_bucket = d_open < d_open.min() + 1.0
        bucket = open_cells[in_bucket]
        small = small + 1 if bucket.size < FRONTIER_CELLS else 0
        if small == FRONTIER_ROUNDS:
            break
        open_cells = open_cells[~in_bucket]
        ok = allowed.take(bucket + rows)
        n = (bucket + offsets)[ok]
        nd = (d_open[in_bucket] + costs)[ok]
        new = n[dist[n] == math.inf]
        # bucket cells and settled cells lie below every nd, so only open
        # and new cells can fall
        np.minimum.at(dist, n, nd)
        if new.size > 1:
            # a cell reached from several bucket cells is listed once: the
            # position whose number survived the scatter into slot
            pos = np.arange(new.size)
            slot[new] = pos
            new = new[slot[new] == pos]
        open_cells = np.concatenate((open_cells, new))
    return open_cells
