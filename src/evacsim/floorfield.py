"""Static floor field: shortest grid distance from every cell to an exit.

Distances are computed once per room over an 8-connected graph: orthogonal
steps cost 1, diagonal steps cost sqrt(2), and a diagonal step is allowed
only when both orthogonal cells it cuts between are free (no squeezing
through wall corners).  Movement during the simulation itself is purely
orthogonal; the diagonal metric only makes the distance field smoother.

The search runs in plain lists over the grid padded with a one-cell wall
ring and flattened row-major: a neighbour is a fixed index offset, the ring
replaces bounds checks, and heap entries (distance, flat index) sort
exactly like (distance, row, column).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

import numpy as np

from .scenario import Grid

SQRT2 = math.sqrt(2.0)


def compute_sff(grid: Grid) -> np.ndarray:
    """Distance to the nearest exit per cell, float64 (height, width): 0 on
    exits, +inf on walls and on cells with no path to any exit."""
    pw = grid.width + 2
    padded = np.ones((grid.height + 2, pw), dtype=bool)
    padded[1:-1, 1:-1] = grid.walls != 0
    blocked = padded.reshape(-1).tolist()
    dist = [math.inf] * len(blocked)
    heap: list[tuple[float, int]] = []
    for i, j in sorted(grid.exits):
        k = (i + 1) * pw + j + 1
        dist[k] = 0.0
        heap.append((0.0, k))
    heapify(heap)
    # DIR_OFFSETS order; each diagonal with the two cells it cuts between
    ortho = (-pw, 1, pw, -1)
    diag = ((-pw - 1, -pw, -1), (-pw + 1, -pw, 1), (pw - 1, pw, -1), (pw + 1, pw, 1))

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
    return np.array(dist).reshape(-1, pw)[1:-1, 1:-1].copy()
