"""Large rooms built in code, for the static field's bucket phase.

Each room is plain arithmetic on the cell coordinates, with no random
generator, so the same call gives the same grid on any numpy: their SFF
bytes are pinned against history in data/large_sff_sha256.json.

- exit_wall: an open room whose whole east wall is exit; every bucket is
  a full column, so the search ends inside the bucket phase.
- serpentine: a 1-wide corridor folded through a 301 x 301 room; every
  bucket holds a cell or two, so the search hands over to the heap as soon
  as the warm-up allows.
- funnel: an open room with a door on its west wall and a long 1-wide
  corridor leaving its east wall; the search hands over mid-run, when its
  front enters the corridor.
- pillars: a room with a regular pattern of pillars and wall stubs, exits
  on the east wall.
"""

import numpy as np

from evacsim.scenario import Grid


def _grid(walls, exits):
    exits = frozenset(exits)
    for cell in exits:
        walls[cell] = 0
    return Grid(walls, exits)


def _enclosed(h, w):
    walls = np.zeros((h, w), dtype=np.uint8)
    walls[0, :] = walls[-1, :] = 1
    walls[:, 0] = walls[:, -1] = 1
    return walls


def exit_wall(h=100, w=120):
    return _grid(_enclosed(h, w), [(i, w - 1) for i in range(1, h - 1)])


def serpentine(n=301):
    # corridors on odd rows; the wall row below each has one gap, at the
    # east end below even corridors and at the west end below odd ones
    walls = np.ones((n, n), dtype=np.uint8)
    walls[1:n - 1:2, 1:n - 1] = 0
    for k, i in enumerate(range(2, n - 2, 2)):
        walls[i, n - 2 if k % 2 == 0 else 1] = 0
    return _grid(walls, [(1, 0)])


def funnel(side=160, corridor=240):
    walls = np.ones((side, side + corridor), dtype=np.uint8)
    walls[1:side - 1, 1:side - 1] = 0
    walls[side // 2, side - 1:side + corridor - 1] = 0
    return _grid(walls, [(side // 2, 0)])


def pillars(h=150, w=170):
    walls = _enclosed(h, w)
    i, j = np.indices((h, w))
    walls[(i % 6 == 3) & (j % 7 < 3)] = 1
    walls[(j % 11 == 5) & ((i + 2 * j) % 13 < 5)] = 1
    return _grid(walls, [(i, w - 1) for i in range(h // 3, h // 3 + 5)])


ROOMS = {"exit_wall": exit_wall, "serpentine": serpentine, "funnel": funnel, "pillars": pillars}
