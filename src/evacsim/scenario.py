"""Scenario definition: room geometry, agents, model parameters, file I/O.

Scenario files are plain 7-bit ASCII: ``key = value`` parameter lines giving
exactly the keys k_S, k_P, k_W, r, mu, seed, max_steps, then a rectangular
character map of the room.  Parameters up to the first blank line, the map
from its first filled line to its last: blank lines around the map are
accepted, blank lines inside it are not::

    k_S = 4
    k_P = 6
    k_W = 4
    r = 10
    mu = 0.0
    seed = 1
    max_steps = 1000

    #######
    #P....E
    #######

Map glyphs: ``#`` wall, ``.`` empty floor, ``E`` exit, ``P`` pedestrian.
Every cell is 0.4 m on a side.  The map must be wall-enclosed except at
exits; that (together with agent placement) is checked by :func:`validate`,
not by the parser, so that partially built rooms can still be loaded and
inspected.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

WALL_GLYPH = "#"
FLOOR_GLYPH = "."
EXIT_GLYPH = "E"
AGENT_GLYPH = "P"
_GLYPHS = frozenset((WALL_GLYPH, FLOOR_GLYPH, EXIT_GLYPH, AGENT_GLYPH))

# Movement directions, shared vocabulary for the whole package.  Row-major
# grid, row 0 at the top, so "up" decreases the row index.
DIR_OFFSETS = ((-1, 0), (0, 1), (1, 0), (0, -1))

# file key -> (ModelParams attribute, type of the parsed value, range test,
# the range in words), in the file's key order; the one statement of each
# parameter's rule
_WEIGHT = (float, lambda v: math.isfinite(v) and v >= 0.0, "a finite real >= 0")
PARAMS = {
    # k_S weighs dS, the field drop to an orthogonal neighbour: at most 1 plus
    # rounding, and the exponent's other terms only subtract.  Four weights of
    # at most e^708.01 stay below the largest double, e^709.78 (4 < e^1.39).
    "k_S": ("k_s", float, lambda v: 0.0 <= v <= 708.0, "a real in [0, 708]"),
    "k_P": ("k_p", *_WEIGHT),
    "k_W": ("k_w", *_WEIGHT),
    "r": ("r", int, lambda v: v >= 1, "an integer >= 1"),
    "mu": ("mu", float, lambda v: 0.0 <= v <= 1.0, "a real in [0, 1]"),
    "seed": ("seed", int, lambda v: 0 <= v < 2**64, "an integer in [0, 2^64)"),
    "max_steps": ("max_steps", int, lambda v: v >= 1, "an integer >= 1"),
}

Cell = tuple[int, int]


class ScenarioError(ValueError):
    """Malformed scenario text or an out-of-range parameter value.

    Carries the 1-based line (and column, when it makes sense) of the
    offending input so CLI error messages can point at the file.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def place(walls: np.ndarray, cells, noun: str = "agent") -> tuple[np.ndarray, list[str]]:
    """The placement rule: a cell is two integers (not bool) on the grid of
    walls (a Grid's bool mask), not a wall, and no earlier cell's.  Returns,
    in the cells' order, the int64 flat row-major index of each cell that
    keeps it and a message for each other."""
    h, w = walls.shape
    blocked = walls.tobytes()
    flat: list[int] = []
    problems: list[str] = []
    seen: set[int] = set()
    for i, j in cells:
        if type(i) is not int or type(j) is not int:
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (i, j)):
                problems.append(f"{noun} at {(i, j)} is not two integers")
                continue
        if not (0 <= i < h and 0 <= j < w):
            problems.append(f"{noun} out of bounds at {(i, j)}")
            continue
        k = i * w + j
        if k in seen:
            problems.append(f"cell occupied twice at {(i, j)}")
            continue
        seen.add(k)
        if blocked[k]:
            problems.append(f"{noun} on wall at {(i, j)}")
        else:
            flat.append(k)
    return np.array(flat, dtype=np.int64), problems


@dataclass(frozen=True, eq=False)
class Grid:
    """Room geometry: wall mask plus the set of exit cells.

    Built from walls, a 2-D array nonzero where movement is blocked, and
    the exit cells.  The grid keeps its own read-only bool copy of the mask
    as walls (so later writes to the given array do not reach it), height
    and width are its shape, and exit_mask is a read-only bool mask of the
    exits.  Exit cells are always free floor.  An exit-less grid can be
    built (it shows up while editing rooms) but fails scenario validation.
    """

    walls: np.ndarray
    exits: frozenset[Cell]
    height: int = field(init=False)
    width: int = field(init=False)
    exit_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        walls = np.asarray(self.walls) != 0
        if walls.ndim != 2:
            raise ValueError(f"walls must be 2-D, got shape {walls.shape}")
        flat, problems = place(walls, sorted(self.exits), "exit")
        if problems:
            raise ValueError(problems[0])
        exit_mask = np.zeros(walls.shape, dtype=bool)
        exit_mask.flat[flat] = True
        walls.flags.writeable = exit_mask.flags.writeable = False
        height, width = walls.shape
        for name, value in (("walls", walls), ("height", height), ("width", width),
                            ("exit_mask", exit_mask)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuilt from the two inputs, so a copy's masks are read-only too
        return Grid, (self.walls, self.exits)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.walls, other.walls) and self.exits == other.exits


@dataclass(frozen=True)
class ModelParams:
    """Model parameters.

    k_s, k_p, k_w weight the distance gain, the people density ahead and
    the wall/obstacle penalty in the transition probabilities.  r is the
    sight radius in cells, mu the friction probability of an unresolved
    conflict, seed feeds the run's random generator, max_steps bounds the
    simulation loop.  Each attribute's type and range is its row of PARAMS,
    checked on construction.
    """

    k_s: float
    k_p: float
    k_w: float
    r: int
    mu: float
    seed: int
    max_steps: int

    def __post_init__(self):
        for key, (attr, *_) in PARAMS.items():
            check_param(key, getattr(self, attr))
        # sensitivity to people and walls below the distance sensitivity is
        # legal but usually a sign of a mistyped parameter set
        if self.k_p < self.k_s or self.k_w < self.k_s:
            # name the caller: the first frame outside this module (whose
            # globals the generated __init__ runs in) and dataclasses.replace
            frame, level = sys._getframe(1), 2
            while frame is not None and frame.f_globals.get("__name__") in (__name__, "dataclasses"):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"k_P ({self.k_p}) and k_W ({self.k_w}) are normally >= k_S ({self.k_s})",
                stacklevel=level,
            )


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: grid, initial agent cells (raster order), params."""

    grid: Grid
    initial_agents: tuple[Cell, ...]
    params: ModelParams


def check_param(key: str, value) -> None:
    """Raise ValueError, naming the attribute, unless value has the type and
    range of parameter key (a file key, e.g. "k_S")."""
    attr, kind, in_range, words = PARAMS[key]
    abc = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, abc) or not in_range(value):
        raise ValueError(f"{attr} must be {words}, got {value!r}")


def parse_param(key: str, raw: str, line: int | None = None):
    """Convert the text of parameter key (a file key, e.g. "k_S") and check
    its range; ScenarioError names the key, the text and, given, its line."""
    _, kind, _, words = PARAMS[key]
    try:
        value = kind(raw)
        check_param(key, value)
    except ValueError:
        raise ScenarioError(f"{key}: must be {words}, got {raw!r}", line=line) from None
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a Scenario.

    Parameters up to the first blank line, the map from its first filled
    line to its last: blank lines around the map are accepted, blank lines
    inside it are not.  Raises ScenarioError with a 1-based line (and column
    for map glyph errors) on malformed input: bad syntax, unknown/duplicate/
    missing parameter keys, out-of-range values, ragged or empty maps.
    """
    if not text.isascii():
        raise ScenarioError("scenario file must be 7-bit ASCII")
    lines = text.split("\n")
    sep = next((n for n, line in enumerate(lines) if not line.strip()), len(lines))

    raw_params: dict[str, object] = {}
    for line_no, line in enumerate(lines[:sep], 1):
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", line=line_no)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in PARAMS:
            raise ScenarioError(f"unknown parameter key {key!r}", line=line_no)
        if key in raw_params:
            raise ScenarioError(f"duplicate parameter key {key!r}", line=line_no)
        raw_params[key] = parse_param(key, raw.strip(), line_no)
    missing = [k for k in PARAMS if k not in raw_params]
    if missing:
        raise ScenarioError(f"missing parameter keys: {', '.join(missing)}")

    filled = [n for n in range(sep + 1, len(lines)) if lines[n].strip()]
    if not filled:
        raise ScenarioError("missing map section")
    rows = lines[filled[0]:filled[-1] + 1]
    width = len(rows[0])
    for line_no, line in enumerate(rows, filled[0] + 1):
        if not line.strip():
            raise ScenarioError("blank line inside map", line=line_no)
        if len(line) != width:
            raise ScenarioError(
                f"ragged map row: {len(line)} glyphs, expected {width}", line=line_no
            )
        if not _GLYPHS.issuperset(line):
            col = next(c for c, ch in enumerate(line) if ch not in _GLYPHS)
            raise ScenarioError(
                f"invalid map character {line[col]!r}", line=line_no, column=col + 1
            )

    glyphs = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8).reshape(len(rows), -1)
    walls = glyphs == ord(WALL_GLYPH)
    exits = frozenset(map(tuple, np.argwhere(glyphs == ord(EXIT_GLYPH)).tolist()))
    agents = tuple(map(tuple, np.argwhere(glyphs == ord(AGENT_GLYPH)).tolist()))

    grid = Grid(walls, exits)
    params = ModelParams(**{PARAMS[key][0]: value for key, value in raw_params.items()})
    return Scenario(grid=grid, initial_agents=agents, params=params)


def validate(scenario: Scenario, field: np.ndarray) -> list[str]:
    """Check scenario invariants against the grid's static field; return violations.

    Reported violations, one string each, in this order: missing exits,
    non-wall border cells that are not exits, the agents that break place's
    rule, then the placed agents with no path to an exit (agent order).
    """
    grid = scenario.grid
    problems: list[str] = []

    if not grid.exits:
        problems.append("no exit cells")

    open_border = ~(grid.walls | grid.exit_mask)
    open_border[1:-1, 1:-1] = False
    problems += [f"open border at ({i}, {j})" for i, j in np.argwhere(open_border).tolist()]

    flat, placed = place(grid.walls, scenario.initial_agents)
    stuck = flat[~np.isfinite(field.reshape(-1)[flat])].tolist()
    return problems + placed + [f"unreachable agent at {divmod(k, grid.width)}" for k in stuck]
