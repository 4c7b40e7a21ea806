"""Scenario definition: room geometry, agents, model parameters, file I/O.

Scenario files are plain 7-bit ASCII with two sections separated by a blank
line.  The first section is one ``key = value`` pair per line and must give
exactly the keys k_S, k_P, k_W, r, mu, seed, max_steps.  The second section
is a rectangular character map of the room::

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
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .floorfield import StaticField

WALL_GLYPH = "#"
FLOOR_GLYPH = "."
EXIT_GLYPH = "E"
AGENT_GLYPH = "P"
_GLYPHS = frozenset((WALL_GLYPH, FLOOR_GLYPH, EXIT_GLYPH, AGENT_GLYPH))

# Movement directions, shared vocabulary for the whole package.  Row-major
# grid, row 0 at the top, so "up" decreases the row index.
UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3
DIR_OFFSETS = ((-1, 0), (0, 1), (1, 0), (0, -1))

# file key -> ModelParams attribute, in the file's key order
PARAM_ATTRS = {
    "k_S": "k_s",
    "k_P": "k_p",
    "k_W": "k_w",
    "r": "r",
    "mu": "mu",
    "seed": "seed",
    "max_steps": "max_steps",
}
PARAM_KEYS = tuple(PARAM_ATTRS)

# ModelParams attribute -> (type of the parsed value, range test, the range
# in words); the one statement of each parameter's rule
_WEIGHT = (float, lambda v: math.isfinite(v) and v >= 0.0, "a finite real >= 0")
PARAM_RANGES = {
    "k_s": _WEIGHT,
    "k_p": _WEIGHT,
    "k_w": _WEIGHT,
    "r": (int, lambda v: v >= 1, "an integer >= 1"),
    "mu": (float, lambda v: 0.0 <= v <= 1.0, "a real in [0, 1]"),
    "seed": (int, lambda v: 0 <= v < 2**64, "an integer in [0, 2^64)"),
    "max_steps": (int, lambda v: v >= 1, "an integer >= 1"),
}

Cell = tuple[int, int]


class ScenarioError(ValueError):
    """Malformed scenario text or an out-of-range parameter value.

    Carries the 1-based line (and column, when it makes sense) of the
    offending input so CLI error messages can point at the file.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True, eq=False)
class Grid:
    """Room geometry: wall matrix plus the set of exit cells.

    walls is a (height, width) uint8 array, 1 where movement is blocked.
    Exit cells are always free floor.  An exit-less grid can be built (it
    shows up while editing rooms) but fails scenario validation.
    """

    height: int
    width: int
    walls: np.ndarray
    exits: frozenset[Cell]

    def __post_init__(self):
        if self.walls.shape != (self.height, self.width):
            raise ValueError(f"walls shape {self.walls.shape} != {(self.height, self.width)}")
        for cell in self.exits:
            if not self.in_bounds(cell):
                raise ValueError(f"exit out of bounds at {cell}")
            if self.walls[cell]:
                raise ValueError(f"exit on wall at {cell}")

    def in_bounds(self, cell: Cell) -> bool:
        i, j = cell
        return 0 <= i < self.height and 0 <= j < self.width

    @cached_property
    def exit_mask(self) -> np.ndarray:
        mask = np.zeros((self.height, self.width), dtype=bool)
        for i, j in self.exits:
            mask[i, j] = True
        return mask

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.height == other.height
            and self.width == other.width
            and np.array_equal(self.walls, other.walls)
            and self.exits == other.exits
        )


@dataclass(frozen=True)
class ModelParams:
    """Model parameters.

    k_s, k_p, k_w weight the distance gain, the people density ahead and
    the wall/obstacle penalty in the transition probabilities.  r is the
    sight radius in cells, mu the friction probability of an unresolved
    conflict, seed feeds the run's random generator, max_steps bounds the
    simulation loop.
    """

    k_s: float
    k_p: float
    k_w: float
    r: int
    mu: float
    seed: int
    max_steps: int

    def __post_init__(self):
        for attr in PARAM_RANGES:
            check_param(attr, getattr(self, attr))
        # sensitivity to people and walls below the distance sensitivity is
        # legal but usually a sign of a mistyped parameter set
        if self.k_p < self.k_s or self.k_w < self.k_s:
            warnings.warn(
                f"k_P ({self.k_p}) and k_W ({self.k_w}) are normally >= k_S ({self.k_s})",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: grid, initial agent cells (raster order), params."""

    grid: Grid
    initial_agents: tuple[Cell, ...]
    params: ModelParams


def check_param(attr: str, value) -> None:
    """Raise ValueError unless value lies in ModelParams.<attr>'s range."""
    _, in_range, words = PARAM_RANGES[attr]
    if not in_range(value):
        raise ValueError(f"{attr} must be {words}, got {value!r}")


def parse_param(key: str, raw: str, line: int | None = None):
    """Convert the text of parameter key (a file key, e.g. "k_S") and check
    its range; ScenarioError names the key, the text and, given, its line."""
    attr = PARAM_ATTRS[key]
    kind, _, words = PARAM_RANGES[attr]
    try:
        value = kind(raw)
        check_param(attr, value)
    except ValueError:
        raise ScenarioError(f"{key}: must be {words}, got {raw!r}", line=line) from None
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a Scenario.

    Raises ScenarioError with a 1-based line (and column for map glyph
    errors) on malformed input: bad syntax, unknown/duplicate/missing
    parameter keys, out-of-range values, ragged or empty maps.
    """
    if not text.isascii():
        raise ScenarioError("scenario file must be 7-bit ASCII")
    lines = text.split("\n")

    raw_params: dict[str, object] = {}
    n = 0
    while n < len(lines) and lines[n].strip() != "":
        line = lines[n]
        line_no = n + 1
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", line=line_no)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in PARAM_KEYS:
            raise ScenarioError(f"unknown parameter key {key!r}", line=line_no)
        if key in raw_params:
            raise ScenarioError(f"duplicate parameter key {key!r}", line=line_no)
        raw_params[key] = parse_param(key, raw, line_no)
        n += 1
    missing = [k for k in PARAM_KEYS if k not in raw_params]
    if missing:
        raise ScenarioError(f"missing parameter keys: {', '.join(missing)}")

    # skip the single blank separator, then collect map rows; trailing blank
    # lines are tolerated, interior ones are not
    n += 1
    rows: list[str] = []
    blank_since = None
    for k in range(n, len(lines)):
        line = lines[k]
        if line.strip() == "":
            if blank_since is None:
                blank_since = k + 1
            continue
        if blank_since is not None and rows:
            raise ScenarioError("blank line inside map", line=blank_since)
        blank_since = None
        rows.append(line)
        width = len(rows[0])
        if len(line) != width:
            raise ScenarioError(
                f"ragged map row: {len(line)} glyphs, expected {width}", line=k + 1
            )
        if not _GLYPHS.issuperset(line):
            col = next(c for c, ch in enumerate(line) if ch not in _GLYPHS)
            raise ScenarioError(
                f"invalid map character {line[col]!r}", line=k + 1, column=col + 1
            )
    if not rows:
        raise ScenarioError("missing map section")

    height, width = len(rows), len(rows[0])
    glyphs = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8).reshape(height, width)
    walls = (glyphs == ord(WALL_GLYPH)).astype(np.uint8)
    exits = frozenset(map(tuple, np.argwhere(glyphs == ord(EXIT_GLYPH)).tolist()))
    agents = tuple(map(tuple, np.argwhere(glyphs == ord(AGENT_GLYPH)).tolist()))

    grid = Grid(height=height, width=width, walls=walls, exits=exits)
    params = ModelParams(**{PARAM_ATTRS[key]: value for key, value in raw_params.items()})
    return Scenario(grid=grid, initial_agents=agents, params=params)


def validate(scenario: Scenario, field: StaticField) -> list[str]:
    """Check scenario invariants against the grid's static field; return violations.

    Reported violations, one string each: missing exits, non-wall border
    cells that are not exits, agents out of bounds / on walls / duplicated,
    and agents with no path to an exit.
    """
    values = field.values
    grid = scenario.grid
    problems: list[str] = []

    if not grid.exits:
        problems.append("no exit cells")

    open_border = (grid.walls == 0) & ~grid.exit_mask
    open_border[1:-1, 1:-1] = False
    problems += [f"open border at ({i}, {j})" for i, j in np.argwhere(open_border).tolist()]

    seen: set[Cell] = set()
    for cell in scenario.initial_agents:
        if not grid.in_bounds(cell):
            problems.append(f"agent out of bounds at {cell}")
            continue
        if cell in seen:
            problems.append(f"cell occupied twice at {cell}")
            continue
        seen.add(cell)
        if grid.walls[cell]:
            problems.append(f"agent on wall at {cell}")
        elif not np.isfinite(values[cell]):
            problems.append(f"unreachable agent at {cell}")
    return problems
