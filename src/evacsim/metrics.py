"""Run results, snapshots, the lateral spread metric, and CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from statistics import mean
from typing import IO, NamedTuple

import numpy as np

from .scenario import (
    AGENT_GLYPH,
    EXIT_GLYPH,
    FLOOR_GLYPH,
    WALL_GLYPH,
    Cell,
    Grid,
)

PGM_WALL = 0
PGM_AGENT = 64
PGM_EXIT = 128
PGM_FLOOR = 255

# snapshot cell kinds, each later kind winning over the earlier ones:
# floor, wall, exit, agent; their glyph and their PGM gray by kind code
_KIND_GLYPHS = np.array([ord(c) for c in FLOOR_GLYPH + WALL_GLYPH + EXIT_GLYPH + AGENT_GLYPH],
                        dtype=np.uint8)
_KIND_GRAYS = np.array([PGM_FLOOR, PGM_WALL, PGM_EXIT, PGM_AGENT], dtype=np.uint8)


class SpreadSample(NamedTuple):
    step: int
    value: float


@dataclass
class SimulationResult:
    """Everything a finished run reports.

    curve holds (step, remaining) per step including step 0.  evac_time is
    the step at which the room emptied, or None if max_steps ran out first.
    snapshots are (step, occupancy copy) pairs for the requested steps;
    spread is per-step lateral spread when the room has a usable exit axis.
    captured holds --dump-distributions rows when requested.
    """

    curve: list[tuple[int, int]]
    evac_time: int | None
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    spread: list[SpreadSample] = field(default_factory=list)
    captured: list[tuple[int, Cell, np.ndarray, bool]] = field(default_factory=list)


def lateral_offsets(grid: Grid) -> np.ndarray | None:
    """Each cell's absolute lateral offset from the exit axis, flat
    row-major, or None when the exits give no axis.

    The axis is the line through the exit centroid, normal to the exit
    wall.  Exits stacked in one column, a single exit included, sit on a
    vertical wall, so the axis is the horizontal line through their mean
    row and a cell's offset is its distance from it in rows; exits in one
    row give the vertical line through their mean column.  A grid without
    exits, or with exits on several walls, has no axis.
    """
    rows = {i for i, _ in grid.exits}
    cols = {j for _, j in grid.exits}
    cells = np.arange(grid.height * grid.width)
    if len(cols) == 1:
        coords, axis = cells // grid.width, mean(i for i, _ in grid.exits)
    elif len(rows) == 1:
        coords, axis = cells % grid.width, mean(j for _, j in grid.exits)
    else:
        return None
    # integers are exact in float64, so the offsets are those of float
    # coordinates
    return np.abs(coords - axis)


def spread_metric(offsets: np.ndarray, cells: np.ndarray) -> float:
    """Mean absolute lateral offset of the remaining crowd from the exit axis.

    offsets are lateral_offsets(grid)'s table, or its tiling over stacked
    rooms, and cells the agents' flat indices into it.  Undefined for an
    empty room; callers stop sampling once everyone is out.
    """
    if not cells.size:
        raise ValueError("spread is undefined for an empty room")
    # the add.reduce and divide of ndarray.mean, without its Python-level
    # wrapper
    return float(offsets.take(cells).sum() / cells.size)


def render_snapshot(occupancy: np.ndarray, grid: Grid) -> tuple[str, bytes]:
    """ASCII and binary-PGM views of one occupancy matrix.

    ASCII uses the scenario glyphs; a pedestrian standing on an exit shows
    as a pedestrian.  The PGM is P5, maxval 255: wall 0, agent 64, exit
    128, floor 255.
    """
    kind = np.zeros((grid.height, grid.width), dtype=np.intp)
    kind[grid.walls] = 1
    kind[grid.exit_mask] = 2
    kind[occupancy != 0] = 3
    lines = np.full((grid.height, grid.width + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = _KIND_GLYPHS[kind]
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return lines.tobytes().decode("ascii"), header + _KIND_GRAYS[kind].tobytes()


def export_csv(result: SimulationResult, stream: IO[str]) -> None:
    """Evacuation curve as CSV: step,remaining[,spread].

    The spread column appears only when the run recorded spread samples;
    steps without a sample (the room emptied) leave the field blank.
    """
    for (_, a), (_, b) in zip(result.curve, result.curve[1:]):
        if b > a:
            raise ValueError("evacuation curve must be non-increasing")
    writer = csv.writer(stream, lineterminator="\n")
    by_step = dict(result.spread)
    cols = 3 if by_step else 2
    writer.writerow(["step", "remaining", "spread"][:cols])
    for step, remaining in result.curve:
        v = by_step.get(step)
        writer.writerow([step, remaining, repr(v) if v is not None else ""][:cols])


def export_field_csv(values: np.ndarray, stream: IO[str]) -> None:
    """Static field as CSV, row-major, `inf` for unreachable cells."""
    writer = csv.writer(stream, lineterminator="\n")
    for row in values:
        writer.writerow([repr(float(v)) for v in row])
