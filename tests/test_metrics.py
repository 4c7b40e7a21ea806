import io

import numpy as np
import pytest

from conftest import make_scenario
from evacsim.floorfield import compute_sff
from evacsim.metrics import (
    PGM_AGENT,
    PGM_EXIT,
    PGM_FLOOR,
    PGM_WALL,
    ExitAxis,
    SimulationResult,
    SpreadSample,
    exit_axis,
    export_csv,
    export_field_csv,
    lateral_offsets,
    render_snapshot,
    spread_metric,
)
from oracles import parse_snapshot


def spread_of(cells, ax):
    """spread_metric of (i, j) cells on a 300 x 300 grid."""
    flat = np.array([i * 300 + j for i, j in cells], dtype=np.int64)
    return spread_metric(lateral_offsets(ax, 300, 300), flat)


def occ_of(grid, cells):
    occ = np.zeros(grid.walls.shape, dtype=np.uint8)
    for c in cells:
        occ[c] = 1
    return occ


def result_of(curve, spread=()):
    return SimulationResult(curve=list(curve), evac_time=None, spread=list(spread))


def test_exit_axis_column_group_gives_row_axis():
    sc = make_scenario("####\n#.E#\n#.E#\n####")
    ax = exit_axis(sc.grid)
    assert ax is not None and ax.axis == "row"
    assert ax.coordinate == 1.5


def test_exit_axis_row_group_gives_col_axis():
    sc = make_scenario("#####\n#EE.#\n#...#\n#####")
    ax = exit_axis(sc.grid)
    assert ax is not None and ax.axis == "col"
    assert ax.coordinate == 1.5


def test_exit_axis_single_exit():
    sc = make_scenario("####\n#.E#\n####")
    ax = exit_axis(sc.grid)
    assert ax is not None and ax.axis == "row" and ax.coordinate == 1.0


def test_exit_axis_scattered_exits_none():
    sc = make_scenario("#####\n#E..#\n#..E#\n#####")
    assert exit_axis(sc.grid) is None


def test_spread_metric_hand_values():
    sc = make_scenario("####\n#.E#\n#..#\n#..#\n#..#\n####")
    ax = exit_axis(sc.grid)  # exit at row 1, column wall
    assert ax.axis == "row" and ax.coordinate == 1.0
    # rows 1 and 3: offsets 0 and 2, mean 1.0
    assert spread_of([(1, 1), (3, 1)], ax) == pytest.approx(1.0)
    assert spread_of([(1, 1)], ax) == 0.0
    with pytest.raises(ValueError):
        spread_of([], ax)


def test_spread_metric_col_axis_uses_columns():
    sc = make_scenario("#####\n#EE.#\n#...#\n#####")
    ax = exit_axis(sc.grid)
    assert spread_of([(2, 1), (2, 3)], ax) == pytest.approx(1.0)


def test_spread_metric_equals_ndarray_mean():
    # same reduction and divide as ndarray.mean, compared with ==; the
    # coordinates are not multiples of a power of two, so the offsets'
    # sum rounds and a different summation order would show
    rng = np.random.default_rng(3)
    for axis, coordinate in (("row", 17.3), ("col", 52 / 3)):
        offsets = lateral_offsets(ExitAxis(axis=axis, coordinate=coordinate), 300, 300)
        pick = 0 if axis == "row" else 1
        for n in range(1, 1001):
            cells = [tuple(int(x) for x in c) for c in rng.integers(0, 300, size=(n, 2))]
            coords = np.array([c[pick] for c in cells], dtype=np.float64)
            want = float(np.abs(coords - coordinate).mean())
            flat = np.array([i * 300 + j for i, j in cells], dtype=np.int64)
            assert spread_metric(offsets, flat) == want


def test_render_snapshot_glyphs_and_roundtrip():
    sc = make_scenario("####\n#PE#\n####")
    occ = occ_of(sc.grid, [(1, 1)])
    txt, _ = render_snapshot(occ, sc.grid)
    assert txt == "####\n#PE#\n####\n"
    back_occ, back_walls = parse_snapshot(txt)
    assert np.array_equal(back_occ, occ)
    assert np.array_equal(back_walls, sc.grid.walls)


def test_render_snapshot_agent_covers_exit():
    sc = make_scenario("####\n#PE#\n####")
    occ = occ_of(sc.grid, [(1, 2)])  # standing on the exit cell
    txt, _ = render_snapshot(occ, sc.grid)
    assert txt.splitlines()[1] == "#.P#"


def test_render_snapshot_pgm_bytes():
    sc = make_scenario("####\n#PE#\n####")
    occ = occ_of(sc.grid, [(1, 1)])
    _, pgm = render_snapshot(occ, sc.grid)
    header = b"P5\n4 3\n255\n"
    assert pgm.startswith(header)
    raster = pgm[len(header):]
    assert len(raster) == 12
    assert raster[0] == PGM_WALL
    assert raster[5] == PGM_AGENT
    assert raster[6] == PGM_EXIT
    assert raster[5 + 3] == PGM_WALL  # (2, 1)
    _, pgm2 = render_snapshot(np.zeros((3, 4), dtype=np.uint8), sc.grid)
    assert pgm2[len(header) + 5] == PGM_FLOOR


def test_export_csv_without_spread():
    buf = io.StringIO()
    export_csv(result_of([(0, 3), (1, 2), (2, 0)]), buf)
    assert buf.getvalue().splitlines() == ["step,remaining", "0,3", "1,2", "2,0"]


def test_export_csv_with_spread_and_blank_tail():
    buf = io.StringIO()
    export_csv(
        result_of([(0, 2), (1, 1), (2, 0)], [SpreadSample(0, 1.5), SpreadSample(1, 0.5)]),
        buf,
    )
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,remaining,spread"
    assert lines[1] == "0,2,1.5"
    assert lines[2] == "1,1,0.5"
    assert lines[3] == "2,0,"  # room empty, spread undefined


def test_export_csv_rejects_increasing_curve():
    with pytest.raises(ValueError):
        export_csv(result_of([(0, 2), (1, 3)]), io.StringIO())


def test_export_field_csv_infinity():
    sc = make_scenario("####\n#.E#\n####")
    field = compute_sff(sc.grid)
    buf = io.StringIO()
    export_field_csv(field, buf)
    rows = buf.getvalue().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",") == ["inf", "1.0", "0.0", "inf"]
