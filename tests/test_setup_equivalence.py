"""The scenario set-up against the implementations it replaced.

compute_sff (flat-index Dijkstra) must reproduce sff_heapq_oracle, and
TransitionTables (shifted-slice, in-place build of per-r* rows) must,
once its rows are expanded to per-cell rays by expand_tables, reproduce
tables_oracle byte for byte with equal dtypes and shapes: every array a run
reads is built here, so equal bytes mean equal runs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_scenario, random_grid
from evacsim.floorfield import StaticField, compute_sff
from evacsim.scenario import Grid, ModelParams, parse_scenario
from evacsim.transition import TransitionTables
from oracles import expand_tables, sff_heapq_oracle, tables_oracle

TABLE_ARRAYS = ("static_expo", "ray_idx", "ray_w", "ray_div")
COMPACT_ARRAYS = ("static_expo", "nbr", "row_key", "off_rows", "w_rows", "div_rows")

# hand-built rooms: pockets no exit reaches, 1-wide corridors, corner seals
MAPS = {
    "pockets": """
        #########
        #..#....#
        #..#.##.E
        ####.#..#
        #.#..#.##
        #########
        """,
    "serpentine": """
        ###########
        #.........#
        #########.#
        #.........#
        #.#########
        #.........E
        ###########
        """,
    "vertical_corridor": """
        ###
        #.#
        #.#
        #.#
        #.#
        #E#
        """,
    "corner_seal": """
        #####
        #E#.#
        ##..#
        #.#.#
        #####
        """,
    "two_doors": """
        ########
        E......#
        #.#..#.#
        #......E
        ########
        """,
}


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def open_grid(h, w, exits, walls=()):
    mask = np.zeros((h, w), dtype=np.uint8)
    for cell in walls:
        mask[cell] = 1
    return Grid(height=h, width=w, walls=mask, exits=frozenset(exits))


def special_grids():
    grids = {name: make_scenario(text).grid for name, text in MAPS.items()}
    for path in sorted(SCENARIO_DIR.glob("*.txt")):
        grids[path.stem] = parse_scenario(path.read_text()).grid
    grids["row"] = open_grid(1, 9, [(0, 3)])
    grids["column"] = open_grid(7, 1, [(6, 0)])
    grids["single"] = open_grid(1, 1, [(0, 0)])
    grids["no_exit"] = open_grid(3, 4, [])
    grids["split_row"] = open_grid(1, 7, [(0, 0)], walls=[(0, 3)])
    return grids


def random_grids(seed, count, enclosed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h, w = int(rng.integers(3, 28)), int(rng.integers(3, 28))
        n_exits = 1 if enclosed else int(rng.integers(1, 4))
        yield random_grid(rng, h, w, float(rng.uniform(0.0, 0.55)), n_exits, enclosed=enclosed)


def check_sff(grid):
    got = compute_sff(grid).values
    assert_same_bytes(got, sff_heapq_oracle(grid).values)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("name", sorted(special_grids()))
def test_sff_matches_heapq_oracle_on_special_rooms(name):
    check_sff(special_grids()[name])


@pytest.mark.parametrize("enclosed", [False, True])
def test_sff_matches_heapq_oracle_on_random_grids(enclosed):
    for grid in random_grids(31 + enclosed, 60, enclosed):
        check_sff(grid)


def test_sff_special_rooms_keep_unreachable_cells_infinite():
    # the pockets room: the left chamber and the lone cell at (4, 1) are
    # sealed off; the corner rule seals (3, 1) in corner_seal
    grids = special_grids()
    pockets = compute_sff(grids["pockets"]).values
    assert np.isinf(pockets[1:3, 1:3]).all()
    assert np.isinf(pockets[4, 1])
    assert np.isfinite(pockets[4, 3])
    assert np.isinf(compute_sff(grids["corner_seal"]).values[3, 1])
    assert np.isinf(compute_sff(grids["no_exit"]).values).all()


@st.composite
def grids(draw):
    h = draw(st.integers(1, 14))
    w = draw(st.integers(1, 14))
    walls = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)), dtype=np.uint8)
    walls = walls.reshape(h, w)
    free = [tuple(int(x) for x in c) for c in np.argwhere(walls == 0)]
    exits = draw(st.lists(st.sampled_from(free), max_size=4, unique=True)) if free else []
    return Grid(height=h, width=w, walls=walls, exits=frozenset(exits))


@settings(max_examples=150, deadline=None)
@given(grids())
def test_sff_matches_heapq_oracle_property(grid):
    check_sff(grid)


def check_tables(field, grid, params):
    tables = TransitionTables(field, grid, params)
    arrays = {k for k, v in vars(tables).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == sorted(COMPACT_ARRAYS)
    got = expand_tables(tables)
    want = tables_oracle(field, grid, params)
    for name in TABLE_ARRAYS:
        assert_same_bytes(got[name], want[name])
    # the neighbour table is the first ray cell, blocked or not
    assert_same_bytes(tables.nbr, np.ascontiguousarray(want["ray_idx"][:, :, 0]))


def params_for(rng, r):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ModelParams(
            k_s=float(rng.choice([0.0, rng.uniform(0, 6)])),
            k_p=float(rng.uniform(0, 12)),
            k_w=float(rng.choice([0.0, rng.uniform(0, 8)])),
            r=r,
            mu=0.0,
            seed=1,
            max_steps=10,
        )


@pytest.mark.parametrize("r", [1, 2, 10, 17])
def test_tables_match_oracle_on_special_rooms(r):
    # includes rooms narrower than r in one or both directions
    rng = np.random.default_rng(r)
    for grid in special_grids().values():
        check_tables(compute_sff(grid), grid, params_for(rng, r))


@pytest.mark.parametrize("r", [1, 2, 10, 17])
@pytest.mark.parametrize("enclosed", [False, True])
def test_tables_match_oracle_on_random_grids(r, enclosed):
    rng = np.random.default_rng(100 + r)
    for grid in random_grids(7 * r + enclosed, 15, enclosed):
        check_tables(compute_sff(grid), grid, params_for(rng, r))


@pytest.mark.parametrize("r", [1, 10])
def test_tables_match_oracle_on_shifted_field(r):
    # criterion 9's offset field, and a field finite on walls: the sight
    # lines and the neighbour test must come from the wall mask alone
    grid = make_scenario(MAPS["pockets"]).grid
    values = compute_sff(grid).values
    rng = np.random.default_rng(9)
    for field in (values + 1000.0, np.where(np.isinf(values), 3.0, values)):
        check_tables(StaticField(values=field), grid, params_for(rng, r))


def retained_bytes(tables):
    # what perfbench's transition.tables_mb counts: every ndarray attribute
    return sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray))


def test_tables_memory_is_bounded_in_r():
    # the rays are rows per sight-line length r*, not per cell: r = 1 to 17
    # adds a few KiB on any room, and each cell costs a fixed few int64s
    grid = open_grid(120, 120, [(60, 119)])
    field = compute_sff(grid)
    rng = np.random.default_rng(3)
    size = {r: retained_bytes(TransitionTables(field, grid, params_for(rng, r))) for r in (1, 10, 17)}
    assert size[17] - size[1] <= 64 * 1024
    assert size[10] < 160 * grid.height * grid.width
