"""The scenario set-up against the implementations it replaced.

compute_sff (a bucket phase with a heap tail) must reproduce
sff_heapq_oracle, on rooms that stop at each stage of the search, and
TransitionTables (shifted-slice, in-place build of per-r* rows) must,
once its rows are expanded to per-cell rays by expand_tables, reproduce
tables_oracle byte for byte with equal dtypes and shapes: every array a run
reads is built here, so equal bytes mean equal runs.  k_P enters only at
distributions: tables built for params that differ in k_P alone are the
same bytes and give the same distributions for any k_P they are called with.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_scenario, random_grid
from evacsim import floorfield
from evacsim.floorfield import compute_sff
from evacsim.scenario import Grid, ModelParams, parse_scenario
from evacsim.transition import TransitionTables
from large_rooms import ROOMS as LARGE_ROOMS
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
    return Grid(mask, frozenset(exits))


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
    got = compute_sff(grid)
    assert_same_bytes(got, sff_heapq_oracle(grid))
    assert got.flags.c_contiguous
    return got


def bucket_sizes(field):
    """The bucket phase's rounds, read off a finished field.  Round after
    round the open cells below the smallest open distance plus 1 settle,
    and they are exactly the unsettled cells whose final distance lies
    below that bound: their best predecessors settled earlier."""
    d = np.sort(field[np.isfinite(field)])
    sizes, k = [], 0
    while k < d.size:
        end = int(np.searchsorted(d, d[k] + 1.0))
        sizes.append(end - k)
        k = end
    return sizes


def handover_round(sizes):
    """The round at which compute_sff hands the search to its heap, or
    None when the bucket phase settles every reachable cell."""
    small = 0
    for i, size in enumerate(sizes):
        small = small + 1 if size < floorfield.FRONTIER_CELLS else 0
        if small == floorfield.FRONTIER_ROUNDS:
            return i
    return None


@pytest.mark.parametrize("name, stage", [
    ("exit_wall", "never"),     # a full column per bucket to the end
    ("pillars", "never"),       # the fronts narrow only in the last rounds
    ("serpentine", "warm-up"),  # one or two cells per bucket from the start
    ("funnel", "mid-run"),      # wide fronts, then a long 1-wide corridor
])
def test_sff_matches_heapq_oracle_above_the_gate(name, stage, monkeypatch):
    # the bucket phase hands over where the rounds read off the field say,
    # at the smallest open distance of that round
    handed_over_at = []

    def bucket_phase(dist, *args):
        open_cells = run_bucket_phase(dist, *args)
        handed_over_at.append(dist[open_cells].min() if open_cells.size else None)
        return open_cells

    run_bucket_phase = floorfield._bucket_phase
    monkeypatch.setattr(floorfield, "_bucket_phase", bucket_phase)
    grid = LARGE_ROOMS[name]()
    assert (grid.height + 2) * (grid.width + 2) >= floorfield.BUCKET_MIN_CELLS
    field = check_sff(grid)
    sizes = bucket_sizes(field)
    at = handover_round(sizes)
    if stage == "never":
        assert at is None
        assert handed_over_at == [None]
        return
    if stage == "warm-up":
        assert at == floorfield.FRONTIER_ROUNDS - 1
    else:
        assert max(sizes[:at]) >= floorfield.FRONTIER_CELLS
        assert len(sizes) - at > floorfield.FRONTIER_ROUNDS
    assert handed_over_at == [np.sort(field[np.isfinite(field)])[sum(sizes[:at])]]


def test_bucket_gate_sits_between_corridor30_and_the_paper_room(monkeypatch):
    # the paper room runs the bucket phase, the small shipped rooms the heap
    # alone, and a grid on each side of the gate gives the heap's bits
    calls = []

    def bucket_phase(*args):
        calls.append(args)
        return run_bucket_phase(*args)

    def runs_buckets(grid):
        calls.clear()
        check_sff(grid)
        return bool(calls)

    run_bucket_phase = floorfield._bucket_phase
    monkeypatch.setattr(floorfield, "_bucket_phase", bucket_phase)
    grids = special_grids()
    assert runs_buckets(grids["room37x33"])
    assert not runs_buckets(grids["corridor30"])
    assert not runs_buckets(grids["bottleneck2"])
    rng = np.random.default_rng(23)
    for cells in (floorfield.BUCKET_MIN_CELLS - 1, floorfield.BUCKET_MIN_CELLS):
        # the squarest padded shape of exactly that many cells
        rows = max(d for d in range(3, math.isqrt(cells) + 1) if cells % d == 0)
        grid = random_grid(rng, rows - 2, cells // rows - 2, 0.2, 2, enclosed=True)
        assert (grid.height + 2) * (grid.width + 2) == cells
        assert runs_buckets(grid) == (cells == floorfield.BUCKET_MIN_CELLS)


@pytest.mark.parametrize("seed", range(6))
def test_sff_matches_heapq_oracle_on_random_rooms_above_the_gate(seed):
    # open and enclosed rooms from 64 to 110 cells a side, with 0-45 % walls;
    # seeds 3 and 4 hand over to the heap, the rest end in the bucket phase
    rng = np.random.default_rng(1400 + seed)
    h, w = int(rng.integers(64, 111)), int(rng.integers(64, 111))
    wall_frac = (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)[seed]
    check_sff(random_grid(rng, h, w, wall_frac, 1 + seed % 3, enclosed=seed % 2 == 1))


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
    pockets = compute_sff(grids["pockets"])
    assert np.isinf(pockets[1:3, 1:3]).all()
    assert np.isinf(pockets[4, 1])
    assert np.isfinite(pockets[4, 3])
    assert np.isinf(compute_sff(grids["corner_seal"])[3, 1])
    assert np.isinf(compute_sff(grids["no_exit"])).all()


@st.composite
def grids(draw):
    h = draw(st.integers(1, 14))
    w = draw(st.integers(1, 14))
    walls = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)), dtype=np.uint8)
    walls = walls.reshape(h, w)
    free = [tuple(int(x) for x in c) for c in np.argwhere(walls == 0)]
    exits = draw(st.lists(st.sampled_from(free), max_size=4, unique=True)) if free else []
    return Grid(walls, frozenset(exits))


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
    check_k_p_free(tables, field, grid, params)


def check_k_p_free(tables, field, grid, params):
    other_k_p = params.k_p + 7.25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        other = TransitionTables(field, grid, replace(params, k_p=other_k_p))
    for name in COMPACT_ARRAYS:
        assert_same_bytes(getattr(other, name), getattr(tables, name))
    rng = np.random.default_rng(grid.height * 1000 + grid.width)
    occ = ((rng.random(grid.walls.shape) < 0.4) & (grid.walls == 0)).astype(np.uint8)
    cells = np.flatnonzero(grid.walls == 0)
    for k_p in (params.k_p, other_k_p, 0.0):
        got = tables.distributions(occ, cells, k_p)
        want = other.distributions(occ, cells, k_p)
        for x, y in zip(got, want):
            assert_same_bytes(x, y)


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


@pytest.mark.parametrize("r", [1, 2, 10, 17, 100])
def test_tables_match_oracle_on_special_rooms(r):
    # includes rooms narrower than r in one or both directions, and at
    # r = 100 every room is
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
    values = compute_sff(grid)
    rng = np.random.default_rng(9)
    for field in (values + 1000.0, np.where(np.isinf(values), 3.0, values)):
        check_tables(field, grid, params_for(rng, r))


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
    # r* never exceeds the grid's longer side, so on corridor30 (3 x 33)
    # r = 1,000 keeps 4 * 34 rows of r entries per table, not 4 * 1,001
    sc = parse_scenario((SCENARIO_DIR / "corridor30.txt").read_text())
    field = compute_sff(sc.grid)
    tracemalloc.start()
    try:
        tables = TransitionTables(field, sc.grid, replace(sc.params, r=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert retained_bytes(tables) < 4 * 2**20
    assert peak < 8 * 2**20
    # the build's peak grows with r only by the r-column ray rows: on a 300²
    # room r = 300 over r = 10 adds 6.6 MiB of them, where one bool plane
    # per sight step, an (n, h, w) cube, would add 25 MiB more
    grid = open_grid(300, 300, [(150, 299)])
    field = compute_sff(grid)
    peak = {}
    for r in (10, 300):
        tracemalloc.start()
        try:
            TransitionTables(field, grid, params_for(rng, r))
            peak[r] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak[300] - peak[10] < 12 * 2**20
