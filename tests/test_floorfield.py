import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, random_grid
from evacsim.floorfield import SQRT2, compute_sff
from oracles import DOWN, LEFT, NEG_INF, RIGHT, UP, delta_s, max_delta_s, sff_oracle


def field_of(map_block):
    sc = make_scenario(map_block)
    return sc.grid, compute_sff(sc.grid)


def test_corridor_distances():
    grid, f = field_of("##########\n#E.......#\n##########")
    for n in range(8):
        assert f[1, 1 + n] == float(n)
    assert np.isinf(f[0].min())


def test_exit_zero_and_walls_inf():
    grid, f = field_of("####\n#.E#\n####")
    assert f[1, 2] == 0.0
    assert f[1, 1] == 1.0
    assert np.isinf(f[grid.walls == 1]).all()


def test_diagonal_costs():
    grid, f = field_of(
        """
        #####
        #E..#
        #...#
        #...#
        #####
        """
    )
    assert f[2, 2] == SQRT2
    assert f[2, 3] == 1.0 + SQRT2
    assert f[3, 3] == 2.0 * SQRT2


def test_corner_rule_blocks_diagonal_shortcut():
    # the only diagonal from E cuts a wall corner, so the path must go around
    grid, f = field_of("####\n#E.#\n##.#\n####")
    assert f[2, 2] == 2.0


def test_corner_rule_full_seal():
    grid, f = field_of("####\n#E##\n##.#\n####")
    assert np.isinf(f[2, 2])


def test_multiple_exits_take_nearest():
    grid, f = field_of("#######\n#E...E#\n#######")
    assert list(f[1, 1:6]) == [0.0, 1.0, 2.0, 1.0, 0.0]


def test_unreachable_pocket_is_inf():
    grid, f = field_of("#####\n#.#E#\n#####")
    assert np.isinf(f[1, 1])


def test_oracle_equivalence_small():
    rng = np.random.default_rng(5)
    for _ in range(20):
        grid = random_grid(rng, 12, 12, 0.25, int(rng.integers(1, 3)))
        mine = compute_sff(grid)
        ref = np.array(sff_oracle(grid.walls.tolist(), sorted(grid.exits)))
        assert np.array_equal(np.isinf(mine), np.isinf(ref))
        finite = np.isfinite(ref)
        assert np.abs(mine[finite] - ref[finite]).max() < 1e-9


def test_lipschitz_bound_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(10):
        grid = random_grid(rng, 15, 15, 0.2, 2)
        values = compute_sff(grid)
        for i in range(grid.height):
            for j in range(grid.width):
                if not np.isfinite(values[i, j]):
                    continue
                for d in range(4):
                    ds = delta_s(compute_sff(grid), (i, j), d)
                    if ds != NEG_INF:
                        assert abs(ds) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    room_seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(3, 24), st.integers(3, 24)),
    wall_frac=st.floats(0.0, 0.5),
    n_exits=st.integers(1, 4),
)
def test_lipschitz_bound_random_rooms(room_seed, shape, wall_frac, n_exits):
    """Reachable neighbours differ by at most the step cost: 1 orthogonally,
    sqrt(2) across a diagonal that cuts between two free cells."""
    grid = random_grid(np.random.default_rng(room_seed), *shape, wall_frac, n_exits,
                       enclosed=True)
    s = compute_sff(grid)
    free = grid.walls == 0
    for a, b, cost, allowed in (
        (s[:-1, :], s[1:, :], 1.0, True),
        (s[:, :-1], s[:, 1:], 1.0, True),
        (s[:-1, :-1], s[1:, 1:], SQRT2, free[:-1, 1:] & free[1:, :-1]),
        (s[:-1, 1:], s[1:, :-1], SQRT2, free[:-1, :-1] & free[1:, 1:]),
    ):
        both = np.isfinite(a) & np.isfinite(b) & allowed
        # the search relaxes with this very addition, so the bound is exact
        assert (b[both] <= a[both] + cost).all() and (a[both] <= b[both] + cost).all()


def test_removing_wall_never_increases_distance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        grid = random_grid(rng, 12, 12, 0.3, 1)
        before = compute_sff(grid)
        wall_cells = np.argwhere(grid.walls == 1)
        if len(wall_cells) == 0:
            continue
        pick = tuple(int(x) for x in wall_cells[int(rng.integers(len(wall_cells)))])
        walls = grid.walls.copy()
        walls[pick] = 0
        opened = type(grid)(walls, grid.exits)
        after = compute_sff(opened)
        finite = np.isfinite(before)
        assert (after[finite] <= before[finite] + 1e-12).all()


def test_delta_s_corridor():
    grid, f = field_of("#####\n#E..#\n#####")
    assert delta_s(f, (1, 2), LEFT) == 1.0
    assert delta_s(f, (1, 2), RIGHT) == -1.0
    assert delta_s(f, (1, 2), UP) == NEG_INF
    assert delta_s(f, (1, 2), DOWN) == NEG_INF


def test_delta_s_equidistant_is_zero():
    grid, f = field_of("####\n#EE#\n#..#\n####")
    assert delta_s(f, (2, 1), RIGHT) == 0.0


def test_delta_s_out_of_bounds_is_sentinel():
    # deliberately unenclosed map: the border cell looks out of the grid
    grid, f = field_of(".E")
    assert delta_s(f, (0, 0), UP) == NEG_INF
    assert delta_s(f, (0, 0), LEFT) == NEG_INF
    assert delta_s(f, (0, 0), RIGHT) == 1.0


def test_max_delta_s_corridor_interior():
    grid, f = field_of("#####\n#E..#\n#####")
    assert max_delta_s(f, (1, 2)) == 1.0


def test_max_delta_s_exit_pair():
    # exit adjacent to an equidistant exit, everything else walled
    grid, f = field_of("####\n#EE#\n####")
    assert max_delta_s(f, (1, 1)) == 0.0


def test_max_delta_s_dead_end_exit():
    # exit tucked into a dead end: its single opening leads away from it
    grid, f = field_of(
        """
        #####
        ##E##
        #...#
        #####
        """
    )
    assert max_delta_s(f, (1, 2)) == -1.0


def test_max_delta_s_sealed_cell_is_sentinel():
    grid, f = field_of("#####\n#.#E#\n#####")
    assert max_delta_s(f, (1, 1)) == NEG_INF
