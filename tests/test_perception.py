import math

import numpy as np
import pytest

from conftest import make_scenario
from oracles import (
    LEFT,
    RIGHT,
    SQRT5,
    UP,
    bandwidth,
    density,
    density_oracle,
    kernel_phi,
    obstacle_distance,
)


def test_obstacle_distance_cases():
    sc = make_scenario("#########\n#....#..#\n#########")
    grid = sc.grid
    assert obstacle_distance(grid, (1, 1), RIGHT, 10) == 3  # wall at offset 4
    assert obstacle_distance(grid, (1, 1), LEFT, 10) == 0   # immediate wall
    assert obstacle_distance(grid, (1, 1), UP, 10) == 0
    assert obstacle_distance(grid, (1, 3), RIGHT, 2) == 1  # cap beyond the wall


def test_obstacle_distance_cap_and_bounds():
    sc = make_scenario("E" + "." * 30)  # unenclosed single row
    grid = sc.grid
    assert obstacle_distance(grid, (0, 5), RIGHT, 10) == 10  # capped
    assert obstacle_distance(grid, (0, 5), LEFT, 10) == 5    # grid edge blocks
    assert obstacle_distance(grid, (0, 5), UP, 10) == 0


def test_pedestrians_do_not_block_sight():
    # signature takes no occupancy: structural, but make the intent explicit
    sc = make_scenario("#######\n#.....#\n#######")
    assert obstacle_distance(sc.grid, (1, 1), RIGHT, 10) == 4


def test_kernel_frozen_values():
    assert abs(kernel_phi(0.0) - 1.49886) <= 1e-5
    assert kernel_phi(0.0) == pytest.approx(1.498857, abs=1e-9)
    assert kernel_phi(math.sqrt(5.0)) == 0.0
    assert kernel_phi(math.sqrt(5.0) / 2) == pytest.approx(1.1241427499999999, rel=1e-12)


def test_kernel_even_nonnegative_support():
    for z in np.linspace(-4.0, 4.0, 201):
        assert kernel_phi(float(z)) == kernel_phi(float(-z))
        assert kernel_phi(float(z)) >= 0.0
        if abs(z) > SQRT5:
            assert kernel_phi(float(z)) == 0.0


def test_bandwidth():
    assert bandwidth(10) == pytest.approx(11 / SQRT5, rel=1e-15)


def test_density_empty_ray_is_zero():
    occ = np.zeros((1, 12), dtype=np.uint8)
    assert density(occ, (0, 0), RIGHT, 10) == 0.0


def test_density_single_neighbor_clamps_to_one():
    occ = np.zeros((1, 3), dtype=np.uint8)
    occ[0, 1] = 1
    assert density_oracle([1], 1) == pytest.approx(1.1241427499999999, rel=1e-12)
    assert density(occ, (0, 0), RIGHT, 1) == 1.0


def test_density_full_ray_r10():
    occ = np.ones((1, 12), dtype=np.uint8)
    assert density_oracle([1] * 10, 10) == pytest.approx(1.0219479545454542, rel=1e-12)
    assert density(occ, (0, 0), RIGHT, 10) == 1.0


def test_density_matches_oracle_on_partial_patterns():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r_star = int(rng.integers(1, 13))
        pattern = (rng.random(r_star) < 0.4).astype(np.uint8)
        occ = np.zeros((1, r_star + 1), dtype=np.uint8)
        occ[0, 1:] = pattern
        want = min(max(density_oracle(list(pattern), r_star), 0.0), 1.0)
        got = density(occ, (0, 0), RIGHT, r_star)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_density_monotone_in_occupancy():
    rng = np.random.default_rng(9)
    for _ in range(100):
        r_star = int(rng.integers(1, 11))
        occ = np.zeros((1, r_star + 1), dtype=np.uint8)
        occ[0, 1:] = (rng.random(r_star) < 0.3).astype(np.uint8)
        empty_slots = [m for m in range(1, r_star + 1) if occ[0, m] == 0]
        base = density(occ, (0, 0), RIGHT, r_star)
        if not empty_slots:
            continue
        occ[0, empty_slots[0]] = 1
        assert density(occ, (0, 0), RIGHT, r_star) >= base


def test_density_ignores_cells_beyond_r_star():
    occ = np.zeros((1, 8), dtype=np.uint8)
    occ[0, 5] = 1  # offset 5, past r_star=4
    assert density(occ, (0, 0), RIGHT, 4) == 0.0


def test_density_rejects_zero_ray():
    occ = np.zeros((1, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        density(occ, (0, 0), RIGHT, 0)


def test_all_ray_weights_strictly_positive():
    for r_star in range(1, 13):
        c = bandwidth(r_star)
        for m in range(1, r_star + 1):
            assert kernel_phi(m / c) > 0.0
