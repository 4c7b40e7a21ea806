import math

import numpy as np
import pytest

from conftest import make_scenario, random_grid
from evacsim import transition
from evacsim.floorfield import compute_sff
from evacsim.scenario import ModelParams
from evacsim.transition import TransitionTables
from oracles import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    direction_weights,
    in_bounds,
    transition_distribution,
    unnormalized_weight,
)


def setup_open_room():
    """41x41 room, exit row in the middle of the left wall; the center cell
    sits on the exit row with every wall at least r+2 away."""
    rows = []
    for i in range(41):
        row = []
        for j in range(41):
            border = i in (0, 40) or j in (0, 40)
            row.append("E" if (j == 0 and i == 20) else ("#" if border else "."))
        rows.append("".join(row))
    sc = make_scenario("\n".join(rows))
    return sc, compute_sff(sc.grid)


def empty_occ(grid):
    return np.zeros((grid.height, grid.width), dtype=np.uint8)


def test_wall_direction_weight_exactly_zero():
    sc = make_scenario("#####\n#E..#\n#####")
    f = compute_sff(sc.grid)
    occ = empty_occ(sc.grid)
    assert unnormalized_weight(f, sc.grid, occ, (1, 2), UP, sc.params) == 0.0
    assert unnormalized_weight(f, sc.grid, occ, (1, 2), DOWN, sc.params) == 0.0
    dist = transition_distribution(f, sc.grid, occ, (1, 2), sc.params)
    assert dist.p[UP] == 0.0 and dist.p[DOWN] == 0.0


def test_open_space_forward_weight_is_exp_k_s():
    sc, f = setup_open_room()
    occ = empty_occ(sc.grid)
    cell = (20, 20)  # on the exit row, far from every wall
    assert f[20, 19] == f[20, 20] - 1.0
    w = unnormalized_weight(f, sc.grid, occ, cell, LEFT, sc.params)
    assert w == math.exp(4.0)
    assert w == pytest.approx(54.598150033144236, rel=1e-12)


def test_open_space_crowded_ray_clamped_density():
    sc, f = setup_open_room()
    occ = empty_occ(sc.grid)
    for m in range(1, 11):
        occ[20, 20 - m] = 1  # fully occupied ray toward the exit
    w = unnormalized_weight(f, sc.grid, occ, (20, 20), LEFT, sc.params)
    assert w == math.exp(4.0 - 6.0)
    assert w == pytest.approx(0.1353352832366127, rel=1e-12)


def test_corridor_distribution_frozen():
    sc = make_scenario("#" * 33 + "\n#" + "." * 30 + "E#\n" + "#" * 33)
    f = compute_sff(sc.grid)
    occ = empty_occ(sc.grid)
    dist = transition_distribution(f, sc.grid, occ, (1, 5), sc.params)
    e4, em4 = math.exp(4.0), math.exp(-4.0)
    assert dist.p[RIGHT] == pytest.approx(0.9996646498695335, rel=1e-12)
    assert dist.p[RIGHT] == pytest.approx(e4 / (e4 + em4), rel=1e-15)
    assert dist.p[LEFT] == pytest.approx(em4 / (e4 + em4), rel=1e-12)
    assert dist.p[UP] == 0.0 and dist.p[DOWN] == 0.0
    assert not dist.norm_zero


def test_symmetric_room_left_right_equal():
    rows = ["#######", "###E###", "#.....#", "#.....#", "#.....#", "#######"]
    sc = make_scenario("\n".join(rows))
    f = compute_sff(sc.grid)
    occ = empty_occ(sc.grid)
    dist = transition_distribution(f, sc.grid, occ, (3, 3), sc.params)
    assert dist.p[LEFT] == dist.p[RIGHT]
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_k_s_zero_uniform_in_open_space():
    sc, f = setup_open_room()
    params = ModelParams(k_s=0.0, k_p=6.0, k_w=4.0, r=10, mu=0.0, seed=1, max_steps=10)
    occ = empty_occ(sc.grid)
    dist = transition_distribution(f, sc.grid, occ, (20, 20), params)
    assert np.allclose(dist.p, 0.25, atol=1e-15)


def test_wall_penalty_applies_to_all_tied_best_directions():
    sc = make_scenario("#####\n#E.E#\n#####")
    f = compute_sff(sc.grid)
    occ = empty_occ(sc.grid)
    w = direction_weights(f, sc.grid, occ, (1, 2), sc.params)
    expected = math.exp(4.0 * 1.0 - 4.0 * (1.0 - 1 / 10))
    assert w.p_tilde[LEFT] == pytest.approx(expected, rel=1e-12)
    assert w.p_tilde[RIGHT] == w.p_tilde[LEFT]
    assert w.norm == pytest.approx(2 * expected, rel=1e-12)


def test_backward_direction_carries_no_wall_penalty():
    # in the corridor the backward delta is below the max, so the short
    # sight line behind the agent must not be punished
    sc = make_scenario("#########\n#E......#\n#########", r="3")
    f = compute_sff(sc.grid)
    occ = empty_occ(sc.grid)
    w = direction_weights(f, sc.grid, occ, (1, 2), sc.params)
    assert w.p_tilde[LEFT] == pytest.approx(math.exp(4.0 - 4.0 * (1 - 1 / 3)), rel=1e-12)
    assert w.p_tilde[RIGHT] == pytest.approx(math.exp(-4.0), rel=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_monotone_in_k_p():
    sc, f = setup_open_room()
    occ = empty_occ(sc.grid)
    occ[19, 20] = 1  # one pedestrian straight up
    prev = None
    for k_p in (0.0, 2.0, 6.0, 12.0, 18.0):
        params = ModelParams(k_s=4.0, k_p=k_p, k_w=4.0, r=10, mu=0.0, seed=1, max_steps=10)
        dist = transition_distribution(f, sc.grid, occ, (20, 20), params)
        if prev is not None:
            assert dist.p[UP] <= prev + 1e-15
        prev = dist.p[UP]


def test_norm_zero_for_sealed_cell():
    sc = make_scenario("#####\n#.#E#\n#####")
    f = compute_sff(sc.grid)
    occ = empty_occ(sc.grid)
    dist = transition_distribution(f, sc.grid, occ, (1, 1), sc.params)
    assert dist.norm_zero
    assert (dist.p == 0.0).all()


def test_extreme_parameters_stay_finite():
    sc, f = setup_open_room()
    params = ModelParams(k_s=100.0, k_p=100.0, k_w=100.0, r=10, mu=0.0, seed=1, max_steps=10)
    occ = empty_occ(sc.grid)
    occ[20, 22] = 1
    dist = transition_distribution(f, sc.grid, occ, (20, 21), params)
    assert np.isfinite(dist.p).all()
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_tables_match_scalar_path():
    rng = np.random.default_rng(77)
    for _ in range(20):
        grid = random_grid(rng, 12, 14, 0.22, 2, enclosed=True)
        f = compute_sff(grid)
        params = ModelParams(
            k_s=float(rng.uniform(0, 6)),
            k_p=float(rng.uniform(0, 12)),
            k_w=float(rng.uniform(0, 8)),
            r=int(rng.integers(1, 11)),
            mu=0.0,
            seed=1,
            max_steps=10,
        )
        occ = ((rng.random((12, 14)) < 0.25) & (grid.walls == 0)).astype(np.uint8)
        cells = [
            (i, j)
            for i in range(12)
            for j in range(14)
            if grid.walls[i, j] == 0 and np.isfinite(f[i, j])
        ]
        tables = TransitionTables(f, grid, params)
        flat = np.array([i * 14 + j for i, j in cells], dtype=np.int64)
        p_vec, nz_vec = tables.distributions(occ, flat, params.k_p)
        for k, cell in enumerate(cells):
            ref = transition_distribution(f, grid, occ, cell, params)
            assert bool(nz_vec[k]) == ref.norm_zero
            assert np.allclose(p_vec[k], ref.p, rtol=1e-12, atol=1e-15)
            assert ((p_vec[k] == 0.0) == (ref.p == 0.0)).all()


def test_distribution_zeros_iff_wall():
    rng = np.random.default_rng(123)
    grid = random_grid(rng, 10, 10, 0.2, 1, enclosed=True)
    f = compute_sff(grid)
    sc_params = ModelParams(k_s=4.0, k_p=6.0, k_w=4.0, r=10, mu=0.0, seed=1, max_steps=10)
    occ = ((rng.random((10, 10)) < 0.3) & (grid.walls == 0)).astype(np.uint8)
    offsets = ((-1, 0), (0, 1), (1, 0), (0, -1))
    for i in range(10):
        for j in range(10):
            if grid.walls[i, j] or not np.isfinite(f[i, j]):
                continue
            dist = transition_distribution(f, grid, occ, (i, j), sc_params)
            for d, (di, dj) in enumerate(offsets):
                ni, nj = i + di, j + dj
                blocked = not in_bounds(grid, (ni, nj)) or grid.walls[ni, nj]
                assert (dist.p[d] == 0.0) == blocked


def test_norm_and_running_sums_follow_numpys_sum_order():
    # distributions adds the four weights as ((w0 + w1) + w2) + w3, which
    # must be the order of numpy's sum along a contiguous 4-entry row, and
    # the split draw path's running column sums must be np.cumsum's.
    # Exponents spread over +-40 make the order of the additions show in
    # the bits of many rows; some -inf give blocked directions and five
    # all-zero rows
    rng = np.random.default_rng(28)
    grid = random_grid(rng, 40, 50, 0.0, 1)
    params = ModelParams(k_s=4.0, k_p=6.0, k_w=4.0, r=1, mu=0.0, seed=1, max_steps=10)
    tables = TransitionTables(compute_sff(grid), grid, params)
    n = grid.height * grid.width
    expo = rng.uniform(-40.0, 40.0, (4, n))
    expo[:, :5] = -np.inf
    expo[rng.random((4, n)) < 0.05] = -np.inf
    tables.static_expo = expo
    # k_P = 0 leaves the exponents as they are, so the weights are np.exp's
    p, norm_zero = tables.distributions(empty_occ(grid), np.arange(n), 0.0)
    w = np.exp(expo)
    norm = np.ascontiguousarray(w.T).sum(axis=1)
    version = f"numpy {np.__version__}"
    assert (((w[0] + w[1]) + w[2]) + w[3]).tobytes() == norm.tobytes(), (
        f"{version}: sum along a 4-entry row is not ((w0 + w1) + w2) + w3")
    assert np.array_equal(norm_zero, norm == 0.0) and norm_zero[:5].all()
    want = (w / np.where(norm_zero, 1.0, norm)).T
    assert p.tobytes() == want.tobytes(), f"{version}: p is not the weights over numpy's row sum"

    acc = p[:, 0]
    running = [acc]
    for c in range(1, 4):
        acc = acc + p[:, c]
        running.append(acc)
    assert np.stack(running, axis=1).tobytes() == np.cumsum(p, axis=1).tobytes(), (
        f"{version}: np.cumsum along a row is not the running sum of its entries")


@pytest.mark.parametrize("r", range(1, 18))
def test_column_sums_follow_numpys_sum_order(r):
    # distributions' crowd sums must have the bits of .sum(axis=2) over the
    # (4, n, r) ray products, numpy's order along a contiguous row, in calls
    # of at least the column sums' gate: rays of 1 to 15 cells on the column
    # sums, and of 16 and 17, where numpy's order takes a second block of
    # eight columns, handed back to .sum.  Weights spread over 2^-20 to
    # 2^20 make the order of the additions show in the bits of many rays; a
    # sparse occupancy and weight rows that are zero past a random length
    # give runs of zero products
    rng = np.random.default_rng(r)
    size, rows = 5_000, 64
    occupancy = (rng.random(size) < 0.6).astype(np.uint8)
    w_rows = rng.uniform(0.0, 1.5, (rows, r)) * 2.0 ** rng.integers(-20, 21, (rows, r))
    w_rows[np.arange(r) >= rng.integers(0, r + 1, rows)[:, None]] = 0.0
    off_rows = rng.integers(0, size // 2, (rows, r))
    gate = transition._COLUMN_SUM_AGENTS
    for n in (gate, 3 * gate):
        key = rng.integers(0, rows, (4, n))
        slots = rng.integers(0, size // 2, n)
        prod = occupancy.take(off_rows.take(key, axis=0) + slots[:, None]) * w_rows.take(key, axis=0)
        crowd = transition._crowd(occupancy, off_rows, w_rows, key, slots)
        assert crowd.shape == (4, n) and crowd.tobytes() == prod.sum(axis=2).tobytes(), (
            f"numpy {np.__version__}: the crowd sums of {n} agents' {r}-cell rays "
            f"are not .sum(axis=2)'s")
