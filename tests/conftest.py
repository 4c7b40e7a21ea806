import os
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from evacsim import engine, transition
from evacsim.scenario import Grid, parse_scenario

sys.path.insert(0, str(Path(__file__).parent))

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

PARAM_DEFAULTS = {
    "k_S": "4.0",
    "k_P": "6.0",
    "k_W": "4.0",
    "r": "10",
    "mu": "0.0",
    "seed": "1",
    "max_steps": "100",
}


def scenario_text(map_block: str, **overrides) -> str:
    """Full scenario text from a map block plus parameter overrides."""
    params = {**PARAM_DEFAULTS, **{k: str(v) for k, v in overrides.items()}}
    head = "\n".join(f"{k} = {params[k]}" for k in PARAM_DEFAULTS)
    return head + "\n\n" + dedent(map_block).strip("\n") + "\n"


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for subprocesses that
    import evacsim from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def make_scenario(map_block: str, **overrides):
    return parse_scenario(scenario_text(map_block, **overrides))


def random_grid(rng, h, w, wall_frac, n_exits, enclosed=False):
    """Random Grid; with enclosed=True the border is wall except the exits,
    which are carved into the border."""
    walls = (rng.random((h, w)) < wall_frac).astype(np.uint8)
    if enclosed:
        walls[0, :] = walls[-1, :] = 1
        walls[:, 0] = walls[:, -1] = 1
        border = [(0, j) for j in range(1, w - 1)] + [(h - 1, j) for j in range(1, w - 1)]
        border += [(i, 0) for i in range(1, h - 1)] + [(i, w - 1) for i in range(1, h - 1)]
        picks = rng.choice(len(border), size=n_exits, replace=False)
        exits = set()
        for k in picks:
            cell = border[int(k)]
            walls[cell] = 0
            exits.add(cell)
    else:
        free = np.argwhere(walls == 0)
        if len(free) < n_exits:
            walls[:] = 0
            free = np.argwhere(walls == 0)
        picks = rng.choice(len(free), size=n_exits, replace=False)
        exits = {tuple(int(x) for x in free[k]) for k in picks}
        for cell in exits:
            walls[cell] = 0
    return Grid(walls, frozenset(exits))


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR


# engine._SPLIT_DRAWS values that put every step on one draw path
DRAW_PATHS = {"always": 0, "never": sys.maxsize}


@pytest.fixture(params=sorted(DRAW_PATHS))
def draw_path(request, monkeypatch):
    """Puts every engine.step of the test on one draw path: _split_draws
    ("always") or _scan_draws ("never")."""
    monkeypatch.setattr(engine, "_SPLIT_DRAWS", DRAW_PATHS[request.param])
    return request.param


# transition._COLUMN_SUM_AGENTS values that put every distributions call
# on one crowd sum, and ray lengths on both sides of the column sums'
# steps: a tree of eight columns from 8 cells on, .sum(axis=2) from 16
CROWD_SUMS = {"columns": 0, "rows": sys.maxsize}
CROWD_RAYS = [7, 8, 9, 15, 16, 17]


@pytest.fixture(params=sorted(CROWD_SUMS))
def crowd_sum(request, monkeypatch):
    """Puts every distributions call of the test on one crowd sum: the
    column sums ("columns", which leave rays of 16 cells or more to
    .sum(axis=2)) or .sum(axis=2) ("rows")."""
    monkeypatch.setattr(transition, "_COLUMN_SUM_AGENTS", CROWD_SUMS[request.param])
    return request.param
