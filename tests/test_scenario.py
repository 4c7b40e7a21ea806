import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, scenario_text
from evacsim.cli import main
from evacsim.floorfield import compute_sff
from evacsim.scenario import (
    PARAM_ATTRS,
    PARAM_RANGES,
    Grid,
    ModelParams,
    Scenario,
    ScenarioError,
    parse_scenario,
    validate,
)
from oracles import serialize_scenario
from test_setup_equivalence import grids

ROOM = """
    ######
    #P..E#
    #.P..#
    ######
"""


def test_parse_basic_fields():
    sc = make_scenario(ROOM, seed=7, max_steps=42)
    assert sc.grid.height == 4 and sc.grid.width == 6
    assert sc.grid.exits == {(1, 4)}
    # agents in raster order
    assert sc.initial_agents == ((1, 1), (2, 2))
    p = sc.params
    assert (p.k_s, p.k_p, p.k_w) == (4.0, 6.0, 4.0)
    assert isinstance(p.r, int) and p.r == 10
    assert p.mu == 0.0
    assert p.seed == 7 and p.max_steps == 42
    assert sc.grid.walls[0, 0] == 1 and sc.grid.walls[1, 2] == 0


def test_parse_three_by_three_no_walls():
    sc = make_scenario("..E\n...\n...")
    assert len(sc.grid.exits) == 1
    assert sc.initial_agents == ()
    assert sc.grid.walls.sum() == 0


def test_parse_rejects_non_ascii():
    with pytest.raises(ScenarioError, match="ASCII"):
        parse_scenario(scenario_text(ROOM).replace("k_S", "k_é"))


def test_parse_missing_equals_has_line():
    text = scenario_text(ROOM).replace("k_P = 6.0", "k_P 6.0")
    with pytest.raises(ScenarioError) as e:
        parse_scenario(text)
    assert e.value.line == 2


def test_parse_unknown_key():
    with pytest.raises(ScenarioError, match="unknown parameter"):
        parse_scenario("k_X = 1\n" + scenario_text(ROOM))


def test_parse_duplicate_key():
    text = scenario_text(ROOM).replace("k_P = 6.0", "k_P = 6.0\nk_P = 7.0")
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(text)


def test_parse_missing_keys_listed():
    with pytest.raises(ScenarioError, match="k_P.*mu|missing"):
        parse_scenario("k_S = 4\n\n###\n#E#\n###\n")


@pytest.mark.parametrize(
    "key,value",
    [
        ("k_S", "-1"),
        ("k_S", "abc"),
        ("k_P", "inf"),
        ("k_W", "nan"),
        ("mu", "1.5"),
        ("mu", "-0.1"),
        ("r", "0"),
        ("r", "2.5"),
        ("seed", "-1"),
        ("seed", str(2**64)),
        ("max_steps", "0"),
    ],
)
def test_parse_out_of_range_values(key, value, tmp_path, capsys):
    # the scenario file, --set and ModelParams all reject the value, and
    # the two text paths with the same message
    attr = PARAM_ATTRS[key]
    kind, _, words = PARAM_RANGES[attr]
    message = f"{key}: must be {words}, got {value!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)} \\(line \\d+\\)$"):
        make_scenario(ROOM, **{key: value})

    room = tmp_path / "room.txt"
    room.write_text(scenario_text(ROOM))
    rc = main(["run", "--scenario", str(room), "--out", str(tmp_path / "o"),
               "--set", f"{key}={value}"])
    assert rc == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not (tmp_path / "o").exists()

    try:
        typed = kind(value)
    except ValueError:
        return  # no value of the field's type ("abc", "2.5" for an int)
    base = dict(k_s=4.0, k_p=6.0, k_w=4.0, r=10, mu=0.0, seed=1, max_steps=10)
    with pytest.raises(ValueError, match=f"^{attr} must be {re.escape(words)}, got "):
        ModelParams(**{**base, attr: typed})


def test_parse_ragged_map():
    text = scenario_text(ROOM).replace("#.P..#", "#.P..##")
    with pytest.raises(ScenarioError, match="ragged"):
        parse_scenario(text)


def test_parse_bad_glyph_line_and_column():
    text = scenario_text(ROOM).replace("#.P..#", "#.X..#")
    with pytest.raises(ScenarioError) as e:
        parse_scenario(text)
    assert e.value.line == 11 and e.value.column == 3


def test_parse_blank_line_inside_map():
    text = scenario_text(ROOM).replace("#P..E#\n", "#P..E#\n\n")
    with pytest.raises(ScenarioError, match="blank line inside map"):
        parse_scenario(text)


def test_parse_missing_map():
    with pytest.raises(ScenarioError, match="missing map"):
        parse_scenario(scenario_text(ROOM).split("\n\n")[0] + "\n")


def test_round_trip_identity():
    sc = make_scenario(ROOM, k_S="0.1", mu="0.25", seed=987654321)
    again = parse_scenario(serialize_scenario(sc))
    assert again.grid == sc.grid
    assert again.initial_agents == sc.initial_agents
    assert again.params == sc.params
    # serialization is also a fixpoint
    assert serialize_scenario(again) == serialize_scenario(sc)


@st.composite
def scenarios(draw):
    grid = draw(grids())
    free = [tuple(int(x) for x in c) for c in np.argwhere((grid.walls == 0) & ~grid.exit_mask)]
    agents = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    weight = st.floats(0.0, 100.0)
    params = ModelParams(
        k_s=draw(weight), k_p=draw(weight), k_w=draw(weight),
        r=draw(st.integers(1, 40)), mu=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)), max_steps=draw(st.integers(1, 10**6)),
    )
    return Scenario(grid=grid, initial_agents=tuple(sorted(agents)), params=params)


@pytest.mark.filterwarnings("ignore:k_P .* are normally")
@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_round_trip_random_rooms(sc):
    again = parse_scenario(serialize_scenario(sc))
    assert again.grid == sc.grid
    assert again.grid.walls.dtype == np.uint8
    assert again.initial_agents == sc.initial_agents
    assert all(type(x) is int for cell in again.initial_agents for x in cell)
    assert again.params == sc.params


def test_validate_clean_scenario():
    sc = make_scenario(ROOM)
    assert validate(sc, compute_sff(sc.grid)) == []


def test_validate_open_border():
    sc = make_scenario("######\n#...E#\n##.###")  # hole at bottom border
    problems = validate(sc, compute_sff(sc.grid))
    assert any("open border at (2, 2)" in p for p in problems)


def test_validate_open_border_exact_list_in_raster_order():
    # open cells on all four sides and two corners; the exit at (1, 5) is
    # not reported, interior floor never is
    sc = make_scenario(
        """
        .#..##
        .....E
        #....#
        ##.#..
        """
    )
    problems = validate(sc, compute_sff(sc.grid))
    assert problems == [
        "open border at (0, 0)",
        "open border at (0, 2)",
        "open border at (0, 3)",
        "open border at (1, 0)",
        "open border at (3, 2)",
        "open border at (3, 4)",
        "open border at (3, 5)",
    ]


def test_validate_no_exits():
    sc = make_scenario("####\n#..#\n####")
    problems = validate(sc, compute_sff(sc.grid))
    assert "no exit cells" in problems


def test_validate_unreachable_agent():
    sc = make_scenario("#####\n#P#E#\n#####")
    problems = validate(sc, compute_sff(sc.grid))
    assert any("unreachable agent at (1, 1)" in p for p in problems)


def test_validate_programmatic_agent_errors():
    base = make_scenario(ROOM)
    field = compute_sff(base.grid)
    bad = Scenario(
        grid=base.grid,
        initial_agents=((1, 1), (1, 1), (0, 0), (9, 9)),
        params=base.params,
    )
    problems = validate(bad, field)
    assert any("occupied twice at (1, 1)" in p for p in problems)
    assert any("agent on wall at (0, 0)" in p for p in problems)
    assert any("out of bounds at (9, 9)" in p for p in problems)


def test_params_warns_when_people_weight_below_k_s():
    with pytest.warns(UserWarning, match="k_P"):
        make_scenario(ROOM, k_P="1.0")
    with pytest.warns(UserWarning):
        make_scenario(ROOM, k_W="0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_scenario(ROOM)  # defaults satisfy the convention, no warning


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_s": -1.0},
        {"r": 0},
        {"mu": 1.2},
        {"seed": -3},
        {"max_steps": 0},
    ],
)
def test_model_params_programmatic_rejects(kwargs):
    base = dict(k_s=4.0, k_p=6.0, k_w=4.0, r=10, mu=0.0, seed=1, max_steps=10)
    with pytest.raises(ValueError):
        ModelParams(**{**base, **kwargs})


def test_grid_invariants():
    walls = np.zeros((3, 3), dtype=np.uint8)
    walls[1, 1] = 1
    with pytest.raises(ValueError, match="exit on wall"):
        Grid(height=3, width=3, walls=walls, exits=frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="out of bounds"):
        Grid(height=3, width=3, walls=walls, exits=frozenset({(5, 0)}))
    g = Grid(height=3, width=3, walls=walls, exits=frozenset({(0, 0)}))
    assert g.in_bounds((2, 2)) and not g.in_bounds((3, 0))
    assert g.exit_mask[0, 0] and g.exit_mask.sum() == 1
    same = Grid(height=3, width=3, walls=walls.copy(), exits=frozenset({(0, 0)}))
    assert g == same
