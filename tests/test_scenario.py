import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, scenario_text
from evacsim import run
from evacsim.cli import main
from evacsim.floorfield import compute_sff
from evacsim.scenario import (
    PARAMS,
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
        # just above the bound, and where np.exp overflows
        ("k_S", repr(math.nextafter(708.0, math.inf))),
        ("k_S", "710"),
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
    attr, kind, _, words = PARAMS[key]
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


# the plain scenario text of ROOM: parameters on lines 1-7, the separator
# on line 8, the map on lines 9-12
PLAIN = scenario_text(ROOM)
HEAD, MAP = PLAIN.split("\n\n")


def with_line(line_no, new, text=PLAIN):
    lines = text.split("\n")
    lines[line_no - 1] = new
    return "\n".join(lines)


@pytest.mark.parametrize("gap", ["\n", "\n\n\n", " \n", "\n  \n\t\n"])
@pytest.mark.parametrize("tail", ["", "\n\n", "   \n", "\t\n \n\n"])
def test_parse_accepts_blank_lines_around_map(gap, tail):
    # gap is the separator and any blank or whitespace-only lines after it
    assert parse_scenario(HEAD + "\n" + gap + MAP + tail) == parse_scenario(PLAIN)


@pytest.mark.parametrize("lead", ["", "\n \n"])
@pytest.mark.parametrize("run", ["\n", "\n\n", "   \n", " \n\t\n\n"])
def test_parse_blank_run_inside_map_reports_its_first_line(lead, run):
    text = PLAIN.replace("\n\n", "\n\n" + lead).replace("#P..E#\n", "#P..E#\n" + run)
    line = 11 + lead.count("\n")
    with pytest.raises(ScenarioError, match=f"^blank line inside map \\(line {line}\\)$") as e:
        parse_scenario(text)
    assert e.value.line == line and e.value.column is None


@pytest.mark.parametrize(
    "line_no,row,want",
    [
        (10, "#P..E", (10, "5 glyphs, expected 6")),
        (10, "#P..E# ", (10, "7 glyphs, expected 6")),
        (11, "#.P..##", (11, "7 glyphs, expected 6")),
        (12, "#####", (12, "5 glyphs, expected 6")),
        # the first row sets the width
        (9, "#######", (10, "6 glyphs, expected 7")),
    ],
)
def test_parse_ragged_row_has_line(line_no, row, want):
    line, words = want
    with pytest.raises(ScenarioError, match=f"^ragged map row: {words} \\(line {line}\\)$") as e:
        parse_scenario(with_line(line_no, row))
    assert e.value.line == line and e.value.column is None


@pytest.mark.parametrize("tail", ["", "\n", "\n\n", "\n  \n\t\n"])
def test_parse_parameters_then_only_blank_lines_is_missing_map(tail):
    with pytest.raises(ScenarioError, match="^missing map section$") as e:
        parse_scenario(HEAD + tail)
    assert e.value.line is None


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
    assert again.grid.walls.dtype == bool
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
        params = make_scenario(ROOM).params  # defaults satisfy the convention, no warning
    # the warning points at the line that made the parameters, not at the
    # dataclass machinery or the parser
    calls = {
        "direct": lambda: ModelParams(k_s=4.0, k_p=1.0, k_w=4.0, r=10, mu=0.0, seed=1,
                                      max_steps=10),
        "replace": lambda: replace(params, k_p=1.0),
        "parse_scenario": lambda: parse_scenario(scenario_text(ROOM, k_P="1.0")),
    }
    for name, call in calls.items():
        with pytest.warns(UserWarning, match="k_P") as record:
            call()
        assert [w.filename for w in record] == [__file__], name


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_s": -1.0},
        {"r": 0},
        {"mu": 1.2},
        {"seed": -3},
        {"max_steps": 0},
        # the type column of PARAMS: a wrong type is a range error
        {"r": 2.5},
        {"seed": 1.5},
        {"r": True},
        {"max_steps": 3.0},
    ],
)
def test_model_params_programmatic_rejects(kwargs):
    base = dict(k_s=4.0, k_p=6.0, k_w=4.0, r=10, mu=0.0, seed=1, max_steps=10)
    [(attr, value)] = kwargs.items()
    [words] = [row[3] for row in PARAMS.values() if row[0] == attr]
    with pytest.raises(ValueError, match=re.escape(f"{attr} must be {words}, got {value!r}")):
        ModelParams(**{**base, **kwargs})


def test_grid_invariants():
    walls = np.zeros((3, 3), dtype=np.uint8)
    walls[1, 1] = 1
    with pytest.raises(ValueError, match="exit on wall"):
        Grid(walls, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="out of bounds"):
        Grid(walls, frozenset({(5, 0)}))
    with pytest.raises(ValueError, match=re.escape("exit at (1.5, 0) is not two integers")):
        Grid(walls, frozenset({(1.5, 0)}))
    g = Grid(walls, frozenset({(0, 0)}))
    assert g.exit_mask[0, 0] and g.exit_mask.sum() == 1
    same = Grid(walls.copy(), frozenset({(0, 0)}))
    assert g == same

    # the grid keeps its own mask: walling over the only exit in the
    # caller's array afterwards changes neither the grid, its field nor
    # validate's list, and the run still empties the room
    room = np.array([[c == "#" for c in row] for row in ROOM.split()], dtype=np.uint8)
    sc = replace(make_scenario(ROOM), grid=Grid(room, frozenset({(1, 4)})))
    walls, field = sc.grid.walls.copy(), compute_sff(sc.grid)
    room[1, 4] = 1
    assert np.array_equal(sc.grid.walls, walls) and sc.grid.exit_mask[1, 4]
    assert compute_sff(sc.grid).tobytes() == field.tobytes()
    assert validate(sc, compute_sff(sc.grid)) == []
    assert run(replace(sc, params=replace(sc.params, max_steps=50))).evac_time is not None

    # the masks are read-only bool arrays, in a pickled copy too
    for grid in (g, pickle.loads(pickle.dumps(g))):
        assert grid.walls.dtype == grid.exit_mask.dtype == bool
        for mask in (grid.walls, grid.exit_mask):
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 0] = not mask[0, 0]

    # any nonzero value is a wall: masks of 2s and of 0.5s give the 0/1
    # mask's grid, field bits and validate list (an open border, a sealed
    # agent)
    room = np.array([[c == "#" for c in row] for row in ["######", "#.#.E#", "#.#..#", "###.##"]],
                    dtype=np.uint8)
    base = replace(make_scenario(ROOM), initial_agents=((1, 1), (2, 3)))
    want = None
    for scale in (1, 2, 0.5):
        sc = replace(base, grid=Grid(room * scale, frozenset({(1, 4)})))
        field = compute_sff(sc.grid)
        got = (sc.grid, field.tobytes(), validate(sc, field))
        want = want or got
        assert got == want, scale
    assert want[2] == ["open border at (3, 3)", "unreachable agent at (1, 1)"]

    for shape in ((3,), (2, 3, 3)):
        with pytest.raises(ValueError, match=re.escape(f"walls must be 2-D, got shape {shape}")):
            Grid(np.zeros(shape, dtype=np.uint8), frozenset())
