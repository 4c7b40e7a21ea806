import csv
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, scenario_text, src_env
from evacsim import cli, engine
from evacsim.cli import main
from evacsim.engine import run_batch
from evacsim.floorfield import compute_sff

ROOM = """
########
#..P..E#
#P...PE#
#..P..E#
########
"""

REPO_ROOT = Path(__file__).resolve().parent.parent

CORRIDOR = "####################\n#P................E#\n####################"


@pytest.fixture
def room_file(tmp_path):
    path = tmp_path / "room.txt"
    path.write_text(scenario_text(ROOM, seed=3, max_steps=400))
    return path


@pytest.fixture
def corridor_file(tmp_path):
    path = tmp_path / "corridor.txt"
    path.write_text(scenario_text(CORRIDOR, max_steps=400))
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def tree_bytes(root: Path):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_run_single_seed_outputs(room_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(room_file), "--out", str(out),
               "--snapshot-steps", "0,2"])
    assert rc == 0
    run_dir = out / "s3"
    rows = read_csv(run_dir / "curve.csv")
    assert rows[0] == ["step", "remaining", "spread"]
    assert rows[1][:2] == ["0", "4"]
    assert int(rows[-1][1]) == 0  # finished well inside max_steps
    for t in (0, 2):
        assert (run_dir / f"snap_t{t}.txt").exists()
        assert (run_dir / f"snap_t{t}.pgm").read_bytes().startswith(b"P5\n8 5\n255\n")
    assert not (out / "batch.csv").exists()  # single seed, no batch table


def test_run_snapshot_none_disables(room_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(room_file), "--out", str(out),
                 "--snapshot-steps", "none"]) == 0
    assert list((out / "s3").glob("snap_*")) == []


def test_run_seed_batch_and_aggregate_row(room_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(room_file), "--out", str(out),
               "--seeds", "1,2,3", "--snapshot-steps", "1"])
    assert rc == 0
    for s in (1, 2, 3):
        assert (out / f"s{s}" / "curve.csv").exists()
    rows = read_csv(out / "batch.csv")
    assert rows[0] == ["seed", "evac_time", "complete", "spread_t1"]
    per_seed = rows[1:4]
    assert [r[0] for r in per_seed] == ["1", "2", "3"]
    assert all(r[2] == "1" for r in per_seed)
    agg = rows[4]
    assert agg[0] == "mean"
    want_mean = sum(int(r[1]) for r in per_seed) / 3
    assert float(agg[1]) == pytest.approx(want_mean)
    assert float(agg[2]) == 1.0
    want_spread = sum(float(r[3]) for r in per_seed) / 3
    assert float(agg[3]) == pytest.approx(want_spread)


def test_sweep_layout_and_aggregate(corridor_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(corridor_file), "--out", str(out),
               "--sweep", "k_P=6.0,18.0", "--seeds", "1,2",
               "--snapshot-steps", "none"])
    assert rc == 0
    for v in ("6.0", "18.0"):
        for s in (1, 2):
            assert (out / f"p{v}_s{s}" / "curve.csv").exists()
    rows = read_csv(out / "aggregate.csv")
    assert rows[0] == ["param", "value", "seed", "evac_time", "complete"]
    # two per-seed rows then a mean row, per value
    assert [r[2] for r in rows[1:4]] == ["1", "2", "mean"]
    assert [r[2] for r in rows[4:7]] == ["1", "2", "mean"]
    assert rows[1][:2] == ["k_P", "6.0"]
    assert rows[4][:2] == ["k_P", "18.0"]
    for agg in (rows[3], rows[6]):
        assert agg[4] == "1.0"


def test_set_override_changes_behavior(room_file, tmp_path):
    fast = tmp_path / "fast"
    slow = tmp_path / "slow"
    assert main(["run", "--scenario", str(room_file), "--out", str(fast),
                 "--snapshot-steps", "none", "--set", "max_steps=2"]) == 0
    assert main(["run", "--scenario", str(room_file), "--out", str(slow),
                 "--snapshot-steps", "none"]) == 0
    fast_rows = read_csv(fast / "s3" / "curve.csv")
    slow_rows = read_csv(slow / "s3" / "curve.csv")
    assert len(fast_rows) == 4  # header + steps 0..2
    assert len(slow_rows) > len(fast_rows)


def test_params_warning_names_the_input_that_set_it(tmp_path, capsys):
    # the k_P/k_W-below-k_S warning names the file, --set or --sweep, once
    # per text, and not a line of cli.py; a text an earlier input already
    # gave is not repeated
    low = tmp_path / "low.txt"
    low.write_text(scenario_text(CORRIDOR, k_P=2, max_steps=5))
    argv = ["sweep", "--scenario", str(low), "--snapshot-steps", "none", "--seeds", "1,2",
            "--set", "k_P=3", "--sweep", "k_W=1,4,5"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {low}: k_P (2.0) and k_W (4.0) are normally >= k_S (4.0)",
        "warning: --set: k_P (3.0) and k_W (4.0) are normally >= k_S (4.0)",
        "warning: --sweep: k_P (3.0) and k_W (1.0) are normally >= k_S (4.0)",
        "warning: --sweep: k_P (3.0) and k_W (5.0) are normally >= k_S (4.0)",
    ]
    corridor = SCENARIO_DIR / "corridor30.txt"
    assert main(["run", "--scenario", str(corridor), "--out", str(tmp_path / "run"),
                 "--snapshot-steps", "none", "--set", "k_P=1", "--workers", "2"]) == 0
    assert capsys.readouterr().err == (
        "warning: --set: k_P (1.0) and k_W (4.0) are normally >= k_S (4.0)\n")


@pytest.mark.parametrize(
    "argv_tail",
    [
        ["--sweep", "k_Q=1,2"],            # unknown key
        ["--sweep", "seed=1,2"],           # seed must use --seeds
        ["--sweep", "k_P="],               # empty value list
        ["--sweep", "mu=1.5"],             # out of range
        ["--sweep", "k_P=6,18,6"],         # a value twice
        ["--sweep", "k_P=6", "--seeds", "1,2,01"],  # a seed twice
        ["--sweep", "k_P=6", "--seeds", ""],        # empty seed list
    ],
)
def test_sweep_usage_errors_exit_2(corridor_file, tmp_path, capsys, argv_tail):
    rc = main(["sweep", "--scenario", str(corridor_file),
               "--out", str(tmp_path / "o"), *argv_tail])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:")
    assert "(line" not in err  # flags have no line to point at
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sweep, shown", [("k_P=6,6.0", "6.0"), ("r=3,03", "3")])
def test_sweep_value_spelled_twice_exit_2(corridor_file, tmp_path, capsys, sweep, shown):
    # two spellings of one value would run the same tasks twice, into two
    # directories, and repeat their rows in aggregate.csv
    rc = main(["sweep", "--scenario", str(corridor_file), "--out", str(tmp_path / "o"),
               "--sweep", sweep])
    assert rc == 2
    assert f"--sweep lists {shown} more than once" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_duplicate_seeds_exit_2(room_file, tmp_path, capsys):
    rc = main(["run", "--scenario", str(room_file), "--out", str(tmp_path / "o"),
               "--seeds", "1,2,1"])
    assert rc == 2
    assert "--seeds lists 1 more than once" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv_tail, message",
    [
        (["--seeds", "1,2", "--snapshot-steps", "3,3"], "--snapshot-steps lists 3 more than once"),
        (["--snapshot-steps", "-5"], "--snapshot-steps entries must be >= 0, got -5"),
        (["--dump-distributions", "-1"], "--dump-distributions must be >= 0, got -1"),
    ],
    ids=["duplicate-snapshot-step", "negative-snapshot-step", "negative-dump-step"],
)
def test_run_bad_step_flags_exit_2(room_file, tmp_path, capsys, argv_tail, message):
    rc = main(["run", "--scenario", str(room_file), "--out", str(tmp_path / "o"), *argv_tail])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_set_flag_exit_2(room_file, tmp_path, capsys):
    rc = main(["run", "--scenario", str(room_file), "--out", str(tmp_path / "o"),
               "--set", "k_S"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "scenario error: --set expects key=value with a known key, got 'k_S'\n")
    rc = main(["run", "--scenario", str(room_file), "--out", str(tmp_path / "o"),
               "--set", "mu=-1"])
    assert rc == 2
    assert capsys.readouterr().err == "scenario error: mu: must be a real in [0, 1], got '-1'\n"
    # a swept value is checked by the same rule, with the same message
    rc = main(["sweep", "--scenario", str(room_file), "--out", str(tmp_path / "o"),
               "--sweep", "k_S=1,-1"])
    assert rc == 2
    assert capsys.readouterr().err == "scenario error: k_S: must be a finite real >= 0, got '-1'\n"
    assert not (tmp_path / "o").exists()


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a scenario\n")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scenario error:" in capsys.readouterr().err


def test_non_ascii_scenario_exit_2(room_file, tmp_path, capsys):
    room_file.write_bytes(room_file.read_bytes().replace(b"k_S", "k_é".encode()))
    rc = main(["run", "--scenario", str(room_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "ASCII" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_workers_zero_exit_2(room_file, tmp_path, capsys):
    rc = main(["run", "--scenario", str(room_file), "--out", str(tmp_path / "o"),
               "--workers", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("scenario error:")
    assert not (tmp_path / "o").exists()


def test_invalid_scenario_exit_3(tmp_path, capsys):
    leaky = tmp_path / "leaky.txt"
    # floor cell on the bottom border row, and an agent walled in at (1, 4)
    leaky.write_text(scenario_text("######\n#PE#P#\n#..###\n#.####"))
    rc = main(["run", "--scenario", str(leaky), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "invalid scenario: open border at (3, 1)\n"
        "invalid scenario: unreachable agent at (1, 4)\n"
    )


def test_missing_file_exit_4(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "i/o error:" in capsys.readouterr().err


def test_out_dir_under_file_exit_4(room_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    rc = main(["run", "--scenario", str(room_file),
               "--out", str(blocker / "sub")])
    assert rc == 4


def test_reruns_byte_identical(room_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["run", "--scenario", str(room_file), "--seeds", "1,2",
            "--snapshot-steps", "0,3", "--dump-sff"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_workers_do_not_change_bytes(corridor_file, tmp_path):
    serial, parallel = tmp_path / "w1", tmp_path / "w2"
    argv = ["sweep", "--scenario", str(corridor_file), "--sweep", "k_P=6.0,18.0",
            "--seeds", "1,2", "--snapshot-steps", "1"]
    assert main(argv + ["--out", str(serial), "--workers", "1"]) == 0
    assert main(argv + ["--out", str(parallel), "--workers", "2"]) == 0
    assert tree_bytes(serial) == tree_bytes(parallel)


@settings(max_examples=10, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5, unique=True),
    key=st.sampled_from(["k_P", "k_W", "r"]),
    values=st.lists(st.integers(0, 60), min_size=2, max_size=2, unique=True),
)
@example(seeds=[1, 2, 3], key="r", values=[2, 9])
@example(seeds=[1, 2, 3, 4, 5], key="k_P", values=[12, 36])
def test_workers_do_not_change_bytes_property(seeds, key, values):
    # any seed list and swept pair on corridor30: one, two and three
    # workers write the same tree, byte for byte.  A k_W or r sweep gives
    # each value a set-up of its own, and a seed count the worker count
    # does not divide gives chunks of unequal size.
    swept = [str(v + 1) if key == "r" else str(v / 2) for v in values]
    argv = ["sweep", "--scenario", str(SCENARIO_DIR / "corridor30.txt"),
            "--sweep", f"{key}=" + ",".join(swept), "--seeds", ",".join(map(str, seeds))]
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for workers in (1, 2, 3):
            out = Path(tmp) / f"w{workers}"
            assert main(argv + ["--out", str(out), "--workers", str(workers)]) == 0
            trees.append(tree_bytes(out))
        assert trees[1] == trees[0] and trees[2] == trees[0]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and maps in this process, so no worker process starts."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "workers, tail, tasks, chunks",
    [(10000, ["--seeds", "1,2"], [(10, 6.0, 1), (10, 6.0, 2)], [1, 1]),
     (2, ["--seeds", "1,2,3", "--sweep", "r=3,10"],
      [(r, 6.0, s) for r in (3, 10) for s in (1, 2, 3)], [3, 3]),
     (2, ["--seeds", "1,2,3", "--sweep", "k_P=6,18"],
      [(10, k_p, s) for k_p in (6.0, 18.0) for s in (1, 2, 3)], [3, 3])],
    ids=["ten_thousand_workers", "setup_per_value", "one_setup"],
)
def test_pool_is_no_larger_than_the_chunk_count(monkeypatch, corridor_file, tmp_path, workers,
                                                tail, tasks, chunks):
    # a pool of --workers 10000 would fork 10000 processes at its first task
    batches = []

    def recording_batch(scenarios, *args):
        batches.append([(sc.params.r, sc.params.k_p, sc.params.seed) for sc in scenarios])
        return run_batch(scenarios, *args)

    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "run_batch", recording_batch)
    command = "sweep" if "--sweep" in tail else "run"
    assert main([command, "--scenario", str(corridor_file), "--out", str(tmp_path / "o"),
                 "--workers", str(workers), *tail]) == 0
    assert RecordingPool.sizes == [min(workers, len(chunks))]
    assert RecordingPool.sizes[0] <= len(batches)
    # the chunks are consecutive slices of the task list, in task order
    assert [len(b) for b in batches] == chunks
    assert [task for b in batches for task in b] == tasks


def test_sweep_of_set_ups_computes_two_fields(monkeypatch, corridor_file, tmp_path):
    # one for the CLI's validation and one for its single run_batch, which
    # builds the tables of both r values on it
    fields = []
    for module in (cli, engine):
        monkeypatch.setattr(module, "compute_sff",
                            lambda grid: fields.append(grid) or compute_sff(grid))
    assert main(["sweep", "--scenario", str(corridor_file), "--out", str(tmp_path / "o"),
                 "--sweep", "r=3,10", "--workers", "1"]) == 0
    assert len(fields) == 2


def test_dump_sff_matches_direct_computation(room_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(room_file), "--out", str(out),
                 "--snapshot-steps", "none", "--dump-sff"]) == 0
    import io

    from evacsim.metrics import export_field_csv
    from evacsim.scenario import parse_scenario

    scenario = parse_scenario(room_file.read_text())
    buf = io.StringIO()
    export_field_csv(compute_sff(scenario.grid), buf)
    assert (out / "sff.csv").read_text() == buf.getvalue()


@pytest.mark.parametrize("at, rows, note", [(29, 1, False), (30, 0, True), (500, 0, True)])
def test_dump_distributions_notes_a_step_without_rows(tmp_path, capsys, at, rows, note):
    # corridor30's one agent leaves at step 30, the run's last step
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(SCENARIO_DIR / "corridor30.txt"), "--out", str(out),
                 "--snapshot-steps", "none", "--dump-distributions", str(at)]) == 0
    dump = out / "s1" / f"distributions_t{at}.csv"
    assert len(read_csv(dump)) == 1 + rows
    err = f"note: {dump} has no rows: the run ended at step 30\n" if note else ""
    assert capsys.readouterr().err == err


def test_dump_distributions_rows_normalized(room_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(room_file), "--out", str(out),
                 "--snapshot-steps", "none", "--dump-distributions", "0"]) == 0
    rows = read_csv(out / "s3" / "distributions_t0.csv")
    assert rows[0] == ["agent", "row", "col", "p_up", "p_right", "p_down",
                       "p_left", "norm_zero"]
    assert len(rows) == 5  # four agents
    for row in rows[1:]:
        total = sum(float(v) for v in row[3:7])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert row[7] == "0"


def test_mu_sweep_monotone_on_bottleneck(tmp_path):
    # two agents fight for one cell every step: more friction, slower room
    src = REPO_ROOT / "scenarios" / "bottleneck2.txt"
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(src), "--out", str(out),
               "--sweep", "mu=0.0,0.5,1.0", "--seeds", "1,2,3,4,5",
               "--snapshot-steps", "none"])
    assert rc == 0
    rows = read_csv(out / "aggregate.csv")
    max_steps = 200  # the fixture's cap; incomplete runs count as at least this
    means = []
    for value in ("0.0", "0.5", "1.0"):
        per_seed = [r for r in rows[1:] if r[1] == value and r[2] != "mean"]
        assert len(per_seed) == 5
        bounded = [int(r[3]) if r[3] != "" else max_steps for r in per_seed]
        means.append(sum(bounded) / len(bounded))
    assert means[0] <= means[1] <= means[2]
    assert means[0] < means[2]  # friction 1 never resolves, so strictly slower


def test_console_script_help():
    """`evacsim --help` lists both subcommands.

    With the package installed this runs the `evacsim` script on PATH. In an
    uninstalled checkout it checks that pyproject.toml's [project.scripts]
    maps `evacsim` to `evacsim.cli:main`, then calls that entry in a
    subprocess the way a console-script wrapper does.
    """
    exe = shutil.which("evacsim")
    if exe is not None:
        cmd = [exe, "--help"]
    else:
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        with open(REPO_ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"].get("scripts", {})
        assert scripts.get("evacsim") == "evacsim.cli:main"
        module, attr = scripts["evacsim"].split(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'evacsim'; sys.exit({attr}())")
        cmd = [sys.executable, "-c", wrapper, "--help"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert "run" in proc.stdout and "sweep" in proc.stdout


def test_module_entry_smoke(room_file, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "evacsim.cli", "run", "--scenario", str(room_file),
         "--out", str(out), "--snapshot-steps", "none"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "s3" / "curve.csv").exists()
