"""Command line runner: single scenarios, seed batches, parameter sweeps.

    evacsim run   --scenario room.txt --out results/ --seeds 1,2,3
    evacsim sweep --scenario room.txt --out results/ --sweep k_P=6,18 --seeds 1,2

The tasks (one per sweep value and seed) are split, in task order, into
at most --workers contiguous chunks, and each chunk is one
engine.run_batch in one worker, which writes its tasks' files.  Exit
codes: 0 success, 2 scenario parse or usage error, 3 scenario validation
failure, 4 I/O failure.  Outputs are deterministic: the same invocation
writes byte-identical files, whatever --workers says.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path
from statistics import mean

from .engine import run_batch
from .floorfield import compute_sff
from .metrics import export_csv, export_field_csv, render_snapshot
from .scenario import (
    PARAM_ATTRS,
    PARAM_KEYS,
    Scenario,
    ScenarioError,
    parse_param,
    parse_scenario,
    validate,
)

# default snapshot set; matches the standard six panels used for the big
# 300-person room so figures line up without extra flags
DEFAULT_SNAPSHOT_STEPS = (25, 65, 135, 165, 180, 225)


def _run_chunk(tasks: list[tuple[Scenario, str]], snapshot_steps: tuple[int, ...],
               capture_step: int | None) -> list:
    """Run one chunk of (scenario, output directory) tasks in lockstep and
    write each task's files; returns (evac_time, spread at snapshot steps)
    per task."""
    results = run_batch([sc for sc, _ in tasks], snapshot_steps, capture_step)
    done = []
    for (scenario, out_dir), result in zip(tasks, results):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "curve.csv", "w", newline="") as f:
            export_csv(result, f)
        for t, occ in result.snapshots:
            text, pgm = render_snapshot(occ, scenario.grid)
            (out / f"snap_t{t}.txt").write_text(text)
            (out / f"snap_t{t}.pgm").write_bytes(pgm)
        if capture_step is not None:
            with open(out / f"distributions_t{capture_step}.csv", "w", newline="") as f:
                w = csv.writer(f, lineterminator="\n")
                w.writerow(["agent", "row", "col", "p_up", "p_right", "p_down", "p_left",
                            "norm_zero"])
                for aid, (i, j), p, norm_zero in result.captured:
                    w.writerow([aid, i, j, *(repr(float(v)) for v in p), int(norm_zero)])
                if not result.captured:
                    print(f"note: {f.name} has no rows: the run ended at step "
                          f"{result.curve[-1][0]}", file=sys.stderr)
        done.append((result.evac_time,
                     {s.step: s.value for s in result.spread if s.step in snapshot_steps}))
    return done


def _note_warnings(shown: set, source: str, make):
    """make(), with each warning it raises printed on stderr once, as one
    from source (the scenario file, --set or --sweep), unless shown already
    holds its text: a ModelParams warning would name this module instead
    of the input that set the parameters."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        made = make()
    for w in caught:
        if str(w.message) not in shown:
            shown.add(str(w.message))
            print(f"warning: {source}: {w.message}", file=sys.stderr)
    return made


def _parse_list(raw: str, flag: str, parse) -> list:
    """A comma-separated flag value, each non-empty entry through parse.

    An empty list is a usage error, and so is an entry given twice: it
    would run twice into one output directory or repeat a column of the
    per-seed table."""
    items = [parse(part.strip()) for part in raw.split(",") if part.strip() != ""]
    if not items:
        raise ScenarioError(f"{flag} list is empty")
    seen = set()
    for item in items:
        if item in seen:
            raise ScenarioError(f"{flag} lists {item!r} more than once")
        seen.add(item)
    return items


def _parse_step(raw: str) -> int:
    try:
        step = int(raw, 10)
    except ValueError:
        raise ScenarioError(f"--snapshot-steps entries must be integers, got {raw!r}") from None
    if step < 0:
        raise ScenarioError(f"--snapshot-steps entries must be >= 0, got {step}")
    return step


def _parse_set_flags(pairs: list[str]) -> dict:
    """--set KEY=VALUE flags as ModelParams attributes; a later flag wins."""
    out = {}
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        key = key.strip()
        if not eq or key not in PARAM_KEYS:
            raise ScenarioError(f"--set expects key=value with a known key, got {pair!r}")
        out[PARAM_ATTRS[key]] = parse_param(key, raw.strip())
    return out


def _command(args) -> int:
    """Run every (sweep value, seed) task, then write the per-seed table.

    Without a sweep (`run`) there is one group of tasks and the table is
    batch.csv, written only for more than one seed; with `--sweep KEY=V1,...`
    each value is a group, its pair the last override, and the table is
    aggregate.csv.  Each group's rows end with its mean row: evac_time over
    completed runs only, complete as a fraction, spread per recorded step.
    Every flag is checked before the scenario file is read.
    """
    if args.snapshot_steps is None:
        snapshot_steps = DEFAULT_SNAPSHOT_STEPS
    elif args.snapshot_steps.strip().lower() in ("", "none"):
        snapshot_steps = ()
    else:
        snapshot_steps = tuple(_parse_list(args.snapshot_steps, "--snapshot-steps", _parse_step))
    seeds = None
    if args.seeds is not None:
        seeds = _parse_list(args.seeds, "--seeds", partial(parse_param, "seed"))
    if args.workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {args.workers}")
    if args.dump_distributions is not None and args.dump_distributions < 0:
        raise ScenarioError(f"--dump-distributions must be >= 0, got {args.dump_distributions}")
    overrides = _parse_set_flags(args.set or [])
    groups = [([], {}, "")]  # (table label cells, swept override, directory prefix)
    if args.sweep is not None:
        param, _, raw_values = args.sweep.partition("=")
        param = param.strip()
        if param not in PARAM_KEYS:
            raise ScenarioError(f"--sweep key must be one of {', '.join(PARAM_KEYS)}, got {param!r}")
        if param == "seed":
            raise ScenarioError("cannot sweep seed; use --seeds")
        # values compare as parsed (6 and 6.0 are one); each keeps its text
        values = _parse_list(raw_values, "--sweep", partial(parse_param, param))
        groups = [([param, v], {PARAM_ATTRS[param]: value}, f"p{v}_")
                  for v, value in zip(_parse_list(raw_values, "--sweep", str), values)]

    noted = partial(_note_warnings, set())
    # latin-1 decodes any byte, so a non-ASCII file meets parse_scenario's rule
    text = Path(args.scenario).read_text(encoding="latin-1")
    scenario = noted(args.scenario, lambda: parse_scenario(text))
    field = compute_sff(scenario.grid)
    problems = validate(scenario, field)
    if problems:
        for p in problems:
            print(f"invalid scenario: {p}", file=sys.stderr)
        return 3
    seeds = seeds or [overrides.get("seed", scenario.params.seed)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # each task's parameters: the file's, then --set, then the swept pair,
    # then the seed, so the swept value wins over --set
    params = noted("--set", lambda: replace(scenario.params, **overrides))
    scenarios = [replace(scenario, params=p) for _, swept, _ in groups
                 for p in noted("--sweep", lambda: [replace(params, **swept, seed=s) for s in seeds])]
    dirs = [str(out / f"{prefix}s{seed}") for _, _, prefix in groups for seed in seeds]
    # the tasks, in task order, go in at most --workers contiguous chunks;
    # each chunk is one run_batch
    tasks = list(zip(scenarios, dirs))
    n = min(args.workers, len(tasks))
    chunks = [tasks[i * len(tasks) // n:(i + 1) * len(tasks) // n] for i in range(n)]
    run_chunk = partial(_run_chunk, snapshot_steps=snapshot_steps,
                        capture_step=args.dump_distributions)
    # a pool starts all its processes at once, so it gets one per chunk
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            per_chunk = list(pool.map(run_chunk, chunks))
    else:
        per_chunk = list(map(run_chunk, chunks))
    results = [task for chunk in per_chunk for task in chunk]
    if args.dump_sff:
        with open(out / "sff.csv", "w", newline="") as f:
            export_field_csv(field, f)
    if args.sweep is None and len(seeds) == 1:
        return 0
    with open(out / ("batch.csv" if args.sweep is None else "aggregate.csv"), "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([*(["param", "value"] if args.sweep is not None else []), "seed", "evac_time",
                    "complete", *(f"spread_t{t}" for t in snapshot_steps)])
        # tasks run group by group, so each group's results are the next
        # len(seeds) ones
        results = iter(results)
        for label, _, _ in groups:
            done, spread_vals = [], {t: [] for t in snapshot_steps}
            for seed, (evac_time, spread_at) in zip(seeds, results):
                complete = evac_time is not None
                w.writerow([*label, seed, evac_time if complete else "", int(complete),
                            *(repr(spread_at[t]) if t in spread_at else "" for t in snapshot_steps)])
                if complete:
                    done.append(evac_time)
                for t, v in spread_at.items():
                    spread_vals[t].append(v)
            w.writerow([*label, "mean", repr(mean(done)) if done else "",
                        repr(len(done) / len(seeds)),
                        *(repr(mean(v)) if v else "" for v in spread_vals.values())])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evacsim",
        description="Floor-field pedestrian evacuation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", help="comma-separated seeds (default: the scenario's seed)")
        p.add_argument("--snapshot-steps", metavar="LIST",
                       help="comma-separated steps to snapshot as txt + pgm "
                            "(default: 25,65,135,165,180,225; 'none' disables)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario parameter (repeatable)")
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
        p.add_argument("--dump-sff", action="store_true",
                       help="write the static floor field as sff.csv")
        p.add_argument("--dump-distributions", type=int, metavar="STEP",
                       help="write per-agent transition distributions at STEP")

    p_run = sub.add_parser("run", help="run one scenario over one or more seeds")
    common(p_run)
    p_run.set_defaults(sweep=None)
    p_sweep = sub.add_parser("sweep", help="run a cartesian sweep of one parameter over seeds")
    common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="KEY=V1,V2,...",
                         help="parameter values to sweep")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _command(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
