"""evacsim benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload room_batch --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; evacsim is imported from its src/.  The
workload seed picks the inputs (workloads.py); the program only sees them.

--trace 0 measures the end-to-end metrics: whole workload repetitions
until --seconds have passed, with runs of the set-up sequence (parse,
validate, SFF, TransitionTables, initial state) timed on their own in
between.  Every timed unit (one part of a repetition, such as one
simulation or one CLI invocation, or one set-up) is followed by a run of a
fixed pure-Python reference loop.  On a shared host the speed of the
whole machine drifts with other users' load, by up to 2x over minutes,
and the reference loop slows with it; so each unit's time is divided by
the mean of the reference times just before and after it and reported in
normalised seconds: seconds on a host where the reference loop takes
REF_SECONDS.  wall_s adds up each part's median normalised time, and
setup_s is the median normalised set-up time.  The raw wall times (median,
quartiles, fastest, sample count) and the reference times are printed
beside.

--trace 1 alternates untraced and traced iterations (set-up sequence plus
one repetition each) and reports per-layer totals per traced iteration,
from wrappers installed at evacsim's lookup sites (layertrace.py), and the
tracing overhead as traced minus untraced wall time.  The wrappers' own
bookkeeping is booked to a span of its own, trace.self, and the run checks
that the self times of all spans in the benchmark process add up to its
traced wall time.

Every repetition's output is reduced to a digest and compared with the one
recorded for its seed class in digests.json; a repetition that raises or
mismatches counts as failed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

MIN_REPS, MIN_SETUPS = 3, 20
SETUP_BURST, SETUP_SHARE = 10, 0.25
# the reference loop's iterations, and its time on a quiet 2-core x86 host;
# normalised times are in seconds at that host speed
REF_LOOPS, REF_SECONDS = 100_000, 0.016
# largest gap allowed between the traced wall time and the sum of self times
SELF_SUM_TOLERANCE = 0.01


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_evacsim():
    src = ROOT / "src"
    if not (src / "evacsim" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        _fail(f"no evacsim sources under {ROOT}; run from the root of a checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import evacsim

    if Path(evacsim.__file__).resolve().parent != src / "evacsim":
        _fail(f"imported evacsim from {evacsim.__file__}, not from {src}")
    return evacsim


def _git_revision() -> str:
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _reference() -> float:
    """Time one run of the reference loop: dict, int and loop work."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(REF_LOOPS):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += k & 7
    return time.perf_counter() - t0


class Clock:
    """Times units of work, each followed by a run of the reference loop."""

    def __init__(self):
        self.refs = [_reference()]

    def run(self, fn):
        """fn(), timed; returns (result, raw seconds, normalised seconds)."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = fn()
        finally:
            raw = time.perf_counter() - t0
            self.refs.append(_reference())
        return res, raw, raw * REF_SECONDS / statistics.fmean(self.refs[-2:])


class Checker:
    """Counts attempts and failures; compares digests with digests.json."""

    def __init__(self, wl):
        recorded = json.loads((HERE / "digests.json").read_text())
        self.expected = recorded.get(wl.name, {}).get(str(wl.seed_class))
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # problems with the run as a whole, not with one attempt
        self.run_problems: list[str] = []
        self.outcome = None

    def attempt(self, clock: Clock):
        """One repetition, part by part.

        Returns the parts' raw and normalised times, or None if it raised.
        """
        self.attempted += 1
        raws, norms, out = [], [], []
        try:
            for part in self.wl.parts():
                res, raw, norm = clock.run(part)
                out.append(res)
                raws.append(raw)
                norms.append(norm)
            outcome = self.wl.reduce(out)
        except Exception as e:  # a raising repetition is a failed attempt
            self.fail(f"raised {type(e).__name__}: {e}")
            return None
        self.check(outcome)
        return raws, norms

    def check(self, outcome) -> None:
        problems = list(outcome.problems)
        if self.expected is None:
            problems.append(f"no digest recorded for seed class {self.wl.seed_class}")
        elif outcome.digest != self.expected:
            problems.append(f"digest {outcome.digest} != recorded {self.expected}")
        if self.outcome is not None and outcome.digest != self.outcome.digest:
            problems.append("digest differs between repetitions of one run")
        self.outcome = self.outcome or outcome
        if problems:
            self.fail("; ".join(problems))

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(msg)


def measure(wl, seconds: float, checker: Checker):
    """Repetitions until `seconds` have passed, with set-ups in between.

    Interleaving puts set-up and repetition samples in the same stretches
    of host load.  Before each repetition, set-ups run (at most SETUP_BURST
    in a row) while they have taken less than SETUP_SHARE of the time the
    repetitions took, so a cheap set-up gets many samples, and also while
    their count is behind a pace that reaches MIN_SETUPS by the end of the
    run, so a set-up nearly as slow as a repetition still gets MIN_SETUPS.
    Returns the clock, the (raw, normalised) set-up times and the raw and
    normalised part times of each good repetition.  A set-up or
    repetition that raises counts as a failed attempt.
    """
    import workloads

    clock = Clock()
    start = time.perf_counter()
    setup, raw_reps, norm_reps, failed = [], [], [], []
    setup_time = rep_time = last_rep = 0.0
    cpu0 = _children_cpu()

    def one_setup() -> bool:
        nonlocal setup_time
        t0 = time.perf_counter()
        try:
            _, raw, norm = clock.run(lambda: workloads.setup_sequence(wl.text))
        except Exception as e:  # counted like a failed repetition
            checker.attempted += 1
            checker.fail(f"set-up raised {type(e).__name__}: {e}")
            return False
        finally:
            setup_time += time.perf_counter() - t0
        setup.append((raw, norm))
        return True

    while checker.attempted < MIN_REPS or time.perf_counter() - start < seconds:
        for _ in range(SETUP_BURST):
            # the share of the run done once the next repetition has run
            done = min(1.0, (time.perf_counter() - start + last_rep) / seconds)
            behind = len(setup) < MIN_SETUPS * done
            if setup and not behind and setup_time >= SETUP_SHARE * rep_time:
                break
            if not one_setup():
                break
        t0 = time.perf_counter()
        times = checker.attempt(clock)
        last_rep = time.perf_counter() - t0
        if times is None:
            failed.append(last_rep)
        else:
            raw_reps.append(times[0])
            norm_reps.append(times[1])
        rep_time += last_rep
    while len(setup) < MIN_SETUPS and one_setup():
        pass
    if not raw_reps:  # with no good repetition, the failed ones' times stand in
        raw_reps = norm_reps = [[t] for t in failed]
    if not setup:  # every set-up raised; the run is failed, a stand-in will do
        setup = [(rep_time, rep_time)]
    return clock, setup, raw_reps, norm_reps, _children_cpu() - cpu0


def _describe(name: str, values: list[float]) -> None:
    q1, med, q3 = _quartiles(values)
    print(f"{name:18s}min {min(values):.6f} s  median {med:.6f}  q1 {q1:.6f}  q3 {q3:.6f}  "
          f"n={len(values)}")


def end_to_end(wl, seconds: float) -> tuple[dict, Checker]:
    checker = Checker(wl)
    clock, setup, raw_reps, norm_reps, child_cpu = measure(wl, seconds, checker)
    agent_steps = checker.outcome.agent_steps if checker.outcome else 0
    wall = sum(statistics.median(col) for col in zip(*norm_reps))
    setup_s = statistics.median(norm for _, norm in setup)
    print(f"wall_s            {wall:.6f} s = sum over {len(norm_reps[0])} parts of each "
          f"part's median normalised time, over {len(norm_reps)} repetitions")
    print(f"setup_s           {setup_s:.6f} s = median normalised set-up time")
    _describe("raw repetitions", [sum(r) for r in raw_reps])
    _describe("raw set-ups", [raw for raw, _ in setup])
    _describe("reference loop", clock.refs)
    print(f"                  normalised s = raw s x {REF_SECONDS} / reference time "
          f"around the unit")
    print(f"agent_steps       {agent_steps} per repetition")
    if child_cpu:
        print(f"worker cpu        {child_cpu / len(raw_reps):.4f} s per repetition")
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "agent_steps_per_s": {"value": agent_steps / wall, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    return metrics, checker


def traced(wl, seconds: float, work: Path) -> tuple[dict, Checker]:
    import layertrace
    import workloads

    checker = Checker(wl)
    tracer = layertrace.Tracer(work / "spool")

    def iteration():
        workloads.setup_sequence(wl.text)
        return workloads.rep(wl)

    def timed(traced: bool) -> float:
        """One iteration, untraced or inside the tracer's root span."""
        checker.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = tracer.root(iteration) if traced else iteration()
            dt = time.perf_counter() - t0
            checker.check(wl.reduce(out))
        except Exception as e:  # a raising iteration is a failed attempt
            dt = time.perf_counter() - t0
            checker.fail(f"iteration raised {type(e).__name__}: {e}")
        return dt

    start = time.perf_counter()
    plain, walls = [], []
    workers = 0
    worker_cpu = worker_self = 0.0
    absent: list[str] = []
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        plain.append(timed(False))
        absent = tracer.install()
        cpu0 = _children_cpu()
        try:
            walls.append(timed(True))
        finally:
            tracer.remove()
        worker_cpu += _children_cpu() - cpu0
        n, self_s = tracer.collect_workers()
        workers = max(workers, n)
        worker_self += self_s

    n = len(walls)
    spans = tracer.spans
    counts = tracer.counts

    def ms(name, col=2):
        return 1000.0 * spans.get(name, [0, 0.0, 0.0])[col] / n

    def per(name):
        return counts.get(name, 0) / n

    engine_agent_steps = per("engine.agent_steps")
    if checker.outcome and engine_agent_steps != checker.outcome.agent_steps:
        checker.run_problems.append(f"traced agent-steps {engine_agent_steps} != output's "
                                    f"{checker.outcome.agent_steps}")
    missing = sorted(
        f"{m}.{p}" for m, p, _, wls in layertrace.SITES
        if wl.name in wls and tracer.site_calls[f"{m}.{p}"] == 0 and f"{m}.{p}" not in absent
    )
    if missing:
        checker.run_problems.append(f"spans that never fired: {', '.join(missing)}")

    plain_min, traced_min = min(plain), min(walls)
    # every span's self time in this process, the tracer's own included,
    # against the wall time timed around the traced iterations
    main_sum = sum(v[2] for v in spans.values()) - worker_self
    gap = (main_sum - sum(walls)) / sum(walls)
    if abs(gap) > SELF_SUM_TOLERANCE:
        checker.run_problems.append(f"self times add up to {main_sum:.6f} s, traced wall "
                                    f"{sum(walls):.6f} s ({gap:+.2%})")
    print(f"trace             {n} traced / {len(plain)} untraced iterations "
          f"(set-up sequence + one repetition each)")
    _describe("untraced wall", plain)
    _describe("traced wall", walls)
    print(f"trace overhead    {traced_min - plain_min:+.4f} s "
          f"({(traced_min - plain_min) / plain_min:+.1%}) on the fastest iterations")
    print(f"self-time sum     {main_sum:.6f} s over {n} traced iterations; traced wall "
          f"{sum(walls):.6f} s ({gap:+.3%}, tolerance {SELF_SUM_TOLERANCE:.0%})")
    if workers:
        print(f"worker processes  {workers} per iteration, span self-time "
              f"{worker_self / n:.4f} s, cpu {worker_cpu / n:.4f} s per iteration")
    print("perception        no metric: the run path never calls evacsim.perception; "
          "TransitionTables only imports its constants")
    if absent:
        print(f"absent sites      {', '.join(absent)} (not in this evacsim; their spans read 0)")
    print(f"{'span':28s} {'calls':>10s} {'incl ms':>12s} {'self ms':>12s}   per traced iteration")
    for name, (calls, incl, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:28s} {calls / n:10.1f} {1000 * incl / n:12.3f} {1000 * self_s / n:12.3f}")

    attempts = per("engine.move_attempts")
    step_incl = ms("engine.step", 1)
    main_ms = ms("cli.main", 1)
    tree = checker.outcome or workloads.Outcome("", 0, [])
    pool = getattr(wl, "workers", 0)
    busy = worker_cpu / n / (pool * main_ms / 1000.0) if pool and main_ms else 0.0
    values = {
        "scenario.parse_ms": (ms("scenario.parse"), "ms"),
        "scenario.validate_ms": (ms("scenario.validate"), "ms"),
        "floorfield.compute_sff_ms": (ms("floorfield.compute_sff"), "ms"),
        "floorfield.compute_sff_calls": (spans.get("floorfield.compute_sff", [0])[0] / n, "count"),
        "transition.tables_build_ms": (ms("transition.tables_build"), "ms"),
        "transition.tables_build_calls": (spans.get("transition.tables_build", [0])[0] / n, "count"),
        "transition.tables_mb": (tracer.tables_bytes / 2**20, "MB"),
        "transition.distributions_ms": (ms("transition.distributions"), "ms"),
        "transition.distributions_rows": (per("transition.distributions_rows"), "count"),
        "engine.choose_target_ms": (ms("engine.choose_target"), "ms"),
        "engine.resolve_conflicts_ms": (ms("engine.resolve_conflicts"), "ms"),
        "engine.step_self_ms": (ms("engine.step"), "ms"),
        "engine.run_self_ms": (ms("engine.run"), "ms"),
        "engine.us_per_agent_step": (
            1000.0 * step_incl / engine_agent_steps if engine_agent_steps else 0.0, "us"),
        "engine.choose_target_calls": (spans.get("engine.choose_target", [0])[0] / n, "count"),
        "engine.steps": (per("engine.steps"), "count"),
        "engine.agent_steps": (engine_agent_steps, "count"),
        "engine.move_attempts": (attempts, "count"),
        "engine.moves": (per("engine.moves"), "count"),
        "engine.contested_cells": (per("engine.contested_cells"), "count"),
        "engine.friction_cancels": (per("engine.friction_cancels"), "count"),
        "engine.move_success_ratio": (per("engine.moves") / attempts if attempts else 0.0, "ratio"),
        "metrics.spread_ms": (ms("metrics.spread"), "ms"),
        "metrics.render_snapshot_ms": (ms("metrics.render_snapshot"), "ms"),
        "metrics.export_csv_ms": (ms("metrics.export_csv"), "ms"),
        "cli.main_ms": (main_ms, "ms"),
        "cli.tasks": (tree.tasks, "count"),
        "cli.files_written": (tree.files, "count"),
        "cli.bytes_written": (tree.bytes, "count"),
        "cli.worker_busy_frac": (busy, "ratio"),
        "bench.self_ms": (ms(layertrace.ROOT), "ms"),
        "trace.self_ms": (ms(layertrace.TRACE), "ms"),
        "trace.wall_s": (traced_min, "s"),
        "trace.overhead_s": (traced_min - plain_min, "s"),
        "trace.overhead_frac": ((traced_min - plain_min) / plain_min, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    evacsim = _import_evacsim()
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if not (HERE / "digests.json").is_file():
        _fail("perfbench/digests.json is missing")
    if args.seed < 0:
        _fail("--seed must be >= 0")

    print(f"revision          {_git_revision()}")
    print(f"python            {platform.python_version()}  numpy {np.__version__}  "
          f"evacsim {evacsim.__version__}")
    print(f"nproc             {len(os.sched_getaffinity(0))}")
    print(f"workload          {args.workload}  seed {args.seed} "
          f"(class {args.seed % workloads.POOL})  seconds {args.seconds:g}  trace {args.trace}")

    with workloads.work_dir(ROOT) as work:
        wl = workloads.make(args.workload, ROOT, args.seed, work)
        for key, value in wl.describe().items():
            print(f"  {key:16s}{value}")
        if args.trace:
            metrics, checker = traced(wl, args.seconds, work)
        else:
            metrics, checker = end_to_end(wl, args.seconds)

    for msg in checker.problems + checker.run_problems:
        print(f"FAILED            {msg}")
    print(f"fail_frac         {checker.failed / checker.attempted:.4f} "
          f"({checker.failed} of {checker.attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name:30s}{m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.run_problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
