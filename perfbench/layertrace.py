"""Outside-in layer trace: wrappers at the names evacsim looks up.

evacsim modules bind their collaborators at import (`engine.run` calls the
`engine.compute_sff` binding, `cli` has its own `run`, `export_csv`,
...), so a span is installed at every lookup site, not only at the
defining module.  Each wrapper records calls, inclusive time and self time
(inclusive minus the spans it caused) per span name, plus a few counts
read off arguments and results.  The wrapper's own cost (its bookkeeping
and those counts) is booked to the TRACE span, not to the caller's span,
so program spans hold program time only and the self times of all spans
still add up to the wall time.  Only the call into and the return from
the wrapper, before its first and after its last clock read, stay in the
caller's self time; trace.overhead_s minus TRACE's time bounds them.
Spans stay in memory; forked workers inherit the wrappers and write their
totals to a spool file when they exit, which the parent merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

ALL = frozenset(("room_batch", "big_room", "corridor_sweep"))
LIB = frozenset(("room_batch", "big_room"))
CLI = frozenset(("corridor_sweep",))

# (module, attribute path, span name, workloads on which the site must fire)
SITES = (
    ("evacsim.scenario", "parse_scenario", "scenario.parse", ALL),
    ("evacsim.cli", "parse_scenario", "scenario.parse", CLI),
    ("evacsim.scenario", "validate", "scenario.validate", ALL),
    ("evacsim.cli", "validate", "scenario.validate", CLI),
    ("evacsim.floorfield", "compute_sff", "floorfield.compute_sff", ALL),
    ("evacsim.engine", "compute_sff", "floorfield.compute_sff", ALL),
    ("evacsim.cli", "compute_sff", "floorfield.compute_sff", CLI),
    ("evacsim.transition", "TransitionTables.__init__", "transition.tables_build", ALL),
    ("evacsim.transition", "TransitionTables.distributions", "transition.distributions", ALL),
    ("evacsim.engine", "initial_state", "engine.initial_state", ALL),
    ("evacsim", "run", "engine.run", LIB),
    ("evacsim.cli", "run", "engine.run", CLI),
    ("evacsim.engine", "step", "engine.step", ALL),
    ("evacsim.engine", "choose_target", "engine.choose_target", ALL),
    ("evacsim.engine", "resolve_conflicts", "engine.resolve_conflicts", ALL),
    ("evacsim.engine", "spread_metric", "metrics.spread", ALL),
    ("evacsim.metrics", "render_snapshot", "metrics.render_snapshot", frozenset(("room_batch",))),
    ("evacsim.cli", "export_csv", "metrics.export_csv", CLI),
    ("evacsim.cli", "main", "cli.main", CLI),
)

ROOT = "bench.other"
TRACE = "trace.self"


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr


class Tracer:
    """Span totals for one process; install() wraps every site in SITES."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        self._fork_hook = False
        self.reset()

    def reset(self) -> None:
        # name -> [calls, inclusive s, self s]
        self.spans: dict[str, list] = {}
        self.site_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.tables_bytes = 0
        self._stack: list[list[float]] = []

    # -- spans ---------------------------------------------------------------

    def _book(self, name: str, calls: int, incl: float, self_s: float) -> None:
        st = self.spans.get(name)
        if st is None:
            st = self.spans[name] = [0, 0.0, 0.0]
        st[0] += calls
        st[1] += incl
        st[2] += self_s

    def root(self, fn):
        """Run fn() inside the benchmark's own span."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self._book(ROOT, 1, dt, dt - frame[0])

    def _wrap(self, fn, name: str, site: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            dt = None
            try:
                res = fn(*args, **kwargs)
                dt = perf_counter() - t0
                if hook is not None:
                    hook(args, res)
                return res
            finally:
                if dt is None:  # fn raised
                    dt = perf_counter() - t0
                stack.pop()
                tracer._book(name, 1, dt, dt - frame[0])
                tracer.site_calls[site] += 1
                # the caller's child time is this call's whole cost; the
                # part outside fn is the tracer's
                outer = perf_counter() - t_in
                if stack:
                    stack[-1][0] += outer
                tracer._book(TRACE, 1, outer - dt, outer - dt)

        return wrapper

    # -- counts read off arguments and results ----------------------------

    def _on_step(self, args, res) -> None:
        self.counts["engine.steps"] += 1
        self.counts["engine.agent_steps"] += len(args[0].agents)

    def _on_conflicts(self, args, allowed) -> None:
        moving = Counter(p.target for p in args[0] if p.target != p.source)
        contested = sum(1 for k in moving.values() if k > 1)
        single = len(moving) - contested
        self.counts["engine.move_attempts"] += sum(moving.values())
        self.counts["engine.moves"] += len(allowed)
        self.counts["engine.contested_cells"] += contested
        self.counts["engine.friction_cancels"] += contested - (len(allowed) - single)

    def _on_tables(self, args, res) -> None:
        size = sum(v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray))
        self.tables_bytes = max(self.tables_bytes, size)

    def _on_distributions(self, args, res) -> None:
        self.counts["transition.distributions_rows"] += len(res[0])

    # -- install / remove --------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every site that exists; returns the sites that are absent."""
        hooks = {
            "engine.step": self._on_step,
            "engine.resolve_conflicts": self._on_conflicts,
            "transition.tables_build": self._on_tables,
            "transition.distributions": self._on_distributions,
        }
        absent = []
        for module, path, name, _ in SITES:
            owner, attr = _resolve(module, path)
            fn = None if owner is None else getattr(owner, attr, None)
            if fn is None:
                absent.append(f"{module}.{path}")
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, f"{module}.{path}", hooks.get(name)))
        if not self._fork_hook:
            # runs in each multiprocessing child after its finalizers are cleared
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)
            self._fork_hook = True
        self.active = True
        return absent

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        self.active = False

    # -- forked workers ----------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.reset()
        # multiprocessing runs exit-priority finalizers as the worker ends
        multiprocessing.util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        data = {"spans": self.spans, "site_calls": self.site_calls, "counts": self.counts,
                "tables_bytes": self.tables_bytes}
        tmp = self.spool / f"{os.getpid()}.tmp"
        tmp.write_text(json.dumps(data))
        tmp.rename(self.spool / f"{os.getpid()}.json")

    def collect_workers(self) -> tuple[int, float]:
        """Merge and delete the workers' spool files; returns (workers, their self time)."""
        n, self_total = 0, 0.0
        for path in sorted(self.spool.glob("*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            n += 1
            for name, (calls, incl, self_s) in data["spans"].items():
                self._book(name, calls, incl, self_s)
                self_total += self_s
            self.site_calls.update(data["site_calls"])
            self.counts.update(data["counts"])
            self.tables_bytes = max(self.tables_bytes, data["tables_bytes"])
        return n, self_total
