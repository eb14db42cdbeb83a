"""Layer tracing from outside the program.

:func:`install` wraps the public functions at each layer boundary of
``repro`` with spans recorded by a :class:`Tracer`; :func:`uninstall`
puts the originals back.  Nothing in ``src/`` changes, so untraced runs
pay nothing.  A span is ``(name, start, end, parent, step)``; a layer's
self time is its spans' time minus their child spans' time.

Span names are ``<layer>.<what>`` where the layer is the ``repro``
subpackage that owns the wrapped function.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
from array import array
from time import perf_counter

import repro.core.engine as core_engine
import repro.online.policies as online_policies
import repro.online.simulator as online_simulator
from repro.core.allocation import Allocator
from repro.core.goodness import GoodnessEvaluator
from repro.extensions.contention import ContentionSimulator
from repro.optim.evaluation import EvaluationService
from repro.schedule.simulator import Simulator
from repro.schedule.vectorized import BatchSimulator


class Tracer:
    """In-memory span recorder with per-name aggregates.

    ``stats[name] = [calls, total_s, self_s, in_step_self_s]``, summed
    over every span; ``counts`` holds event counters recorded at the same
    boundaries; the ``rows_*`` columns hold every span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stats: list[list[float]] = []
        self.counts: dict[str, int] = {}
        self.kernel_tiers: set[str] = set()
        self.step = -1
        self._stack: list[tuple[int, int, float, list[float]]] = []
        self._next_id = 0
        self.rows_id = array("q")
        self.rows_name = array("i")
        self.rows_parent = array("q")
        self.rows_step = array("i")
        self.rows_start = array("d")
        self.rows_end = array("d")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0, 0.0])
        return nid

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, nid: int) -> None:
        # child time accumulates in a one-element list owned by the frame
        self._next_id += 1
        self._stack.append((self._next_id, nid, perf_counter(), [0.0]))

    def exit(self) -> None:
        end = perf_counter()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        own = dur - child[0]
        stack = self._stack
        if stack:
            stack[-1][3][0] += dur
        st = self.stats[nid]
        st[0] += 1
        st[1] += dur
        st[2] += own
        if self.step >= 0:
            st[3] += own
        self.rows_id.append(sid)
        self.rows_name.append(nid)
        self.rows_parent.append(stack[-1][0] if stack else 0)
        self.rows_step.append(self.step)
        self.rows_start.append(start)
        self.rows_end.append(end)

    def reset_stack(self) -> None:
        """Drop open spans after a failed episode."""
        self._stack.clear()
        self.step = -1

    def snapshot(self) -> dict:
        """Aggregates and counters, to diff one pass against another."""
        return {
            "stats": {n: list(self.stats[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """Write every span as gzip'd JSON columns.

        ``name`` indexes ``names``; ``parent`` is the enclosing span's
        ``id`` (0 at the top level); ``step`` is -1 outside steps.
        """
        doc = {
            "names": self.names,
            "id": self.rows_id.tolist(),
            "name": self.rows_name.tolist(),
            "parent": self.rows_parent.tolist(),
            "step": self.rows_step.tolist(),
            "start_s": self.rows_start.tolist(),
            "end_s": self.rows_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, fn, name: str, after=None):
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    if after is None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            after(out, args)
            return out

    return traced


def _targets(tracer: Tracer) -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, after-hook)`` of every wrapped call."""
    count = tracer.count

    def pruned(prefix):
        def after(out, _args):
            if out == math.inf:
                count(prefix + ".delta_pruned")

        return after

    def rows(out, _args):
        count("schedule.batch_rows", len(out))

    def tier(_out, args):
        tracer.kernel_tiers.add(args[0].kernel_tier)

    return [
        (Simulator, "evaluate_delta", "schedule.delta", pruned("schedule")),
        (Simulator, "prepare", "schedule.prepare", None),
        (Simulator, "makespan", "schedule.makespan", None),
        (ContentionSimulator, "evaluate_delta", "extensions.delta",
         pruned("extensions")),
        (ContentionSimulator, "prepare", "extensions.prepare", None),
        (ContentionSimulator, "makespan", "extensions.makespan", None),
        # BatchBackend.batch_*makespans land in these two kernel methods
        (BatchSimulator, "string_makespans", "schedule.batch", None),
        (BatchSimulator, "makespans", "schedule.batch", rows),
        (EvaluationService, "__init__", "optim.service_init", tier),
        (EvaluationService, "batch_string_makespans", "optim.batch", None),
        (GoodnessEvaluator, "goodness", "core.goodness", None),
        (core_engine, "select_subtasks", "core.selection", None),
        (Allocator, "allocate", "core.allocation", None),
        # the tabu engine inside each re-optimisation step
        (online_policies, "run_tabu", "optim.tabu", None),
        (online_simulator, "dispatch", "online.dispatch", None),
        (online_simulator, "build_workload", "workloads.build", None),
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer boundary; returns what :func:`uninstall` needs.

    Install before the engines and services of a pass are built: batch
    backends bind their scalar methods at construction.
    """
    saved = []
    for owner, attr, name, after in _targets(tracer):
        original = getattr(owner, attr)
        # an inherited method is shadowed, then deleted again on uninstall
        saved.append((owner, attr, original if attr in vars(owner) else None))
        setattr(owner, attr, _wrap(tracer, original, name, after))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
