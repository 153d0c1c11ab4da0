"""Outside-in layer timing for the nightly maintenance path.

:class:`LayerTracer` times each layer of ``run_nightly_maintenance`` by
wrapping the public entry points the nightly path calls, without any
change to the program:

* ``repro.lattice.plan.propagate_lattice``   -> ``lattice.propagate``
* ``ChangeSet.apply_to``                     -> ``warehouse.apply_base``
* under ``REPRO_PARTITION=1``, ``propagate_partitioned`` and
  ``PartitionedFactTable.apply_changes`` stand in for the two above
* ``repro.lattice.plan.apply_refresh``       -> ``core.refresh``
* the callable ``base_recompute_fn`` returns -> ``core.recompute``
* ``MaterializedView.begin_version``         -> ``views.copy``
* ``MaterializedView.publish``               -> ``views.validate``
* ``QueryServer.answer`` / ``QueryRouter.plan`` / ``QueryRouter.answer_plan``
  -> ``serve.answer`` / ``query.plan`` / ``query.eval``

Garbage-collector pauses, taken from ``gc.callbacks``, become
``runtime.gc`` spans.  Every span records the thread that ran it and the
maintenance cycle it fell in; nested spans subtract from their parent, so
a span's *self* time is its duration minus the spans (and GC pauses) it
contains.  A call made while a span of the same layer is open on its
thread (the inline fallback of ``propagate_partitioned`` calling
``propagate_lattice``) records no span of its own, so counts and units are
not added twice.  While installed, tuple-access accounting
(``repro.relational.stats.measuring``) is on and each span records the
access units charged during it.  Accounting is process-wide, so units
charged by a concurrent reader thread land in whichever maintenance span
is open at the time.
"""

from __future__ import annotations

import functools
import gc
import statistics
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: The cycle tag of spans recorded outside any cycle's window, such as the
#: correctness gate's reads.
NO_CYCLE = -1


@dataclass
class Span:
    """One timed call of a wrapped entry point (or one GC pause)."""

    layer: str
    view: str | None
    thread: int
    cycle: int
    start: float
    end: float = 0.0
    #: Seconds covered by spans nested directly inside this one.
    child_s: float = 0.0
    #: Tuple-access units charged while the span was open (inclusive).
    units: int = 0
    #: The layer's work count: rows copied or re-hashed, groups
    #: recomputed, delta rows produced, refresh rows touched, changes
    #: applied, or 1 for a generation-2 GC pause.
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class LayerTracer:
    """Wraps the nightly path's entry points and records a span per call.

    Use :meth:`installed` around the work to trace; :attr:`cycle` tags the
    spans recorded meanwhile.  The originals are restored on exit, so
    nothing of the tracer stays behind in an untraced run.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cycle = NO_CYCLE
        self._local = threading.local()
        # Re-entrant: a GC pause can close a span while another is closing.
        self._lock = threading.RLock()
        self._access = None

    # -- span recording -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _units(self) -> int:
        access = self._access
        return access.snapshot().total_accesses if access is not None else 0

    def _close(self, span: Span, stack: list[Span]) -> None:
        if stack:
            stack[-1].child_s += span.seconds
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, layer: str, view: str | None = None) -> Iterator[Span]:
        """Time the block as one span of *layer*."""
        stack = self._stack()
        units_before = self._units()
        span = Span(layer, view, threading.get_ident(), self.cycle, 0.0)
        # Read the clock after every allocation, so a GC pause before the
        # span is on the stack is not also inside its interval.
        span.start = time.perf_counter()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            span.units = self._units() - units_before
            self._close(span, stack)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._local.gc_start = time.perf_counter()
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        self._local.gc_start = None
        span = Span("runtime.gc", None, threading.get_ident(), self.cycle,
                    start, time.perf_counter(),
                    count=1 if info.get("generation") == 2 else 0)
        self._close(span, self._stack())

    # -- wrapping ---------------------------------------------------------

    def _timed(self, layer: str, original: Callable,
               view: Callable[..., str | None],
               count: Callable[..., int]) -> Callable:
        """Wrap *original* so each call records a *layer* span whose view
        and work count come from the call's arguments and result."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if any(open_span.layer == layer for open_span in self._stack()):
                return original(*args, **kwargs)
            with self.span(layer, view(*args, **kwargs)) as span:
                result = original(*args, **kwargs)
                span.count = count(result, *args, **kwargs)
                return result

        return wrapper

    def _recompute_factory(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def base_recompute_fn(definition, *args, **kwargs):
            recompute = original(definition, *args, **kwargs)
            return self._timed(
                "core.recompute", recompute,
                view=lambda keys: definition.name,
                count=lambda result, keys: len(keys),
            )

        return base_recompute_fn

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Install every wrapper, the GC callback and access accounting
        for the duration of the block."""
        from repro.lattice import plan
        from repro.query.router import QueryRouter
        from repro.relational.stats import measuring
        from repro.serve.server import QueryServer
        from repro.views.materialize import MaterializedView
        from repro.warehouse import partition
        from repro.warehouse.changes import ChangeSet

        def no_view(*args, **kwargs):
            return None

        def self_name(target, *args, **kwargs):
            return target.name

        def delta_rows(deltas, *args, **kwargs):
            return sum(len(delta.table) for delta in deltas.values())

        targets = [
            (plan, "propagate_lattice", lambda original: self._timed(
                "lattice.propagate", original, no_view, delta_rows)),
            (partition, "propagate_partitioned", lambda original: self._timed(
                "lattice.propagate", original, no_view, delta_rows)),
            (partition.PartitionedFactTable, "apply_changes",
             lambda original: self._timed(
                 "warehouse.apply_base", original, no_view,
                 lambda result, fact, changes: changes.size())),
            (plan, "apply_refresh", lambda original: self._timed(
                "core.refresh", original, self_name,
                lambda stats, *a, **k: stats.touched)),
            (plan, "base_recompute_fn", self._recompute_factory),
            (ChangeSet, "apply_to", lambda original: self._timed(
                "warehouse.apply_base", original, no_view,
                lambda result, changes, *a, **k: changes.size())),
            (MaterializedView, "begin_version", lambda original: self._timed(
                "views.copy", original, self_name,
                lambda shadow, *a, **k: len(shadow.table))),
            (MaterializedView, "publish", lambda original: self._timed(
                "views.validate", original, self_name,
                lambda version, view, shadow, validate=True: (
                    len(shadow.table)
                    if validate and shadow.certificate is not None else 0))),
            (QueryRouter, "plan", lambda original: self._timed(
                "query.plan", original, no_view, lambda *a, **k: 0)),
            (QueryRouter, "answer_plan", lambda original: self._timed(
                "query.eval", original,
                lambda router, query_plan, *a, **k: (
                    query_plan.source_view.name
                    if query_plan.source_view is not None else "base"),
                lambda *a, **k: 0)),
            (QueryServer, "answer", lambda original: self._timed(
                "serve.answer", original, no_view, lambda *a, **k: 0)),
        ]
        with ExitStack() as scope:
            for owner, name, make in targets:
                original = owner.__dict__[name]
                setattr(owner, name, make(original))
                scope.callback(setattr, owner, name, original)
            gc.callbacks.append(self._on_gc)
            scope.callback(gc.callbacks.remove, self._on_gc)
            self._access = scope.enter_context(measuring())
            scope.callback(setattr, self, "_access", None)
            yield self


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


#: Views whose per-view copy, validate and refresh times are reported.
REPORTED_VIEWS = ("SID_sales", "sCD_sales", "SiC_sales", "sR_sales")


def layer_metrics(tracer: LayerTracer, cycles: list[int],
                  thread: int) -> dict[str, float]:
    """The per-layer metrics of the traced *cycles* run on *thread*.

    Maintenance layers report the median over cycles of each cycle's
    total; GC counts pauses on every thread.  Query layers report the mean
    per call over every traced read, in or out of a cycle's window.
    """
    per_cycle: dict[str, list[float]] = {name: [] for name in CYCLE_METRICS}
    covered = window = 0.0
    for cycle in cycles:
        spans = [span for span in tracer.spans if span.cycle == cycle]
        mine = [span for span in spans if span.thread == thread]
        totals: dict[str, float] = {}

        def add(name: str, value: float) -> None:
            totals[name] = totals.get(name, 0.0) + value

        for span in mine:
            ms = span.self_s * 1e3
            if span.layer == "window":
                window += span.seconds
                covered += span.seconds - span.self_s
            elif span.layer == "views.copy":
                add("views.copy_ms", ms)
                add("views.copy_rows", span.count)
                add(f"views.copy_ms.{span.view}", ms)
                add(f"views.copy_rows.{span.view}", span.count)
            elif span.layer == "views.validate":
                add("views.validate_ms", ms)
                add("views.validate_rows", span.count)
                add(f"views.validate_ms.{span.view}", ms)
            elif span.layer == "core.recompute":
                add("core.recompute_ms", ms)
                add("core.recompute_groups", span.count)
                add("core.recompute_units", span.units)
            elif span.layer == "core.refresh":
                add("core.refresh_ms", ms)
                add("core.refresh_rows", span.count)
                add(f"core.refresh_ms.{span.view}", ms)
            elif span.layer == "lattice.propagate":
                add("lattice.propagate_ms", ms)
                add("lattice.propagate_units", span.units)
                add("lattice.delta_rows", span.count)
            elif span.layer == "warehouse.apply_base":
                add("warehouse.apply_base_ms", ms)
                add("warehouse.apply_base_units", span.units)
        for span in spans:
            if span.layer == "runtime.gc":
                add("runtime.gc_ms", span.seconds * 1e3)
                add("runtime.gc_gen2", span.count)
        for name, values in per_cycle.items():
            values.append(totals.get(name, 0.0))

    metrics = {name: _median(values) for name, values in per_cycle.items()}

    plans = [s.self_s * 1e3 for s in tracer.spans if s.layer == "query.plan"]
    evals = [s for s in tracer.spans if s.layer == "query.eval"]
    metrics["query.plan_ms"] = _mean(plans)
    metrics["query.eval_ms"] = _mean([s.self_s * 1e3 for s in evals])
    metrics["query.eval_ms.SID_sales"] = _mean(
        [s.self_s * 1e3 for s in evals if s.view == "SID_sales"])
    metrics["query.eval_ms.small"] = _mean(
        [s.self_s * 1e3 for s in evals if s.view != "SID_sales"])
    metrics["trace.coverage"] = covered / window if window else 0.0
    return metrics


def serve_metrics(tracer: LayerTracer) -> dict[str, float]:
    """The result cache's hit ratio over every traced answer: answers
    that needed no evaluation, over all answers."""
    evals = sum(1 for s in tracer.spans if s.layer == "query.eval")
    answers = sum(1 for s in tracer.spans if s.layer == "serve.answer")
    return {"serve.cache_hit_ratio": 1.0 - evals / answers if answers else 0.0}


#: Per-cycle metrics :func:`layer_metrics` reports as medians over cycles.
CYCLE_METRICS = (
    "views.copy_ms", "views.copy_rows", "views.validate_ms",
    "views.validate_rows",
    *(f"views.copy_ms.{view}" for view in REPORTED_VIEWS),
    *(f"views.copy_rows.{view}" for view in REPORTED_VIEWS),
    *(f"views.validate_ms.{view}" for view in REPORTED_VIEWS),
    "core.recompute_ms", "core.recompute_groups", "core.recompute_units",
    "core.refresh_ms", "core.refresh_rows",
    *(f"core.refresh_ms.{view}" for view in REPORTED_VIEWS),
    "lattice.propagate_ms", "lattice.propagate_units", "lattice.delta_rows",
    "warehouse.apply_base_ms", "warehouse.apply_base_units",
    "runtime.gc_ms", "runtime.gc_gen2",
)
