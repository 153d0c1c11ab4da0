"""Paper-scale nightly maintenance runs: the workloads and their metrics.

One run builds the paper's retail warehouse (``pos`` of 500k rows and the
four Figure 1 summary tables), then runs the workload's number of nightly
cycles on it, or fewer if the measuring time runs out first.  A cycle generates a fresh change set from the fact
table as it stands (outside the timing), stages it with
``Warehouse.stage_changes`` and runs ``run_nightly_maintenance``.

Workloads:

* ``update_10k`` -- the paper's update-generating changes (5k inserts and
  5k deletes over existing values); every layer runs, MIN/MAX recompute
  included.
* ``insert_10k`` -- the paper's insertion-generating changes (10k inserts
  over new dates); no MIN/MAX recompute, negligible apply-base.
* ``serve_update`` -- ``update_10k`` cycles with one closed-loop reader
  thread answering a dashboard mix through ``QueryServer.answer``.

On the workloads without a reader, the dashboard mix is answered
:data:`DASHBOARD_PASSES` times after each cycle, outside its timing: the
first pass reads the new epochs, the others hit the result cache.

After the last cycle, with maintenance quiesced, a correctness gate checks
every view and every dashboard answer against an evaluation of the base
rows written here, independent of the program's engine.

The untraced run gives the end-to-end metrics.  The traced run alternates
untraced and traced cycles; :class:`layers.LayerTracer` is installed
around the traced ones only.
"""

from __future__ import annotations

import os
import platform
import random
import re
import resource
import statistics
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from layers import NO_CYCLE, LayerTracer, layer_metrics, serve_metrics


@dataclass(frozen=True)
class Workload:
    """What a workload's cycles do."""

    #: ``"update"`` or ``"insert"``: the paper's change generator.
    changes: str
    #: Whether a closed-loop reader thread runs beside the cycles.
    reader: bool
    #: Cycles measured in a run, unless the measuring time runs out first.
    #: A fixed count makes every run measure the same work: a run that
    #: fits fewer cycles would be steadier or unsteadier for it, and on
    #: ``insert_10k``, whose tables grow every cycle, a faster program
    #: would be judged on larger tables.
    cycles: int


WORKLOADS = {
    "update_10k": Workload("update", reader=False, cycles=6),
    "insert_10k": Workload("insert", reader=False, cycles=6),
    "serve_update": Workload("update", reader=True, cycles=2),
}

#: How many times the workloads without a reader answer the dashboard mix
#: after each cycle.
DASHBOARD_PASSES = 10


@dataclass(frozen=True)
class RunConfig:
    """What one benchmark run does."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    pos_rows: int = 500_000
    changes: int = 10_000


@dataclass
class RunResult:
    """Everything one run measured."""

    config: dict
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    read_samples: int = 0
    #: Dashboard read figures of an untraced run: printed, but not
    #: declared metrics.
    read_figures: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


def resolved_config(config: RunConfig) -> dict:
    """The configuration a run resolves, for the record: every ``REPRO_*``
    variable in force, the refresh discipline and partitioning those
    select, the cores and the Python version.  The benchmark sets none of
    them."""
    from repro.core.refresh import resolve_refresh_mode
    from repro.obs import tracing
    from repro.warehouse.partition import partition_enabled

    return {
        "workload": config.workload,
        "seed": config.seed,
        "seconds": config.seconds,
        "trace": int(config.trace),
        "pos_rows": config.pos_rows,
        "changes": config.changes,
        "repro_env": {
            name: value for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_")
        },
        "refresh_mode": resolve_refresh_mode(None).value,
        "partition": partition_enabled(),
        "program_tracing": tracing.enabled(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def dashboard(pos) -> list:
    """The reader's fixed mix: one roll-up per summary table."""
    from repro.aggregates import CountStar, Min, Sum
    from repro.query.router import AggregateQuery
    from repro.relational.expressions import col

    return [
        # Routed to SID_sales: no smaller view has both storeID and date.
        AggregateQuery.create(pos, group_by=["storeID", "date"],
                              aggregates=[("units", Sum(col("qty")))]),
        AggregateQuery.create(pos, group_by=["region", "date"],
                              aggregates=[("sales", CountStar()),
                                          ("units", Sum(col("qty")))]),
        AggregateQuery.create(pos, group_by=["category"],
                              aggregates=[("sales", CountStar()),
                                          ("first_sale", Min(col("date")))]),
        AggregateQuery.create(pos, group_by=["region"],
                              aggregates=[("units", Sum(col("qty")))]),
    ]


#: Each summary table's columns in table order, and how many of them are
#: the group-by key.
VIEW_COLUMNS = {
    "SID_sales": (3, ("storeID", "itemID", "date", "TotalCount",
                      "TotalQuantity", "_cnt_TotalQuantity")),
    "sCD_sales": (3, ("city", "region", "date", "TotalCount",
                      "TotalQuantity", "_cnt_TotalQuantity")),
    "SiC_sales": (2, ("storeID", "category", "TotalCount", "EarliestSale",
                      "TotalQuantity", "_cnt_EarliestSale",
                      "_cnt_TotalQuantity")),
    "sR_sales": (1, ("region", "TotalCount", "TotalQuantity",
                     "_cnt_TotalQuantity")),
}


def evaluate_base(data) -> tuple[dict[str, dict], list[list[tuple]]]:
    """Every summary table (group key -> aggregate values, as
    :data:`VIEW_COLUMNS` orders them) and every dashboard answer (sorted
    rows), evaluated from the base rows in one pass without the program's
    engine.  The generator writes no NULL ``qty`` or ``date``, so each
    hidden non-null count equals the group's COUNT(*)."""
    place = {store: (city, region)
             for store, city, region in data.stores.table.rows()}
    category = {row[0]: row[2] for row in data.items.table.rows()}
    sid: dict = {}
    scd: dict = {}
    sic: dict = {}
    sr: dict = {}
    for store, item, date, qty, _price in data.pos.table.rows():
        city, region = place[store]
        key = (store, item, date)
        count, units = sid.get(key, (0, 0))
        sid[key] = (count + 1, units + qty)
        key = (city, region, date)
        count, units = scd.get(key, (0, 0))
        scd[key] = (count + 1, units + qty)
        key = (store, category[item])
        count, first, units = sic.get(key, (0, date, 0))
        sic[key] = (count + 1, min(first, date), units + qty)
        key = (region,)
        count, units = sr.get(key, (0, 0))
        sr[key] = (count + 1, units + qty)
    views = {
        "SID_sales": {k: (c, u, c) for k, (c, u) in sid.items()},
        "sCD_sales": {k: (c, u, c) for k, (c, u) in scd.items()},
        "SiC_sales": {k: (c, f, u, c, c) for k, (c, f, u) in sic.items()},
        "sR_sales": {k: (c, u, c) for k, (c, u) in sr.items()},
    }

    store_date: dict = {}
    for (store, _item, date), (_count, units) in sid.items():
        store_date[store, date] = store_date.get((store, date), 0) + units
    region_date: dict = {}
    for (_city, region, date), (count, units) in scd.items():
        sales, total = region_date.get((region, date), (0, 0))
        region_date[region, date] = (sales + count, total + units)
    by_category: dict = {}
    for (_store, name), (count, first, _units) in sic.items():
        sales, earliest = by_category.get(name, (0, first))
        by_category[name] = (sales + count, min(earliest, first))
    answers = [
        sorted((*key, units) for key, units in store_date.items()),
        sorted((*key, *values) for key, values in region_date.items()),
        sorted((key, *values) for key, values in by_category.items()),
        sorted((region, units) for (region,), (_c, units) in sr.items()),
    ]
    return views, answers


def table_groups(table, width: int) -> dict | None:
    """A summary table's rows as group key -> aggregate values; ``None``
    when two rows share a group key."""
    rows = table.rows()
    groups = {row[:width]: row[width:] for row in rows}
    return groups if len(groups) == len(rows) else None


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-resident-set mark of this process, so a
    later :func:`peak_rss_mb` covers only what runs after; ``False`` where
    the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as control:
            control.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(reset: bool) -> float:
    """The process's peak resident set in MB: since the last
    :func:`reset_peak_rss` when *reset*, else since the process began."""
    if reset:
        with open("/proc/self/status") as status:
            match = re.search(r"^VmHWM:\s+(\d+) kB", status.read(), re.M)
        if match:
            return int(match.group(1)) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Reads:
    """Dashboard reads through ``QueryServer.answer`` and their
    latencies.  Reads happen either as passes over the mix after each cycle
    (:meth:`dashboard`) or in a closed loop on a reader thread beside the
    cycles (:meth:`loop`)."""

    def __init__(self, server, queries) -> None:
        self.server = server
        self.queries = queries
        self.latencies: list[float] = []
        self.failures = 0
        #: Thread CPU seconds and wall seconds spent reading.
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def _answer(self, query) -> None:
        started = time.perf_counter()
        try:
            # Looked up per call, so a tracer installed meanwhile sees it.
            self.server.answer(query)
        except Exception:
            self.failures += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.latencies.append(time.perf_counter() - started)

    @contextmanager
    def _reading(self) -> Iterator[None]:
        cpu_start, wall_start = time.thread_time(), time.perf_counter()
        try:
            yield
        finally:
            self.cpu_s += time.thread_time() - cpu_start
            self.wall_s += time.perf_counter() - wall_start

    def dashboard(self) -> None:
        """Answer the mix :data:`DASHBOARD_PASSES` times."""
        with self._reading():
            for _ in range(DASHBOARD_PASSES):
                for query in self.queries:
                    self._answer(query)

    def loop(self, stop: threading.Event) -> None:
        """Answer the mix one query at a time until *stop* is set."""
        with self._reading():
            i = 0
            while not stop.is_set():
                self._answer(self.queries[i % len(self.queries)])
                i += 1


@dataclass
class CycleOutcome:
    maintain_s: float
    lags_s: list[float]


class Nightly:
    """One warehouse and the state its nightly cycles need."""

    def __init__(self, config: RunConfig) -> None:
        from repro.serve import QueryServer
        from repro.warehouse.partition import partition_enabled
        from repro.workload import (
            RetailConfig,
            build_retail_warehouse,
            generate_retail,
        )

        self.config = config
        self.workload = WORKLOADS[config.workload]
        self.data = generate_retail(
            RetailConfig(pos_rows=config.pos_rows, seed=config.seed)
        )
        self.warehouse = build_retail_warehouse(self.data)
        if partition_enabled():
            # As ``repro maintain`` does: the switch takes the
            # shard-parallel path only over a partitioned fact table.
            self.warehouse.partition_fact("pos")
        self.server = QueryServer(self.warehouse, max_workers=1)
        self.queries = dashboard(self.data.pos)
        self.rng = random.Random(f"changes:{config.seed}")

    def close(self) -> None:
        self.server.close()

    def changes(self):
        from repro.workload import (
            insertion_generating_changes,
            update_generating_changes,
        )

        generate = (update_generating_changes
                    if self.workload.changes == "update"
                    else insertion_generating_changes)
        return generate(self.data.pos, self.data.config, self.config.changes,
                        self.rng)

    def cycle(self, tracer: LayerTracer | None = None,
              index: int = NO_CYCLE) -> CycleOutcome:
        """One nightly cycle: fresh changes (untimed), then stage and
        maintain (timed, and traced as cycle *index* when a *tracer* is
        given).  Raises ``RuntimeError`` when the cycle did not publish
        every view or apply every change."""
        from repro.warehouse.nightly import run_nightly_maintenance

        warehouse = self.warehouse
        changes = self.changes()
        expected_rows = (len(self.data.pos.table) + len(changes.insertions)
                         - len(changes.deletions))
        marks = {name: len(view.lineage)
                 for name, view in warehouse.views.items()}
        stamps = {name: view.version_stamp()
                  for name, view in warehouse.views.items()}
        if tracer is not None:
            tracer.cycle = index
        try:
            scope = (tracer.span("window") if tracer is not None
                     else nullcontext())
            with scope:
                staged_at = time.time()
                started = time.perf_counter()
                warehouse.stage_changes("pos", changes)
                run_nightly_maintenance(warehouse)
                maintain_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.cycle = NO_CYCLE
        lags = []
        for name, view in warehouse.views.items():
            manifests = view.lineage.manifests_since(marks[name])
            if len(manifests) != 1 or view.version_stamp() == stamps[name]:
                raise RuntimeError(
                    f"view {name!r} published {len(manifests)} epoch "
                    "manifests in one cycle, expected 1")
            lags.append(manifests[0].publish_ts - staged_at)
        if len(self.data.pos.table) != expected_rows:
            raise RuntimeError(
                f"fact table has {len(self.data.pos.table)} rows after the "
                f"cycle, expected {expected_rows}")
        if not warehouse.pending_changes("pos").is_empty():
            raise RuntimeError("changes still pending after the cycle")
        return CycleOutcome(maintain_s, lags)

    def gate(self) -> list[str]:
        """The correctness gate, with maintenance quiesced: every view and
        every dashboard answer against its evaluation from the base rows.
        Returns one message per mismatch."""
        mismatches = []
        views, answers = evaluate_base(self.data)
        for name, view in self.warehouse.views.items():
            width, columns = VIEW_COLUMNS[name]
            if (view.table.schema.columns != columns
                    or table_groups(view.table, width) != views[name]):
                mismatches.append(
                    f"view {name!r} differs from its evaluation from the "
                    "base rows")
        for index, (query, rows) in enumerate(zip(self.queries, answers)):
            answer = sorted(self.server.answer(query).rows())
            if answer != rows:
                mismatches.append(
                    f"dashboard query {index} "
                    f"({', '.join(query.definition.group_by)}) differs from "
                    "its evaluation from the base rows")
        return mismatches


def _fail(result: RunResult, what: str) -> None:
    result.failed += 1
    result.failures.append(what)
    print(f"FAILED: {what}", file=sys.stderr)


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _tail_mean(values: list[float], share: float) -> float:
    """The mean of the slowest *share* of *values* (at least one)."""
    ordered = sorted(values)
    return statistics.fmean(ordered[min(len(ordered) - 1,
                                        int((1 - share) * len(ordered))):])


def run(config: RunConfig) -> RunResult:
    """Set up, run the measured cycles, gate, and compute the metrics."""
    result = RunResult(config=resolved_config(config))
    setup_started = time.perf_counter()
    nightly = Nightly(config)
    try:
        _measure(nightly, config, result, setup_started)
    finally:
        nightly.close()
    return result


def _enough(config: RunConfig, untraced: list, traced: list,
            started: float) -> bool:
    """Whether the measured cycles are done: the workload's count of
    untraced cycles is reached, or the measuring time is past.  Traced
    runs need one cycle of each kind."""
    if not untraced or (config.trace and not traced):
        return False
    return (len(untraced) >= WORKLOADS[config.workload].cycles
            or time.perf_counter() - started > config.seconds)


def _measure(nightly: Nightly, config: RunConfig, result: RunResult,
             setup_started: float) -> None:
    # Set-up ends after one untimed warm-up cycle and one answer per
    # dashboard query, so lazy first-use work counts as set-up.
    nightly.cycle()
    for query in nightly.queries:
        nightly.server.answer(query)
    setup_s = time.perf_counter() - setup_started
    rss_reset = reset_peak_rss()
    result.config["peak_rss_since"] = "setup" if rss_reset else "start"

    tracer = LayerTracer() if config.trace else None
    reads = Reads(nightly.server, nightly.queries)
    # On the workloads without a reader thread, the dashboard is read after
    # each cycle, outside its timing.
    read_after = reads.dashboard if not nightly.workload.reader else None
    stop = threading.Event()
    reader_thread = None
    if nightly.workload.reader:
        reader_thread = threading.Thread(target=reads.loop, args=(stop,),
                                         name="dashboard-reader")
        reader_thread.start()

    untraced: list[CycleOutcome] = []
    traced: list[CycleOutcome] = []
    traced_cycles: list[int] = []
    started = time.perf_counter()
    index = 0
    try:
        while not _enough(config, untraced, traced, started):
            trace_this = tracer is not None and index % 2 == 1
            result.attempted += 1
            try:
                if trace_this:
                    with tracer.installed():
                        traced.append(nightly.cycle(tracer, index))
                        if read_after is not None:
                            read_after()
                    traced_cycles.append(index)
                else:
                    untraced.append(nightly.cycle())
                    if read_after is not None:
                        read_after()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                _fail(result, f"cycle {index} raised")
                break
            index += 1
    finally:
        if reader_thread is not None:
            stop.set()
            reader_thread.join(timeout=120)
            if reader_thread.is_alive():
                raise RuntimeError("reader thread did not stop")
    # Before the gate, so the figure is the measured cycles' and reads'.
    peak_rss = peak_rss_mb(rss_reset)

    result.attempted += len(nightly.queries) + len(nightly.warehouse.views)
    try:
        for mismatch in nightly.gate():
            _fail(result, mismatch)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        _fail(result, "correctness gate raised")

    result.read_samples = len(reads.latencies)
    result.attempted += result.read_samples + reads.failures
    for _ in range(reads.failures):
        _fail(result, "a dashboard read raised")
    if not untraced or not reads.latencies:
        result.failures.append("no cycle or no read completed")
        return

    maintain = [outcome.maintain_s for outcome in untraced]
    if tracer is not None:
        result.metrics = layer_metrics(tracer, traced_cycles,
                                       threading.get_ident())
        result.metrics["trace.overhead"] = (
            statistics.median(outcome.maintain_s for outcome in traced)
            / statistics.median(maintain))
        result.metrics.update(serve_metrics(tracer))
        result.metrics["serve.read_cpu_ratio"] = reads.cpu_s / reads.wall_s
        return
    latencies = reads.latencies
    result.metrics = {
        "maintain_s": statistics.median(maintain),
        "visible_lag_s": statistics.median(
            lag for outcome in untraced for lag in outcome.lags_s),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }
    # Too unsteady from run to run to declare: the median is a cache hit of
    # about 0.15 ms, the tail rests on a handful of SID_sales evaluations,
    # and beside maintenance the 99th percentile falls at one or another
    # multiple of the interpreter's switch interval.
    result.read_figures = {
        "read_p50_ms": statistics.median(latencies) * 1e3,
        "read_p99_ms": _percentile(latencies, 0.99) * 1e3,
        "read_tail_ms": _tail_mean(latencies, 0.05) * 1e3,
        "reads_per_s": len(latencies) / reads.wall_s,
    }
