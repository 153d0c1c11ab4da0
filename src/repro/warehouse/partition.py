"""Date-partitioned fact storage and per-shard maintenance.

Date is this repo's natural partition key: it is the expiration key (old
dates are dropped wholesale) and lineage stamps batches by ingest time.
This module shards ``pos`` into per-date-range segments:

* :class:`ShardedTable` stores rows in per-date-range segments (columnar
  :class:`~repro.relational.table.ColumnStore` unless ``REPRO_COLUMNAR=0``)
  behind the standard :class:`~repro.relational.table.Table` slot contract,
  so every existing consumer — recompute, ``apply_to``, audits, indexes —
  works unchanged.  Scans are shard-major (segments in date order).
* :class:`PartitionedFactTable` installs a sharded table into a
  :class:`~repro.warehouse.fact.FactTable` (swapping ``fact.table``),
  routes change sets per shard, and turns expiration into whole-segment
  drops instead of row-at-a-time deletes.
* :func:`propagate_partitioned` runs the full lattice propagation —
  including the fused shared-scan kernels — over each shard's changes in
  turn and merges the partial deltas with the distributive
  ``Reducer.merge`` machinery (:func:`merge_summary_deltas`).  One merged
  Figure 7 refresh then runs per view, so certificates, lineage manifests,
  and epoch publishes are identical to the unpartitioned path.

Correctness contract: a summary-delta row stores reducer *states* (every
delta reducer — Sum for counts/sums, Min/Max for extrema — has an identity
finalise), so per-shard delta rows are mergeable partial states.  Merged
rows are emitted in the canonical nulls-first sorted order, so *any*
partitioning of the same change set produces an identical delta table (the
Hypothesis property in ``tests/differential/test_partition_differential.py``).
The merged delta carries the full change set's lineage snapshot and is
refreshed once per view — exactly one epoch manifest per view per run, as
in the unpartitioned path (refreshing per shard would double-publish batch
ids and raise :class:`~repro.errors.LineageError`).

The whole path sits behind the ``REPRO_PARTITION`` kill-switch (default
off): maintenance only takes it when the switch (or the explicit
``PropagateOptions.partition`` knob) is on *and* the fact table has been
partitioned via :func:`partition_fact`.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence, TYPE_CHECKING

from ..core.deltas import MinMaxPolicy, SummaryDelta, delta_schema
from ..core.propagate import PropagateOptions, _delta_specs
from ..errors import InconsistentDeltaError, TableError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..relational.schema import Schema
from ..relational.table import (
    ColumnStore,
    Row,
    RowStore,
    Table,
    charge_access,
    resolve_storage,
)
from .changes import ChangeSet
from .fact import FactTable

if TYPE_CHECKING:  # pragma: no cover
    from ..lattice.vlattice import ViewLattice
    from ..warehouse.batch import BatchWindowClock

__all__ = [
    "PartitionedFactTable",
    "ShardChanges",
    "ShardedTable",
    "merge_summary_deltas",
    "partition_enabled",
    "partition_fact",
    "propagate_partitioned",
]


def partition_enabled() -> bool:
    """Whether ``REPRO_PARTITION`` turns the partitioned path on (default
    off; any value other than empty/``0`` enables it)."""
    value = os.environ.get("REPRO_PARTITION", "")
    return bool(value) and value != "0"


def _shard_sort_key(key: Any) -> tuple:
    """Nulls-first ordering for shard keys (matching ``sorted_rows``)."""
    return (key is not None, key)


def _row_sort_key(row: Row) -> tuple:
    return tuple((value is not None, value) for value in row)


# ----------------------------------------------------------------------
# Sharded storage
# ----------------------------------------------------------------------

class ShardStore:
    """Slot-contract storage that routes rows into per-date-range segments.

    Global slots index a *directory* mapping each slot to its
    ``(shard key, local slot)`` home; segments are plain
    :class:`ColumnStore`/:class:`RowStore` backings.  Scans are shard-major
    (segments in nulls-first key order, insertion order within a segment),
    and ``rows()`` / ``column_lists()`` / ``iter_live()`` all agree on that
    order.  Re-storing a row whose date moved (or whose old segment was
    dropped) transparently re-routes it — the global slot is stable, only
    the directory entry changes — so slot recycling through the owning
    :class:`~repro.relational.table.Table`'s free list stays correct.
    """

    kind = "sharded"
    __slots__ = ("_arity", "_date_position", "_width", "_segment_kind",
                 "_shards", "_directory")

    def __init__(
        self,
        arity: int,
        date_position: int,
        width: int = 1,
        segment_kind: str = "column",
    ) -> None:
        self._arity = arity
        self._date_position = date_position
        self._width = width
        self._segment_kind = segment_kind
        self._shards: dict[Any, ColumnStore | RowStore] = {}
        self._directory: list[tuple[Any, int] | None] = []

    # -- routing -------------------------------------------------------

    def key_of_date(self, date: Any) -> Any:
        """The shard key a row with this date value routes to."""
        if date is None or self._width == 1:
            return date
        return date // self._width

    def _key_of_row(self, row: Row) -> Any:
        return self.key_of_date(row[self._date_position])

    def _segment(self, key: Any) -> ColumnStore | RowStore:
        segment = self._shards.get(key)
        if segment is None:
            segment = (
                RowStore() if self._segment_kind == "row"
                else ColumnStore(self._arity)
            )
            self._shards[key] = segment
        return segment

    def shard_keys(self) -> list[Any]:
        """Shard keys in scan (nulls-first) order."""
        return sorted(self._shards, key=_shard_sort_key)

    def shard_live_count(self, key: Any) -> int:
        segment = self._shards[key]
        if isinstance(segment, ColumnStore):
            return segment.size() - segment._dead  # noqa: SLF001
        return sum(1 for _ in segment.iter_live())

    def shard_rows(self, key: Any) -> list[Row]:
        return self._shards[key].rows()

    def enumerate_shard(self, key: Any) -> Iterator[tuple[int, Row]]:
        """``(global slot, row)`` pairs for one shard's live rows."""
        segment = self._shards[key]
        back: dict[int, int] = {}
        for global_slot, entry in enumerate(self._directory):
            if entry is not None and entry[0] == key:
                back[entry[1]] = global_slot
        for local, row in segment.enumerate_live():
            yield back[local], row

    def drop_shard(self, key: Any) -> int:
        """Drop one whole segment; return how many live rows it held.

        O(segment) only for the directory sweep — no per-row tombstoning,
        index, or free-list churn happens here (the owning table handles
        index/domain/observer maintenance when it must).
        """
        if key not in self._shards:
            raise TableError(f"no shard with key {key!r}")
        live = self.shard_live_count(key)
        del self._shards[key]
        directory = self._directory
        for slot, entry in enumerate(directory):
            if entry is not None and entry[0] == key:
                directory[slot] = None
        return live

    def copy(self) -> "ShardStore":
        """An independent store: each segment copied structurally, the
        directory sliced."""
        clone = ShardStore(self._arity, self._date_position, self._width,
                           self._segment_kind)
        clone._shards = {
            key: segment.copy() for key, segment in self._shards.items()
        }
        clone._directory = self._directory[:]
        return clone

    # -- slot contract -------------------------------------------------

    def size(self) -> int:
        return len(self._directory)

    def get(self, slot: int) -> Row | None:
        entry = self._directory[slot]
        if entry is None:
            return None
        segment = self._shards.get(entry[0])
        if segment is None:
            return None
        return segment.get(entry[1])

    def append(self, row: Row) -> int:
        key = self._key_of_row(row)
        local = self._segment(key).append(row)
        self._directory.append((key, local))
        return len(self._directory) - 1

    def set(self, slot: int, row: Row | None) -> None:
        entry = self._directory[slot]
        if row is None:
            if entry is None:
                return
            segment = self._shards.get(entry[0])
            if segment is not None:
                segment.set(entry[1], None)
            self._directory[slot] = None
            return
        key = self._key_of_row(row)
        if entry is not None:
            segment = self._shards.get(entry[0])
            if segment is not None:
                if entry[0] == key:
                    segment.set(entry[1], row)
                    return
                segment.set(entry[1], None)  # date moved: leave a tombstone
        local = self._segment(key).append(row)
        self._directory[slot] = (key, local)

    def clear(self) -> None:
        self._shards.clear()
        self._directory.clear()

    def iter_live(self) -> Iterator[Row]:
        for key in self.shard_keys():
            yield from self._shards[key].iter_live()

    def enumerate_live(self) -> Iterator[tuple[int, Row]]:
        back: dict[Any, dict[int, int]] = {}
        for global_slot, entry in enumerate(self._directory):
            if entry is not None:
                back.setdefault(entry[0], {})[entry[1]] = global_slot
        for key in self.shard_keys():
            shard_back = back.get(key, {})
            for local, row in self._shards[key].enumerate_live():
                yield shard_back[local], row

    def rows(self) -> list[Row]:
        out: list[Row] = []
        for key in self.shard_keys():
            out.extend(self._shards[key].rows())
        return out

    def slot_list(self) -> list[Row | None]:
        out: list[Row | None] = [None] * len(self._directory)
        for slot, entry in enumerate(self._directory):
            if entry is None:
                continue
            segment = self._shards.get(entry[0])
            if segment is not None:
                out[slot] = segment.get(entry[1])
        return out

    def column_lists(self, positions: Sequence[int]) -> list[list[Any]]:
        out: list[list[Any]] = [[] for _ in positions]
        for key in self.shard_keys():
            part = self._shards[key].column_lists(positions)
            for i, column in enumerate(part):
                out[i].extend(column)
        return out

    def promote_columns(self) -> int:
        """Promote each segment's plain-list columns to typed arrays."""
        promoted = 0
        for segment in self._shards.values():
            promote = getattr(segment, "promote_columns", None)
            if promote is not None:
                promoted += promote()
        return promoted

    def append_batch(self, columns: Sequence[Sequence[Any]], n: int) -> None:
        dates = columns[self._date_position]
        buckets: dict[Any, list[int]] = {}
        for j in range(n):
            key = self.key_of_date(dates[j])
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [j]
            else:
                bucket.append(j)
        directory = self._directory
        for key in sorted(buckets, key=_shard_sort_key):
            picks = buckets[key]
            segment = self._segment(key)
            base = segment.size()
            if len(picks) == n:
                segment.append_batch(columns, n)
            else:
                sub = [[column[j] for j in picks] for column in columns]
                segment.append_batch(sub, len(picks))
            directory.extend((key, base + i) for i in range(len(picks)))


class ShardedTable(Table):
    """A :class:`Table` whose storage is date-sharded per-range segments.

    Indexes, tracked domains, and observers work exactly as on a plain
    table.  :meth:`drop_shard` removes one whole segment: O(1) plus a
    directory sweep when the table has no indexes/domains/observers,
    otherwise per-row index and domain maintenance still runs (without any
    tombstone or free-slot churn).
    """

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[str],
        date_column: str,
        rows: Sequence[Any] = (),
        width: int = 1,
        segment_storage: str | None = None,
    ) -> None:
        if not isinstance(width, int) or isinstance(width, bool) or width < 1:
            raise TableError(f"shard width must be a positive int, got {width!r}")
        super().__init__(name, schema, rows=(), storage="row")
        self.date_column = date_column
        self.width = width
        # Segments prefer columnar storage; REPRO_COLUMNAR=0 still wins.
        segment_kind = resolve_storage(segment_storage or "column")
        self._store = ShardStore(
            len(self.schema),
            self.schema.position(date_column),
            width=width,
            segment_kind=segment_kind,
        )
        # Batch kernels key off .storage — segments answer like their kind.
        self.storage = segment_kind
        self.insert_many(rows)

    @property
    def shard_store(self) -> ShardStore:
        return self._store  # type: ignore[return-value]

    def shard_key_of(self, date: Any) -> Any:
        return self.shard_store.key_of_date(date)

    def shard_keys(self) -> list[Any]:
        return self.shard_store.shard_keys()

    def shard_sizes(self) -> dict[Any, int]:
        store = self.shard_store
        return {key: store.shard_live_count(key) for key in store.shard_keys()}

    def shard_rows(self, key: Any) -> list[Row]:
        """One shard's live rows, charged as a scan of that shard only."""
        rows = self.shard_store.shard_rows(key)
        charge_access("rows_scanned", len(rows))
        return rows

    def drop_shard(self, key: Any) -> int:
        """Drop one whole segment; return how many rows went with it.

        Charges ``rows_deleted`` for every dropped row (parity with the
        per-row delete path) but never scans or tombstones live segments.
        """
        store = self.shard_store
        written = self._written
        if self._indexes or self._domains or self._observers or written is not None:
            victims = list(store.enumerate_shard(key))
            for slot, row in victims:
                if written is not None:
                    written.add(slot)
                for index in self._indexes.values():
                    index.remove(row, slot)
                if self._domains:
                    for position, counts in self._domains.items():
                        value = row[position]
                        remaining = counts.get(value, 0) - 1
                        if remaining <= 0:
                            counts.pop(value, None)
                        else:
                            counts[value] = remaining
                for observer in self._observers:
                    observer.row_deleted(row)
            dropped = store.drop_shard(key)
        else:
            dropped = store.drop_shard(key)
        self._live_count -= dropped
        self._mutations += 1
        self._charge("rows_deleted", dropped)
        return dropped


# ----------------------------------------------------------------------
# Partitioned fact table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardChanges:
    """One shard's slice of a change set."""

    key: Any
    insertions: tuple[Row, ...]
    deletions: tuple[Row, ...]

    @property
    def change_rows(self) -> int:
        return len(self.insertions) + len(self.deletions)


class PartitionedFactTable:
    """A fact table re-stored as per-date-range shards.

    Construction swaps ``fact.table`` for a :class:`ShardedTable` holding
    the same rows, indexes, tracked domains, and observers, and registers
    itself as ``fact.partition`` so maintenance drivers can find it.  All
    existing consumers keep working — they read ``fact.table`` dynamically.
    """

    def __init__(
        self, fact: FactTable, date_column: str = "date", width: int = 1
    ) -> None:
        if getattr(fact, "partition", None) is not None:
            raise TableError(f"fact table {fact.name!r} is already partitioned")
        original = fact.table
        if date_column not in original.schema.columns:
            raise TableError(
                f"fact table {fact.name!r} has no column {date_column!r}"
            )
        sharded = ShardedTable(
            original.name, original.schema, date_column, width=width
        )
        if len(original):
            sharded.append_batch(original.columns())
        for index in original.indexes.values():
            sharded.create_index(index.columns, unique=index.unique)
        for position in original._domains:  # noqa: SLF001 — faithful rebuild
            sharded.track_domain(original.schema.columns[position])
        for observer in original.observers:
            sharded.attach_observer(observer)
        fact.table = sharded
        fact.partition = self
        self.fact = fact
        self.table = sharded
        self.date_column = date_column
        self.width = width
        self._date_position = sharded.schema.position(date_column)
        #: Shards touched by the last :func:`propagate_partitioned` run
        #: (``None`` before the first); ``repro maintain`` reports it.
        self.last_shard_count: int | None = None

    # -- introspection -------------------------------------------------

    def shard_count(self) -> int:
        return len(self.table.shard_keys())

    def shard_sizes(self) -> dict[Any, int]:
        return self.table.shard_sizes()

    # -- change routing ------------------------------------------------

    def route_changes(self, changes: ChangeSet) -> list[ShardChanges]:
        """Split a change set by shard key, in shard scan order.

        Insertions may name dates with no existing shard — those shards
        are created when the changes are applied.  The routed slices
        partition the change set exactly: their sizes sum to
        ``changes.size()``.
        """
        if changes.schema != self.table.schema:
            raise TableError(
                f"change set for {changes.base_name!r} does not match the "
                f"schema of partitioned fact {self.fact.name!r}"
            )
        position = self._date_position
        key_of = self.table.shard_key_of
        ins: dict[Any, list[Row]] = {}
        dels: dict[Any, list[Row]] = {}
        for row in changes.insertions.scan():
            ins.setdefault(key_of(row[position]), []).append(row)
        for row in changes.deletions.scan():
            dels.setdefault(key_of(row[position]), []).append(row)
        keys = sorted(set(ins) | set(dels), key=_shard_sort_key)
        return [
            ShardChanges(
                key=key,
                insertions=tuple(ins.get(key, ())),
                deletions=tuple(dels.get(key, ())),
            )
            for key in keys
        ]

    # -- expiration ----------------------------------------------------

    def _shard_expired(self, key: Any, cutoff: Any) -> bool:
        if key is None:
            return False
        if self.width == 1:
            return key < cutoff
        return (key + 1) * self.width <= cutoff

    def expired_keys(self, cutoff: Any) -> list[Any]:
        """Shard keys holding only dates strictly before *cutoff*."""
        return [
            key for key in self.table.shard_keys()
            if self._shard_expired(key, cutoff)
        ]

    def expire_before(self, cutoff: Any) -> ChangeSet:
        """Build the deletion change set expiring all data before *cutoff*.

        Reads only the expired shards (never scans live data), and stamps
        the whole expiration as one lineage batch.  Propagating this change
        set maintains the summary tables exactly as the paper's expiration
        example (§2.1); applying it through :meth:`apply_changes` drops the
        expired segments wholesale.
        """
        changes = ChangeSet(self.fact.name, self.table.schema)
        doomed: list[Row] = []
        for key in self.expired_keys(cutoff):
            doomed.extend(self.table.shard_rows(key))
        if doomed:
            with changes.batch():
                changes.delete_many(doomed)
        return changes

    # -- applying changes ----------------------------------------------

    def apply_changes(self, changes: ChangeSet) -> dict[str, int]:
        """Apply a change set, dropping whole segments where possible.

        Semantics match :meth:`ChangeSet.apply_to` exactly — bag-style
        deletions, full validation before any mutation,
        :class:`~repro.errors.InconsistentDeltaError` on a deletion that
        matches no live row — but deletions only scan the shards they
        touch, and a shard whose every row is deleted (the expiration
        pattern) is dropped as one segment instead of row by row.
        Returns ``{"dropped_shards": ..., "deleted_rows": ...,
        "inserted_rows": ...}``.
        """
        table = self.table
        if changes.schema != table.schema:
            raise TableError(
                f"change set for {changes.base_name!r} does not match schema "
                f"of table {table.name!r}"
            )
        store = table.shard_store
        position = self._date_position
        key_of = table.shard_key_of
        wanted: dict[Any, Counter] = {}
        for row in changes.deletions.scan():
            key = key_of(row[position])
            bucket = wanted.get(key)
            if bucket is None:
                bucket = wanted[key] = Counter()
            bucket[row] += 1

        live_keys = set(store.shard_keys())
        drop_keys: list[Any] = []
        doomed_slots: list[int] = []
        for key in sorted(wanted, key=_shard_sort_key):
            requested = wanted[key]
            requested_rows = sum(requested.values())
            if key not in live_keys:
                missing = next(iter(requested))
                raise InconsistentDeltaError(
                    f"{requested_rows} deferred deletion(s) match no row in "
                    f"{table.name!r}; first missing row: {missing!r}"
                )
            shard_rows = store.shard_rows(key)
            charge_access("rows_scanned", len(shard_rows))
            live = Counter(shard_rows)
            overdrawn = [
                row for row, count in requested.items()
                if live.get(row, 0) < count
            ]
            if overdrawn:
                short = sum(
                    count - live.get(row, 0)
                    for row, count in requested.items()
                    if live.get(row, 0) < count
                )
                raise InconsistentDeltaError(
                    f"{short} deferred deletion(s) match no row in "
                    f"{table.name!r}; first missing row: {overdrawn[0]!r}"
                )
            if requested == live:
                drop_keys.append(key)
                continue
            remaining = requested_rows
            pending = dict(requested)
            for slot, row in store.enumerate_shard(key):
                if remaining == 0:
                    break
                count = pending.get(row, 0)
                if count:
                    pending[row] = count - 1
                    remaining -= 1
                    doomed_slots.append(slot)

        deleted = 0
        for key in drop_keys:
            deleted += table.drop_shard(key)
        if doomed_slots:
            deleted += table.delete_slots(doomed_slots)
        inserted = table.insert_many(changes.insertions.scan())
        if tracing.enabled() and drop_keys:
            obs_metrics.registry().counter(
                "partition.expired_segments"
            ).inc(len(drop_keys))
        return {
            "dropped_shards": len(drop_keys),
            "deleted_rows": deleted,
            "inserted_rows": inserted,
        }


def partition_fact(
    fact: FactTable, date_column: str = "date", width: int = 1
) -> PartitionedFactTable:
    """Partition *fact* by date (idempotent accessor: returns the existing
    partitioning if one is installed with matching parameters)."""
    existing = getattr(fact, "partition", None)
    if existing is not None:
        if existing.date_column != date_column or existing.width != width:
            raise TableError(
                f"fact table {fact.name!r} is already partitioned by "
                f"{existing.date_column!r} (width {existing.width})"
            )
        return existing
    return PartitionedFactTable(fact, date_column=date_column, width=width)


# ----------------------------------------------------------------------
# Delta merging (Reducer.merge over per-shard partials)
# ----------------------------------------------------------------------

def merge_summary_deltas(
    definition,
    policy: MinMaxPolicy,
    shard_rows: Sequence[Sequence[Row]],
    lineage=None,
) -> SummaryDelta:
    """Merge per-shard summary-delta rows into one delta for *definition*.

    Each input is one shard's delta table rows (any order of shards).
    Because every delta reducer has an identity finalise, stored delta
    values *are* mergeable partial states; per-group states combine with
    each reducer's distributive ``Reducer.merge``, so the merged delta is
    equivalent to the single-pass delta over the whole change set.  Output
    rows are emitted in canonical nulls-first sorted order, making the
    merged table identical for any re-partitioning of the same change set.
    """
    specs = _delta_specs(definition, policy)
    reducers = [reducer for _name, _expr, reducer in specs]
    width = len(definition.group_by)
    n_aggs = len(reducers)
    merged: dict[tuple, list] = {}
    for rows in shard_rows:
        for row in rows:
            key = row[:width]
            states = row[width:]
            existing = merged.get(key)
            if existing is None:
                merged[key] = list(states)
            else:
                for a in range(n_aggs):
                    existing[a] = reducers[a].merge(existing[a], states[a])
    out_rows = sorted(
        (key + tuple(states) for key, states in merged.items()),
        key=_row_sort_key,
    )
    table = Table(
        f"sd_{definition.name}", delta_schema(definition, policy), out_rows
    )
    return SummaryDelta(definition, table, policy, lineage=lineage)


# ----------------------------------------------------------------------
# Per-shard propagation
# ----------------------------------------------------------------------

def _shard_change_set(changes: ChangeSet, shard: ShardChanges) -> ChangeSet:
    """One shard's slice of *changes* as a standalone change set."""
    sliced = ChangeSet(changes.base_name, changes.schema)
    with sliced.batch():
        if shard.insertions:
            sliced.insert_many(shard.insertions)
        if shard.deletions:
            sliced.delete_many(shard.deletions)
    return sliced


def propagate_partitioned(
    lattice: "ViewLattice",
    partitioned: PartitionedFactTable,
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
    clock: "BatchWindowClock | None" = None,
) -> dict[str, SummaryDelta]:
    """Per-shard twin of :func:`~repro.lattice.plan.propagate_lattice`.

    Routes the change set per shard, runs the standard lattice propagation
    over each shard's slice on the caller's *lattice*, and merges the
    per-shard deltas node by node with :func:`merge_summary_deltas` — one
    delta per lattice node, ready for the standard single refresh per view.
    Each shard's propagation runs under a ``shard:<key>`` span and charges
    the active access collector directly, so span subtotals still equal
    the :class:`~repro.relational.stats.AccessStats` totals.
    """
    from ..lattice.plan import propagate_lattice
    from ..warehouse.batch import BatchWindowClock

    clock = clock or BatchWindowClock()
    shards = partitioned.route_changes(changes)
    partitioned.last_shard_count = len(shards)
    if not shards:
        return propagate_lattice(lattice, changes, options, clock)
    with tracing.span(
        "propagate", views=len(lattice.order), partition=True,
        shards=len(shards),
    ) as span:
        per_shard: list[dict[str, SummaryDelta]] = []
        with clock.online("propagate-shards", shards=len(shards)):
            for shard in shards:
                with tracing.span(
                    f"shard:{shard.key}", change_rows=shard.change_rows,
                ):
                    per_shard.append(propagate_lattice(
                        lattice, _shard_change_set(changes, shard), options,
                    ))
        if tracing.enabled():
            registry = obs_metrics.registry()
            registry.counter("partition.runs").inc()
            registry.counter("partition.shards").inc(len(shards))
            for shard in shards:
                registry.histogram("partition.shard_rows").observe(
                    shard.change_rows
                )

        lineage = changes.lineage.snapshot()
        deltas: dict[str, SummaryDelta] = {}
        merged_rows = 0
        for name in lattice.order:
            definition = lattice.node(name).definition
            with clock.online(
                f"propagate:{name}", node=name, kind="merge",
            ), tracing.span("node:" + name) as node_span:
                delta = merge_summary_deltas(
                    definition,
                    options.policy,
                    [deltas_of[name].table.rows() for deltas_of in per_shard],
                    lineage=lineage,
                )
                node_span.add("delta_rows", len(delta.table))
                deltas[name] = delta
                merged_rows += len(delta.table)
        if tracing.enabled():
            obs_metrics.registry().counter(
                "partition.merged_delta_rows"
            ).inc(merged_rows)
        span.add("merged_delta_rows", merged_rows)
    return deltas
