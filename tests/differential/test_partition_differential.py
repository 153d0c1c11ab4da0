"""Differential testing of the date-partitioned warehouse engine.

Hypothesis generates random star-schema change sets and drives them
through the four-view Table 1 lattice three ways: the unpartitioned
maintenance path, the per-shard path (summary deltas computed shard by
shard and merged with ``Reducer.merge``), and the SQLite backend executing
the paper's literal SQL.  All three must land identical summary tables —
and the sharded run must reproduce the unpartitioned run's certificates
and epoch manifests batch for batch.

A second property pins the merge algebra itself: *any* re-partitioning of
the same change set (shard widths 1, 2, 3, 5 over five dates — from
one-shard-per-date down to a single shard) merges to byte-identical
summary-delta tables with identical lineage snapshots.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MinMaxPolicy, PropagateOptions
from repro.lattice import (
    build_lattice_for_views,
    maintain_lattice,
    propagate_lattice,
)
from repro.obs.lineage import LineageClock, set_lineage_clock
from repro.sqlite_backend import SqliteWarehouse
from repro.views import MaterializedView, compute_rows
from repro.warehouse.partition import partition_fact, propagate_partitioned

from ..property.test_property_refresh import build_fact, fact_rows, split_changes
from .harness import differ_message, rows_equivalent
from .test_engines_differential import build_changes, delete_picks
from .test_shared_scan_differential import lattice_definitions

#: Shard widths over the five workload dates: per-date shards, two
#: coarser groupings, and the degenerate single-shard partitioning.
WIDTHS = (1, 2, 3, 5)


@contextmanager
def fresh_lineage_clock():
    """Pin batch-id allocation so independently built runs stamp the same
    ids and their manifests become exactly comparable."""
    previous = set_lineage_clock(LineageClock())
    try:
        yield
    finally:
        set_lineage_clock(previous)


def manifest_fingerprints(views):
    """Per-view manifest identity minus wall-clock noise: which batches
    became visible in which epoch, under which refresh mode."""
    return {
        view.definition.name: [
            (m.epoch, m.refresh_count, m.mode, m.batches)
            for m in view.lineage.manifests()
        ]
        for view in views
    }


def maintained_state(base, to_insert, to_delete, policy, *, width=None):
    """Run full lattice maintenance (unpartitioned, or per shard over a
    date-partitioned fact table when *width* is given) and return the
    final tables, certificates, and manifest fingerprints."""
    with fresh_lineage_clock():
        pos = build_fact(base)
        views = [MaterializedView.build(d) for d in lattice_definitions(pos)]
        changes = build_changes(pos, to_insert, to_delete)
        options = PropagateOptions(policy=policy)
        if width is not None:
            partition_fact(pos, width=width)
            options = PropagateOptions(policy=policy, partition=True)
        maintain_lattice(views, changes, options=options)
        tables = {
            view.definition.name: view.table.sorted_rows() for view in views
        }
        certificates = {
            view.definition.name: (
                view.certificate.value if view.certificate else None
            )
            for view in views
        }
        return tables, certificates, manifest_fingerprints(views), views


@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_partitioned_maintenance_matches_serial_and_sqlite(
    policy, base, inserted, picks
):
    """Per-shard maintenance ≡ unpartitioned maintenance ≡ SQLite, with
    identical certificates and epoch manifests, across both MIN/MAX
    policies."""
    to_insert, to_delete = split_changes(base, inserted, picks)

    serial_tables, serial_certs, serial_manifests, _ = maintained_state(
        base, to_insert, to_delete, policy
    )
    shard_tables, shard_certs, shard_manifests, views = maintained_state(
        base, to_insert, to_delete, policy, width=2
    )

    for name, reference in serial_tables.items():
        assert shard_tables[name] == reference, differ_message(
            f"serial and per-shard tables for {name!r}",
            base, to_insert, to_delete, reference, shard_tables[name],
        )
    assert shard_certs == serial_certs
    assert shard_manifests == serial_manifests
    for view in views:
        expected = compute_rows(view.definition).sorted_rows()
        assert rows_equivalent(
            expected, view.table.sorted_rows()
        ), differ_message(
            f"per-shard maintenance and recomputation for "
            f"{view.definition.name!r}",
            base, to_insert, to_delete, expected, view.table.sorted_rows(),
        )
        assert view.table.verify_indexes()

    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    for definition in lattice_definitions(sqlite_pos):
        warehouse.define_summary_table(definition)
    warehouse.maintain(build_changes(sqlite_pos, to_insert, to_delete))
    for name, rows in shard_tables.items():
        sqlite_rows = [tuple(row) for row in warehouse.sorted_rows(name)]
        assert rows_equivalent(sqlite_rows, rows), differ_message(
            f"sqlite and per-shard tables for {name!r}",
            base, to_insert, to_delete, sqlite_rows, rows,
        )


def test_multi_shard_path_matches_serial_deterministically():
    """A fixed multi-date change set routes to several shards, and the
    per-shard path still reproduces the unpartitioned tables,
    certificates, and manifests."""
    base = [(s, i, d, s + d, 1.0) for s in (1, 2) for i in (1, 2)
            for d in (1, 2, 3, 4, 5)]
    to_insert = [(2, 1, d, 9, 1.0) for d in (1, 2, 3, 4, 5)]
    to_delete = [(1, 1, 1, 2, 1.0), (1, 2, 4, 5, 1.0)]

    serial = maintained_state(
        base, to_insert, to_delete, MinMaxPolicy.PAPER
    )
    sharded = maintained_state(
        base, to_insert, to_delete, MinMaxPolicy.PAPER, width=2
    )
    assert sharded[0] == serial[0]
    assert sharded[1] == serial[1]
    assert sharded[2] == serial[2]
    partitioned = sharded[3][0].definition.fact.partition
    assert partitioned.last_shard_count >= 2


@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_repartitionings_merge_to_identical_deltas(
    policy, base, inserted, picks
):
    """Any re-partitioning of the same change set merges to byte-identical
    summary-delta tables (same rows, same canonical order) with identical
    lineage snapshots — the ``Reducer.merge`` algebra is partition-
    invariant.  The merged deltas also equal the serial propagation's as
    row sets."""
    to_insert, to_delete = split_changes(base, inserted, picks)

    reference = None
    serial_sorted = None
    for width in WIDTHS:
        with fresh_lineage_clock():
            pos = build_fact(base)
            views = [
                MaterializedView.build(d) for d in lattice_definitions(pos)
            ]
            lattice = build_lattice_for_views(views)
            changes = build_changes(pos, to_insert, to_delete)
            if serial_sorted is None:
                serial = propagate_lattice(
                    lattice, changes, PropagateOptions(policy=policy)
                )
                serial_sorted = {
                    name: delta.table.sorted_rows()
                    for name, delta in serial.items()
                }
            partitioned = partition_fact(pos, width=width)
            deltas = propagate_partitioned(
                lattice, partitioned, changes, PropagateOptions(policy=policy)
            )
            fingerprint = {
                name: (delta.table.rows(), delta.lineage.batch_ids())
                for name, delta in deltas.items()
            }
        if reference is None:
            reference = fingerprint
            continue
        for name, (rows, batch_ids) in fingerprint.items():
            ref_rows, ref_batches = reference[name]
            assert rows == ref_rows, differ_message(
                f"width-1 and width-{width} merged deltas for {name!r}",
                base, to_insert, to_delete, ref_rows, rows,
            )
            assert batch_ids == ref_batches
    def nulls_first(rows):
        return sorted(
            rows,
            key=lambda row: tuple((v is not None, v) for v in row),
        )

    for name, (rows, _) in reference.items():
        assert rows_equivalent(serial_sorted[name], nulls_first(rows)), (
            differ_message(
                f"serial and merged deltas for {name!r}",
                base, to_insert, to_delete,
                serial_sorted[name], nulls_first(rows),
            )
        )
