"""Structural table copies: storage slices, shared index buckets, typed
columns kept, isolation both ways, and unchanged access charges."""

from array import array

import pytest

from repro.relational import HashIndex, Table
from repro.relational.stats import measuring
from repro.warehouse.partition import ShardedTable


@pytest.fixture(autouse=True)
def default_storage_env(monkeypatch):
    """Honour the explicit ``storage=`` requests below even under CI's
    ``REPRO_COLUMNAR=0`` runs."""
    monkeypatch.delenv("REPRO_COLUMNAR", raising=False)


def typecodes(table):
    return [
        col.typecode if isinstance(col, array) else type(col).__name__
        for col in table._store._columns  # noqa: SLF001
    ]


def indexed_table(storage):
    table = Table("t", ["a", "b", "c"], storage=storage)
    table.append_batch([[1, 1, 2, 3, 3], [10, 11, 12, 13, 14],
                        [0.5, 1.5, 2.5, 3.5, 4.5]])
    table.create_index(["a"])
    table.track_domain("a")
    table.delete_slot(1)
    return table


def snapshot(table):
    index = table.index_on(["a"])
    return (
        table._rows,  # noqa: SLF001
        sorted(table._free_slots),  # noqa: SLF001
        {key: tuple(index.lookup(key)) for key in index.keys()},
        sorted(table.domain("a")),
        len(table),
    )


class TestTypedColumns:
    def test_typecodes_survive_copy(self):
        table = Table("t", ["i", "f", "s"], storage="column")
        table.append_batch([[1, 2, 3], [0.5, 1.5, 2.5], ["x", "y", "z"]])
        assert typecodes(table) == ["q", "d", "list"]
        clone = table.copy()
        assert typecodes(clone) == ["q", "d", "list"]
        assert clone.rows() == table.rows()

    def test_copy_columns_are_not_shared(self):
        table = Table("t", ["i"], storage="column")
        table.append_batch([[1, 2]])
        clone = table.copy()
        clone.insert(("not-an-int",))
        assert typecodes(table) == ["q"]
        assert typecodes(clone) == ["list"]
        assert table.rows() == [(1,), (2,)]


@pytest.mark.parametrize("storage", ["row", "column"])
class TestStructuralCopy:
    def test_copy_keeps_slots_tombstones_and_free_list(self, storage):
        table = indexed_table(storage)
        clone = table.copy("clone")
        assert clone.name == "clone"
        assert snapshot(clone) == snapshot(table)
        # The recycled slot is the same one on both sides.
        assert clone.insert((9, 19, 9.5)) == table.insert((9, 19, 9.5))

    def test_writes_to_copy_do_not_reach_source(self, storage):
        table = indexed_table(storage)
        before = snapshot(table)
        clone = table.copy()
        clone.insert((1, 20, 0.0))
        clone.insert((7, 21, 0.0))
        clone.update_slot(0, (3, 10, 0.5))
        clone.delete_slot(4)
        assert snapshot(table) == before
        assert table.verify_indexes()
        assert clone.verify_indexes()
        assert sorted(clone.index_on(["a"]).lookup((3,))) == [0, 3]

    def test_writes_to_source_do_not_reach_copy(self, storage):
        table = indexed_table(storage)
        clone = table.copy()
        before = snapshot(clone)
        table.insert((1, 20, 0.0))
        table.update_slot(2, (5, 12, 2.5))
        table.delete_slot(0)
        table.truncate()
        assert snapshot(clone) == before
        assert table.verify_indexes()
        assert clone.verify_indexes()

    def test_copy_charges_a_scan_and_an_insert_per_live_row(self, storage):
        table = indexed_table(storage)
        with measuring() as stats:
            table.copy()
        assert stats.rows_scanned == len(table) == 4
        assert stats.rows_inserted == len(table)
        assert stats.rows_deleted == stats.rows_updated == 0

    def test_copy_drops_observers_and_write_tracking(self, storage):
        table = indexed_table(storage)
        table.attach_observer(object())
        table.track_writes()
        clone = table.copy()
        assert clone.observers == ()
        assert clone.written_slots is None
        assert clone.mutations == 0


class TestWriteTracking:
    def test_records_every_written_slot(self):
        table = indexed_table("column")
        mutations = table.mutations
        table.track_writes()
        recycled = table.insert((4, 15, 0.0))
        table.update_slot(0, (1, 10, 9.9))
        table.delete_slot(3)
        assert table.written_slots == {recycled, 0, 3}
        assert table.mutations == mutations + 3
        table.stop_tracking_writes()
        table.insert((5, 16, 0.0))
        assert table.written_slots is None

    def test_truncate_and_batch_append_record_their_slots(self):
        table = Table("t", ["a"], storage="column")
        table.append_batch([[1, 2, 3]])
        table.track_writes()
        table.append_batch([[4, 5]])
        assert table.written_slots == {3, 4}
        table.truncate()
        assert table.written_slots == {0, 1, 2, 3, 4}

    def test_slot_row_reads_tombstones_and_past_the_end_as_none(self):
        table = indexed_table("column")
        assert table.slot_row(0) == (1, 10, 0.5)
        assert table.slot_row(1) is None
        assert table.slot_row(99) is None


class TestShardedCopy:
    def test_sharded_copy_stays_sharded_and_isolated(self):
        rows = [(1, d, float(d)) for d in range(6)]
        table = ShardedTable("f", ["k", "date", "v"], "date", rows=rows,
                             width=2)
        table.create_index(["k", "date"])
        clone = table.copy()
        assert isinstance(clone, ShardedTable)
        assert clone.shard_sizes() == table.shard_sizes()
        clone.drop_shard(clone.shard_keys()[0])
        clone.insert((2, 9, 9.0))
        assert sorted(table.rows()) == sorted(rows)
        assert table.verify_indexes()
        assert clone.verify_indexes()
        assert len(clone) == len(rows) - 2 + 1


class TestIndexCopy:
    def test_copy_shares_nothing_mutable(self):
        index = HashIndex(["a"], [0])
        index.add((1,), 0)
        index.add((1,), 1)
        clone = index.copy()
        clone.add((1,), 2)
        clone.remove((1,), 0)
        index.add((2,), 3)
        assert index.lookup((1,)) == [0, 1]
        assert clone.lookup((1,)) == [1, 2]
        assert clone.lookup((2,)) == []

    def test_lookup_returns_a_fresh_list(self):
        index = HashIndex(["a"], [0])
        index.add((1,), 0)
        slots = index.lookup((1,))
        assert isinstance(slots, list)
        slots.append(99)
        assert index.lookup((1,)) == [0]

    def test_build_matches_repeated_add(self):
        rows = [(k % 3, k) for k in range(10)]
        built = HashIndex(["a"], [0])
        built.build(enumerate(rows))
        added = HashIndex(["a"], [0])
        for slot, row in enumerate(rows):
            added.add(row, slot)
        assert {k: built.lookup(k) for k in built.keys()} == {
            k: added.lookup(k) for k in added.keys()
        }
