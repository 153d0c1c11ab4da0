"""Epoch publish validates by the slots the build wrote.

``publish`` checks the shadow's maintained certificate against one
recomputed from storage over the written slots only, and refuses a shadow
whose base epoch was written in place after the copy.  The full re-hash
of every row stays with the audit and the status check.
"""

from array import array

import pytest

from repro.core import (
    base_recompute_fn,
    compute_summary_delta,
    refresh,
    refresh_atomically,
    refresh_versioned,
)
from repro.errors import PublishError
from repro.lattice.plan import rematerialize_with_lattice
from repro.obs import trace
from repro.obs.audit import row_digest
from repro.obs.metrics import MetricsRegistry
from repro.views import MaterializedView
from repro.warehouse import ChangeSet
from repro.warehouse.health import audit_warehouse, warehouse_status

from ..conftest import (
    assert_view_matches_recomputation,
    make_items,
    make_pos,
    make_stores,
    sid_definition,
)
from .conftest import run_cycle

STORES = (1, 2, 3, 4)
ITEMS = (10, 11, 12, 13)


@pytest.fixture(autouse=True)
def ambient_tracing(monkeypatch):
    """The span counters below need tracing on, whatever ``REPRO_TRACE``
    the suite runs under."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)


def pos_with_groups(n_groups):
    """A pos fact table whose SID_sales view has *n_groups* rows."""
    combos = [(s, i) for s in STORES for i in ITEMS]
    rows = [
        (*combos[g % len(combos)], g // len(combos), 1, 1.0)
        for g in range(n_groups)
    ]
    return make_pos(make_stores(), make_items(), rows)


def small_delta(pos):
    """One group updated, one group deleted, one group inserted."""
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many([(1, 10, 0, 5, 2.0), (4, 13, -1, 1, 1.0)])
    changes.delete_many([(1, 11, 0, 1, 1.0)])
    return changes


def capture_written(monkeypatch):
    """Record each published shadow's written slots and digest count."""
    seen = []
    original = MaterializedView.publish

    def publish(self, shadow, validate=True):
        written = set(shadow.table.written_slots)
        expected_digests = sum(
            (shadow.base_table.slot_row(slot) is not None)
            + (shadow.table.slot_row(slot) is not None)
            for slot in written
        )
        seen.append((self.name, written, expected_digests))
        return original(self, shadow, validate)

    monkeypatch.setattr(MaterializedView, "publish", publish)
    return seen


class TestPublishCost:
    def test_digests_track_written_slots_not_view_size(self, monkeypatch):
        seen = capture_written(monkeypatch)
        counters = []
        for n_groups in (1_000, 20_000):
            pos = pos_with_groups(n_groups)
            view = MaterializedView.build(sid_definition(pos))
            assert len(view.table) == n_groups
            changes = small_delta(pos)
            delta = compute_summary_delta(view.definition, changes)
            changes.apply_to(pos.table)
            with trace() as recorder:
                refresh_versioned(view, delta)
            span = recorder.spans("refresh_versioned")[-1]
            counters.append((
                span.counters["publish_slots"],
                span.counters["publish_digests"],
            ))
            assert_view_matches_recomputation(view)
        (_, small_written, small_digests), (_, large_written, _) = seen
        assert len(small_written) == len(large_written) == 3
        # Update: old and new row; delete: old row; insert: new row.
        assert small_digests == 4
        assert counters[0] == counters[1] == (3, 4)

    def test_published_table_stops_recording_writes(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        shadow = view.begin_version()
        assert shadow.table.written_slots == set()
        view.publish(shadow)
        assert view.table.written_slots is None


class TestTornBuild:
    def test_storage_write_on_a_written_slot_fails_validation(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        base = view.pin()
        shadow = view.begin_version()
        slot, row = next(iter(shadow.table.slots()))
        shadow.table.update_slot(slot, row[:-1] + (row[-1] + 1,))
        # Tear the written slot behind the certificate's back.
        shadow.table._store.set(slot, row[:-1] + (row[-1] + 2,))  # noqa: SLF001
        assert shadow.table.written_slots == {slot}
        with pytest.raises(PublishError, match="certificate mismatch"):
            view.publish(shadow)
        assert view.pin() is base


class TestBaseEpochGuard:
    """Any in-place write to the base epoch between ``begin_version`` and
    ``publish`` makes the shadow unpublishable: its copy predates the
    write, so publishing it would silently drop that write."""

    @pytest.fixture
    def staged(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many([(2, 12, 3, 1, 1.0), (4, 13, 9, 2, 2.0)])
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        return view, delta

    def assert_publish_refused(self, view, shadow, base):
        for validate in (True, False):
            with pytest.raises(PublishError, match="mutated in place"):
                view.publish(shadow, validate=validate)
        assert view.pin() is base
        assert view.epoch == 0

    def test_in_place_refresh(self, staged):
        view, delta = staged
        base = view.pin()
        shadow = view.begin_version()
        refresh(view, delta)
        self.assert_publish_refused(view, shadow, base)

    def test_atomic_refresh(self, staged):
        view, delta = staged
        base = view.pin()
        shadow = view.begin_version()
        refresh_atomically(view, delta, base_recompute_fn(view.definition))
        self.assert_publish_refused(view, shadow, base)

    def test_rematerialize(self, staged):
        view, _delta = staged
        base = view.pin()
        shadow = view.begin_version()
        view.rematerialize()
        self.assert_publish_refused(view, shadow, base)

    def test_lattice_rematerialize(self, retail):
        _data, warehouse = retail
        views = warehouse.views_over("pos")
        shadows = {view.name: (view.pin(), view.begin_version())
                   for view in views}
        rematerialize_with_lattice(views)
        for view in views:
            base, shadow = shadows[view.name]
            self.assert_publish_refused(view, shadow, base)

    def test_untouched_base_publishes(self, staged):
        view, _delta = staged
        shadow = view.begin_version()
        view.publish(shadow)
        assert view.epoch == 1


class TestTypedColumnsAcrossEpochs:
    @pytest.fixture(autouse=True)
    def columnar(self, monkeypatch):
        """Typed columns exist only in columnar storage, the default that
        CI's ``REPRO_COLUMNAR=0`` runs switch off."""
        monkeypatch.delenv("REPRO_COLUMNAR", raising=False)

    def test_typecodes_survive_versioned_round_trip(self, pos):
        view = MaterializedView.build(sid_definition(pos))

        def typecodes():
            return [
                col.typecode if isinstance(col, array) else type(col).__name__
                for col in view.table._store._columns  # noqa: SLF001
            ]

        before = typecodes()
        assert before == ["q"] * 6
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many([(1, 10, 1, 5, 2.0), (4, 13, 9, 2, 2.0)])
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        refresh_versioned(view, delta)
        assert view.epoch == 1
        assert typecodes() == before
        assert_view_matches_recomputation(view)


class TestAuditCatchesUnwrittenCorruption:
    def test_corruption_outside_the_written_slots(self, retail, monkeypatch):
        """Publish no longer re-hashes slots the build did not write, so a
        storage-level corruption there must still be caught by the full
        re-hash in the audit and in the status check."""
        data, warehouse = retail
        seen = capture_written(monkeypatch)
        run_cycle(data, warehouse)
        name, written, _digests = max(
            seen, key=lambda entry: len(warehouse.view(entry[0]).table)
        )
        view = warehouse.view(name)
        assert view.epoch == 1
        slot = next(slot for slot, _row in view.table.slots()
                    if slot not in written)
        row = view.table.row_at(slot)
        view.table._store.set(slot, row[:-1] + (row[-1] + 1,))  # noqa: SLF001

        report = audit_warehouse(warehouse, metrics=MetricsRegistry(),
                                 record=False)
        assert "certificate-drift" in report.results[name].failures
        status = {
            line.name: line
            for line in warehouse_status(warehouse, verify_certificates=True)
        }
        assert status[name].certificate_ok is False
        assert all(line.certificate_ok for line in status.values()
                   if line.name != name)
        assert row_digest(row) != row_digest(view.table.row_at(slot))
