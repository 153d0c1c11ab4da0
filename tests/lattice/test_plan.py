"""Multi-view maintenance plans: propagate/refresh/rematerialise a lattice."""

import pytest

from repro.core import MinMaxPolicy, PropagateOptions, RefreshVariant
from repro.errors import MaintenanceError
from repro.lattice import (
    build_lattice_for_views,
    maintain_lattice,
    propagate_lattice,
    propagate_without_lattice,
    propagation_levels,
    rematerialize_with_lattice,
)
from repro.views import MaterializedView, compute_rows
from repro.warehouse import BatchWindowClock
from repro.workload import (
    RetailConfig,
    expiration_changes,
    generate_retail,
    insertion_generating_changes,
    retail_view_definitions,
    update_generating_changes,
)

from ..conftest import assert_view_matches_recomputation


def fresh_setup(seed=31, pos_rows=2000):
    data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed))
    views = [
        MaterializedView.build(definition)
        for definition in retail_view_definitions(data.pos)
    ]
    return data, views


WORKLOADS = ["update", "insertion", "expiration"]


def workload_changes(data, workload):
    if workload == "update":
        return update_generating_changes(data.pos, data.config, 250, data.rng)
    if workload == "insertion":
        return insertion_generating_changes(
            data.pos, data.config, 250, data.rng
        )
    return expiration_changes(data.pos, n_oldest_dates=2)


class TestMaintainLattice:
    @pytest.mark.parametrize("use_lattice", [True, False])
    def test_update_generating_changes(self, use_lattice):
        data, views = fresh_setup()
        changes = update_generating_changes(data.pos, data.config, 200, data.rng)
        maintain_lattice(views, changes, use_lattice=use_lattice)
        for view in views:
            assert_view_matches_recomputation(view)

    def test_insertion_generating_changes(self):
        data, views = fresh_setup()
        changes = insertion_generating_changes(data.pos, data.config, 200, data.rng)
        result = maintain_lattice(views, changes)
        for view in views:
            assert_view_matches_recomputation(view)
        # Date-grouped views receive only inserts for new-date changes.
        assert result.stats["SID_sales"].updated == 0
        assert result.stats["SID_sales"].inserted > 0
        assert result.stats["sCD_sales"].updated == 0
        # Date-less views are updated, not extended.
        assert result.stats["sR_sales"].inserted == 0

    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    @pytest.mark.parametrize("variant", list(RefreshVariant))
    def test_policy_variant_matrix(self, policy, variant):
        data, views = fresh_setup(seed=37, pos_rows=1000)
        changes = update_generating_changes(data.pos, data.config, 100, data.rng)
        maintain_lattice(
            views, changes,
            options=PropagateOptions(policy=policy),
            variant=variant,
        )
        for view in views:
            assert_view_matches_recomputation(view)

    def test_propagate_online_refresh_offline(self):
        data, views = fresh_setup(seed=41, pos_rows=500)
        changes = update_generating_changes(data.pos, data.config, 50, data.rng)
        clock = BatchWindowClock()
        maintain_lattice(views, changes, clock=clock)
        for phase in clock.report.phases:
            if phase.name.startswith("propagate"):
                assert not phase.offline
            else:
                assert phase.offline

    def test_mixed_fact_tables_rejected(self):
        data_a, views_a = fresh_setup(seed=43, pos_rows=200)
        data_b, views_b = fresh_setup(seed=44, pos_rows=200)
        changes = update_generating_changes(data_a.pos, data_a.config, 10, data_a.rng)
        with pytest.raises(MaintenanceError, match="multiple fact tables"):
            maintain_lattice(views_a + views_b, changes)

    def test_empty_view_list_rejected(self):
        data, _views = fresh_setup(seed=45, pos_rows=100)
        changes = update_generating_changes(data.pos, data.config, 10, data.rng)
        with pytest.raises(MaintenanceError, match="no views"):
            maintain_lattice([], changes)

    def test_result_surfaces_per_view_deltas_and_stats(self):
        data, views = fresh_setup(seed=47, pos_rows=500)
        changes = update_generating_changes(data.pos, data.config, 50, data.rng)
        result = maintain_lattice(views, changes)
        assert set(result.deltas) == {view.name for view in views}
        assert set(result.stats) == {view.name for view in views}
        assert result.propagate_seconds > 0
        assert result.refresh_seconds > 0


class TestPropagationLevels:
    def test_figure9_retail_lattice_levels(self):
        _data, views = fresh_setup(seed=23)
        lattice = build_lattice_for_views(views)
        levels = propagation_levels(lattice)
        # Level 0 holds exactly the roots; every other node sits one level
        # below its chosen parent, so siblings share a level.
        assert [name for name in levels[0]] == [
            node.name for node in lattice.roots()
        ]
        flat = [name for level in levels for name in level]
        assert sorted(flat) == sorted(lattice.order)
        depth = {
            name: index
            for index, level in enumerate(levels)
            for name in level
        }
        for name in lattice.order:
            node = lattice.node(name)
            if not node.is_root:
                assert depth[name] == depth[node.parent] + 1

    def test_sibling_views_share_a_level(self):
        """The retail lattice's sCD and SiC views both derive from SID."""
        _data, views = fresh_setup(seed=23)
        lattice = build_lattice_for_views(views)
        levels = propagation_levels(lattice)
        parents = {
            name: lattice.node(name).parent for name in lattice.order
        }
        siblings = [
            name for name in lattice.order
            if parents[name] == "SID_sales"
        ]
        if len(siblings) >= 2:  # guard against future lattice re-planning
            (level_of,) = [
                index for index, level in enumerate(levels)
                if siblings[0] in level
            ]
            assert all(name in levels[level_of] for name in siblings)


class TestPropagateLattice:
    def test_clock_records_every_node_online(self):
        data, views = fresh_setup(seed=31, pos_rows=800)
        changes = update_generating_changes(data.pos, data.config, 80, data.rng)
        lattice = build_lattice_for_views(views)
        clock = BatchWindowClock()
        propagate_lattice(lattice, changes, PropagateOptions(), clock)
        recorded = sorted(phase.name for phase in clock.report.phases)
        assert recorded == sorted(
            f"propagate:{name}" for name in lattice.order
        )
        assert all(not phase.offline for phase in clock.report.phases)


    @pytest.mark.parametrize("shared_scan", [False, True])
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_deltas_match_direct_propagation(self, workload, shared_scan):
        """Deriving each child's delta from its D-lattice parent's delta —
        through the fused shared scan or one pipeline per child — equals
        computing every view's delta straight from the change set."""
        data, views = fresh_setup(seed=23)
        changes = workload_changes(data, workload)
        lattice = build_lattice_for_views(views)
        options = PropagateOptions(shared_scan=shared_scan)
        walked = propagate_lattice(lattice, changes, options)
        direct = propagate_without_lattice(
            [view.definition for view in views], changes, options
        )
        assert set(direct) <= set(walked)
        for name, delta in direct.items():
            assert (
                walked[name].table.sorted_rows() == delta.table.sorted_rows()
            ), name

    @pytest.mark.parametrize("shared_scan", [False, True])
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_split_policy_maintains_like_direct_propagation(
        self, workload, shared_scan
    ):
        """Under the SPLIT policy a derived child's insert/delete MIN/MAX
        sides can be sharper than the direct ones: a parent group whose
        insertions and deletions cancel carries no side at all.  The
        deltas may then differ, but the maintained views may not."""
        maintained = {}
        for use_lattice in (True, False):
            data, views = fresh_setup(seed=23)
            changes = workload_changes(data, workload)
            maintain_lattice(
                views, changes,
                options=PropagateOptions(
                    policy=MinMaxPolicy.SPLIT, shared_scan=shared_scan
                ),
                use_lattice=use_lattice,
            )
            for view in views:
                assert_view_matches_recomputation(view)
            maintained[use_lattice] = {
                view.name: view.table.sorted_rows() for view in views
            }
        assert maintained[True] == maintained[False]


class TestPropagateWithoutLattice:
    def test_equals_lattice_propagation(self):
        data, views = fresh_setup(seed=51, pos_rows=1000)
        changes = update_generating_changes(data.pos, data.config, 100, data.rng)
        lattice = build_lattice_for_views(views)
        from repro.lattice import propagate_lattice

        with_lattice = propagate_lattice(lattice, changes)
        without = propagate_without_lattice(
            [view.definition for view in views], changes
        )
        for view in views:
            assert (
                with_lattice[view.name].table.sorted_rows()
                == without[view.name].table.sorted_rows()
            )


class TestRematerializeWithLattice:
    def test_derives_children_from_parents(self):
        data, views = fresh_setup(seed=53, pos_rows=1000)
        # Perturb the base data, then rematerialise through the lattice.
        data.pos.table.insert((1, 1, 1, 5, 1.0))
        data.pos.table.insert((2, 2, 2, 5, 1.0))
        report = rematerialize_with_lattice(views)
        for view in views:
            assert_view_matches_recomputation(view)
        assert report.online_seconds == 0

    def test_stale_views_fully_replaced(self):
        data, views = fresh_setup(seed=57, pos_rows=500)
        views[0].table.truncate()  # corrupt one view entirely
        rematerialize_with_lattice(views)
        for view in views:
            assert_view_matches_recomputation(view)
