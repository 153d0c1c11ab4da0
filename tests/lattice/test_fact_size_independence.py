"""Propagate cost does not depend on the fact table's size.

The paper's first promise for the summary-delta method (§4.1): propagate
reads only the deferred change set and the dimension tables, never the
fact table, so the same change set costs the same tuple accesses whether
``pos`` holds 4k or 64k rows.  One fixed change set per workload, generated
on the 4k data, is propagated through retail warehouses of three sizes
built from the same seed; the access counters must be identical at every
size, on the shipped default path and on the per-shard path over a
date-partitioned fact table.  The workloads are the paper's 400-row update
changes, 400 insertions over new dates, and the expiration of the three
oldest days (deletions only, the MIN/MAX-heavy case).
"""

import pytest

from repro.core import PropagateOptions
from repro.lattice import build_lattice_for_views, propagate_lattice
from repro.relational import measuring
from repro.warehouse.partition import partition_fact, propagate_partitioned
from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    expiration_changes,
    generate_retail,
    insertion_generating_changes,
    update_generating_changes,
)

SIZES = (4_000, 16_000, 64_000)
SEED = 41


@pytest.fixture(scope="module")
def warehouses():
    """(pos rows, fact, views) per size, plus one shared change set per
    workload."""
    built = []
    for pos_rows in SIZES:
        data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=SEED))
        warehouse = build_retail_warehouse(data)
        built.append((pos_rows, data, warehouse.views_over("pos")))
    smallest = built[0][1]
    changes = {
        "update": update_generating_changes(
            smallest.pos, smallest.config, 400, smallest.rng
        ),
        "insertion": insertion_generating_changes(
            smallest.pos, smallest.config, 400, smallest.rng
        ),
        "expiration": expiration_changes(smallest.pos, n_oldest_dates=3),
    }
    return built, changes


def measured_run(propagate):
    with measuring() as stats:
        deltas = propagate()
    return (
        stats.snapshot().as_dict(),
        {name: delta.table.sorted_rows() for name, delta in deltas.items()},
    )


def assert_size_independent(runs):
    (first_size, (first_access, first_deltas)), *rest = runs
    assert first_access["total"] > 0
    for size, (access, deltas) in rest:
        assert access == first_access, (first_size, size)
        assert deltas == first_deltas, (first_size, size)


WORKLOADS = ["update", "insertion", "expiration"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_propagate_cost_is_independent_of_fact_size(
    warehouses, workload
):
    built, all_changes = warehouses
    changes = all_changes[workload]
    assert changes.size() > 0
    runs = []
    for pos_rows, data, views in built:
        assert len(data.pos.table) == pos_rows
        lattice = build_lattice_for_views(views)
        runs.append((pos_rows, measured_run(
            lambda: propagate_lattice(lattice, changes, PropagateOptions())
        )))
    assert_size_independent(runs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_partitioned_propagate_cost_is_independent_of_fact_size(
    warehouses, workload
):
    built, all_changes = warehouses
    changes = all_changes[workload]
    runs = []
    for pos_rows, data, views in built:
        lattice = build_lattice_for_views(views)
        partitioned = partition_fact(data.pos)
        runs.append((pos_rows, measured_run(
            lambda: propagate_partitioned(
                lattice, partitioned, changes, PropagateOptions()
            )
        )))
        assert partitioned.last_shard_count > 1
    assert_size_independent(runs)
