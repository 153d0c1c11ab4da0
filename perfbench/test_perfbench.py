"""Self-tests of the benchmark at a small scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import threading
from pathlib import Path

import pytest

import layers
import nightly
import run as bench

bench.add_source_path()

ROOT = Path(__file__).resolve().parent.parent
SMALL = dict(pos_rows=20_000, changes=1_000)


def small_run(workload: str = "update_10k", trace: bool = True,
              seed: int = 3) -> nightly.RunResult:
    """A run with no measuring time: one measured cycle, plus one traced
    cycle when *trace*."""
    return nightly.run(nightly.RunConfig(
        workload=workload, seed=seed, seconds=0, trace=trace, **SMALL))


def cycle_breakdown(tracer: layers.LayerTracer, cycle: int,
                    thread: int) -> dict[str, float]:
    """Self seconds per layer of one traced cycle on the maintenance
    *thread*, plus ``window`` (the whole cycle) and ``uncovered`` (the
    window's own self time: what no layer span accounts for)."""
    breakdown: dict[str, float] = {}
    for span in tracer.spans:
        if span.cycle != cycle or span.thread != thread:
            continue
        if span.layer == "window":
            breakdown["window"] = span.seconds
            breakdown["uncovered"] = span.self_s
        else:
            breakdown[span.layer] = (
                breakdown.get(span.layer, 0.0) + span.self_s)
    return breakdown


def traced_breakdown(monkeypatch):
    """Run a small traced run; return its traced cycle's breakdown and the
    run's result."""
    tracers = []
    original = layers.LayerTracer.__init__

    def keep(self):
        original(self)
        tracers.append(self)

    monkeypatch.setattr(layers.LayerTracer, "__init__", keep)
    result = small_run(trace=True)
    assert result.correct, result.failures
    (tracer,) = tracers
    (cycle,) = {span.cycle for span in tracer.spans if span.layer == "window"}
    return cycle_breakdown(tracer, cycle, threading.get_ident()), result


def test_layer_self_times_sum_to_the_covered_window(monkeypatch):
    breakdown, result = traced_breakdown(monkeypatch)
    window = breakdown.pop("window")
    uncovered = breakdown.pop("uncovered")
    assert sum(breakdown.values()) == pytest.approx(window - uncovered)
    assert all(seconds >= 0 for seconds in breakdown.values())
    assert {"views.copy", "views.validate", "core.refresh",
            "lattice.propagate", "warehouse.apply_base"} <= set(breakdown)
    coverage = result.metrics["trace.coverage"]
    assert 0.9 <= coverage <= 1.0
    assert result.metrics["trace.overhead"] > 0


def test_layer_counts_repeat_exactly_for_a_fixed_seed():
    counted = ("views.copy_rows", "core.recompute_groups",
               "lattice.propagate_units", "lattice.delta_rows")
    first, second = small_run(), small_run()
    assert first.correct and second.correct
    for name in counted:
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["core.recompute_groups"] > 0
    assert first.metrics["views.copy_rows"] > 0


def test_insertions_recompute_nothing():
    result = small_run("insert_10k")
    assert result.correct, result.failures
    assert result.metrics["core.recompute_groups"] == 0
    assert result.metrics["core.recompute_ms"] == 0


def test_untraced_run_installs_no_wrappers(monkeypatch):
    from repro.lattice import plan
    from repro.views.materialize import MaterializedView

    installs = []
    original_installed = layers.LayerTracer.installed

    def counting(self):
        installs.append(self)
        return original_installed(self)

    monkeypatch.setattr(layers.LayerTracer, "installed", counting)
    originals = (plan.propagate_lattice, plan.apply_refresh,
                 MaterializedView.__dict__["publish"])
    result = small_run("serve_update", trace=False)
    assert result.correct, result.failures
    assert installs == []
    assert set(result.metrics) == set(bench.END_TO_END)
    assert set(result.read_figures) == set(bench.READ_FIGURES)
    assert result.read_samples > 0
    assert (plan.propagate_lattice, plan.apply_refresh,
            MaterializedView.__dict__["publish"]) == originals


def test_traced_run_restores_the_entry_points():
    from repro.lattice import plan

    before = plan.propagate_lattice
    small_run(trace=True)
    assert plan.propagate_lattice is before


def test_gate_counts_a_corrupted_view_as_failed(monkeypatch):
    def corrupt_after_cycles(self):
        table = self.warehouse.views["sR_sales"].table
        slot = next(iter(table.iter_live()))[0]
        row = table.row_at(slot)
        table.update_slot(slot, row[:-1] + (row[-1] + 1,))
        return original_gate(self)

    original_gate = nightly.Nightly.gate
    monkeypatch.setattr(nightly.Nightly, "gate", corrupt_after_cycles)
    result = small_run(trace=False)
    assert not result.correct
    assert result.failed >= 1


def test_every_declared_metric_is_reported_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == bench.END_TO_END
    traced = small_run(trace=True)
    assert set(traced.metrics) == set(per_layer)
    for name, unit in per_layer.items():
        assert bench.layer_unit(name) == unit, name
    assert {w["name"] for w in declared["workloads"]} <= set(nightly.WORKLOADS)


def test_command_prints_the_result_last(monkeypatch, capsys):
    monkeypatch.setattr(bench, "RunConfig",
                        functools.partial(nightly.RunConfig, **SMALL))
    code = bench.main(["--workload", "insert_10k", "--seed", "5",
                       "--seconds", "0", "--trace", "0"])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(bench.END_TO_END)
    assert all(metric["value"] > 0 for metric in last["metrics"].values())


def test_base_evaluation_matches_the_view_definitions():
    from repro.views.materialize import compute_rows
    from repro.workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
    )

    data = generate_retail(RetailConfig(pos_rows=5_000, seed=7))
    warehouse = build_retail_warehouse(data)
    views, _answers = nightly.evaluate_base(data)
    for name, view in warehouse.views.items():
        width, columns = nightly.VIEW_COLUMNS[name]
        assert view.table.schema.columns == columns
        recomputed = compute_rows(view.definition).rows()
        assert {row[:width]: row[width:] for row in recomputed} == views[name]


def test_a_run_measures_the_workloads_cycle_count():
    result = nightly.run(nightly.RunConfig(
        workload="insert_10k", seed=4, seconds=600, trace=False, **SMALL))
    assert result.correct, result.failures
    # Attempted: the measured cycles (not the warm-up), the reads, and the
    # gate's four views and four dashboard answers.
    cycles = result.attempted - result.read_samples - 8
    assert cycles == nightly.WORKLOADS["insert_10k"].cycles


def test_nested_calls_of_one_layer_record_one_span():
    tracer = layers.LayerTracer()

    def inner():
        return {}

    inner_timed = tracer._timed("lattice.propagate", inner,
                                lambda: None, lambda result: 1)

    def outer():
        return inner_timed()

    tracer._timed("lattice.propagate", outer, lambda: None,
                  lambda result: 1)()
    assert [span.layer for span in tracer.spans] == ["lattice.propagate"]


def test_command_refuses_to_run_without_the_program(monkeypatch, capsys):
    # As if perfbench/ sat in a directory without the program's src/.
    monkeypatch.setattr(bench, "__file__",
                        str(ROOT / "missing" / "perfbench" / "run.py"))
    code = bench.main(["--workload", "update_10k", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
