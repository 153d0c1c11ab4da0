"""The span recorder: nesting, threading, kill-switch, no-op path."""

import threading

import pytest

from repro.obs.tracing import (
    NOOP_SPAN,
    NullRecorder,
    Span,
    TraceRecorder,
    current_span,
    enabled,
    install_recorder,
    span,
    trace,
    trace_kill_switch,
)


class TestSpan:
    def test_counters_accumulate(self):
        s = Span("x")
        s.add("rows", 3)
        s.add("rows", 4)
        s.add("other")
        assert s.counters == {"rows": 7, "other": 1}

    def test_tags(self):
        s = Span("x", tags={"a": 1})
        s.set_tag("b", 2)
        assert s.tags == {"a": 1, "b": 2}

    def test_seconds_monotonic_and_frozen_at_finish(self):
        s = Span("x")
        first = s.seconds
        s.finish()
        frozen = s.seconds
        assert frozen >= first >= 0.0
        assert s.seconds == frozen  # does not keep growing

    def test_walk_find_and_total_counter(self):
        recorder = TraceRecorder()
        with recorder.span("a") as a:
            a.add("rows", 1)
            with recorder.span("b") as b:
                b.add("rows", 2)
            with recorder.span("b") as b2:
                b2.add("rows", 4)
        names = [s.name for s in recorder.root.walk()]
        assert names == ["trace", "a", "b", "b"]
        assert recorder.root.find("b").counters["rows"] == 2
        assert len(recorder.root.find_all("b")) == 2
        assert recorder.root.total_counter("rows") == 7


class TestRecorder:
    def test_spans_nest_on_one_thread(self):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        (outer,) = recorder.root.children
        assert outer.name == "outer"
        assert [child.name for child in outer.children] == ["inner"]

    def test_error_tagged_on_exception(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("x")
        (boom,) = recorder.root.children
        assert boom.tags["error"] == "ValueError"
        assert boom.ended is not None

    def test_worker_thread_spans_attach_to_root_by_default(self):
        recorder = TraceRecorder()

        def worker():
            with recorder.span("from-worker"):
                pass

        with recorder.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert {c.name for c in recorder.root.children} == {
            "main-span", "from-worker",
        }

    def test_finish_closes_root(self):
        recorder = TraceRecorder()
        root = recorder.finish()
        assert root.ended is not None


class TestModuleLevelApi:
    def test_off_by_default(self):
        assert not enabled()
        assert current_span() is None
        assert span("anything") is NOOP_SPAN

    def test_trace_block_records(self):
        with trace() as recorder:
            assert enabled()
            with span("inside") as s:
                s.add("rows", 5)
                assert current_span() is s
        assert not enabled()
        assert recorder.root.find("inside").counters["rows"] == 5

    def test_nested_trace_blocks_share_the_outer_recorder(self):
        with trace() as outer:
            with trace() as inner:
                assert inner is outer
                with span("deep"):
                    pass
            assert enabled()  # inner exit must not tear down the outer block
            assert outer.root.find("deep") is not None
        assert not enabled()

    def test_noop_span_absorbs_the_api(self):
        with NOOP_SPAN as s:
            s.add("rows", 5)
            s.set_tag("k", "v")
        assert NOOP_SPAN.seconds == 0.0


class TestKillSwitch:
    def test_kill_switch_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert trace_kill_switch()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert not trace_kill_switch()
        monkeypatch.delenv("REPRO_TRACE")
        assert not trace_kill_switch()

    def test_trace_block_is_inert_under_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        with trace() as recorder:
            assert isinstance(recorder, NullRecorder)
            assert not enabled()
            assert span("ignored") is NOOP_SPAN
        assert recorder.spans("ignored") == []

    def test_install_recorder_refuses_under_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        installed = install_recorder(TraceRecorder())
        assert isinstance(installed, NullRecorder)
        assert not enabled()
