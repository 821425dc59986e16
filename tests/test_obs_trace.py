"""Tracer: span trees, events, clocks, and cross-thread propagation."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.queries import UuidQuery
from repro.obs.trace import Tracer, get_tracer, set_tracer, use_tracer
from repro.serve import SearchServer
from repro.serve.executor import SearchExecutor
from repro.util.clock import SimClock
from tests.conftest import event_uuid


class TestSpanTree:
    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in a.children] == ["a1"]
        assert [s.name for s in root.walk()] == ["root", "a", "a1", "b"]
        assert root.find("a1").parent_id == a.span_id
        assert root.parent_id is None

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("q", column="text", k=5) as span:
            span.set("matches", 3)
        assert span.attributes == {"column": "text", "k": 5, "matches": 3}

    def test_find_all(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            for _ in range(3):
                with tracer.span("probe"):
                    pass
        assert len(root.find_all("probe")) == 3
        assert root.find("missing") is None

    def test_events_land_on_innermost_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.record_event("GET", "k1", 10)
            with tracer.span("inner") as inner:
                tracer.record_event("GET", "k2", 20)
        assert [e.key for e in outer.events] == ["k1"]
        assert [e.key for e in inner.events] == ["k2"]
        assert outer.total_requests == 2
        assert outer.total_bytes == 30

    def test_event_without_active_span_is_dropped(self):
        tracer = Tracer()
        tracer.record_event("GET", "k", 1)  # must not raise
        assert tracer.pop_finished() == []

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("x")
        assert span.end_s is not None
        assert tracer.current() is None
        assert tracer.last_root("boom") is span


class TestClockAndLifecycle:
    def test_simclock_durations(self):
        clock = SimClock(start=100.0)
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance(2.5)
        assert span.duration_s == pytest.approx(2.5)
        assert span.start_s == pytest.approx(100.0)

    def test_wall_clock_durations_monotonic(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.duration_s >= 0.0

    def test_finished_ring_and_pop(self):
        tracer = Tracer(keep_finished=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        roots = tracer.pop_finished()
        assert [s.name for s in roots] == ["b", "c"]  # oldest dropped
        assert tracer.pop_finished() == []

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            span.set("k", "v")  # no-op on the null span
            tracer.record_event("GET", "k", 1)
        assert tracer.pop_finished() == []

    def test_use_tracer_scopes_the_global(self):
        original = get_tracer()
        scoped = Tracer()
        with use_tracer(scoped) as active:
            assert active is scoped
            assert get_tracer() is scoped
        assert get_tracer() is original

    def test_set_tracer_returns_previous(self):
        original = get_tracer()
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert previous is original
            assert get_tracer() is mine
        finally:
            set_tracer(original)


class TestCrossThreadPropagation:
    def test_attach_parents_worker_spans(self):
        tracer = Tracer()
        with tracer.span("query") as query_span:
            parent = tracer.current()

            def worker(i: int) -> str:
                with tracer.attach(parent):
                    with tracer.span(f"task-{i}"):
                        tracer.record_event("GET", f"key-{i}", i)
                return threading.current_thread().name

            with ThreadPoolExecutor(max_workers=4) as pool:
                names = list(pool.map(worker, range(8)))
        children = {c.name for c in query_span.children}
        assert children == {f"task-{i}" for i in range(8)}
        for child in query_span.children:
            assert child.parent is query_span
            # Each task recorded its own event on its own span.
            i = int(child.name.split("-")[1])
            assert [e.key for e in child.events] == [f"key-{i}"]
            assert child.thread in names

    def test_attach_none_is_noop(self):
        tracer = Tracer()
        with tracer.attach(None):
            assert tracer.current() is None

    def test_executor_search_spans_cross_threads(self, indexed_client):
        """Satellite: spans from SearchExecutor worker threads parent
        under the right query span with per-thread request traces."""
        tracer = Tracer(clock=indexed_client.store.clock)
        key = event_uuid(1, 7)
        with use_tracer(tracer):
            with SearchExecutor(indexed_client, max_searchers=3) as executor:
                result = executor.search("uuid", UuidQuery(key), k=3)
        assert result.matches
        root = tracer.last_root("search")
        assert root is not None
        assert root.attributes["engine"] == "executor"
        assert root.attributes["searchers"] == 3

        # Phase spans are direct children, on the submitting thread.
        # The exact path runs probe -> claim -> coalesced page reads as
        # one pipelined continuation per index record ("probe").
        phase_names = [c.name for c in root.children]
        assert phase_names[0] == "plan"
        assert "probe" in phase_names

        # Worker task spans hang under phase spans, not the root, and
        # each ran on a searcher pool thread with its own trace.
        tasks = root.find_all("searcher:task")
        assert tasks
        for task in tasks:
            assert task.parent.name in {
                "probe", "probe:index", "probe:pages", "brute_force",
            }
            assert task.thread.startswith("searcher")
            assert task.trace is not None
            assert task.trace.total_requests == len(task.events)
            assert task.attributes["requests"] == task.trace.total_requests

        # Every store request of every phase is attributable: the phase
        # trace's request count equals the events its subtree recorded.
        for phase in root.children:
            if phase.trace is None:
                continue
            assert phase.total_requests == phase.trace.total_requests

    def test_concurrent_roots_stay_separate(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def run(name: str) -> None:
            barrier.wait()
            with tracer.span(name):
                with tracer.span(f"{name}-child"):
                    pass

        threads = [
            threading.Thread(target=run, args=(f"q{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.pop_finished()
        assert {r.name for r in roots} == {"q0", "q1"}
        for root in roots:
            assert [c.name for c in root.children] == [f"{root.name}-child"]


class TestDefaultTracerRetention:
    """The process-default tracer pins no span trees; installed ones do."""

    QUERIES = 12

    def _serve(self, client):
        with SearchServer(client, max_searchers=2) as server:
            for i in range(self.QUERIES):
                server.query("uuid", UuidQuery(event_uuid(1, i)), k=1)

    def test_default_tracer_keeps_no_finished_roots(self, indexed_client):
        self._serve(indexed_client)
        assert list(get_tracer().finished) == []

    def test_installed_tracer_returns_every_root(self, indexed_client):
        tracer = Tracer()
        with use_tracer(tracer):
            self._serve(indexed_client)
        roots = tracer.pop_finished()
        assert [r.name for r in roots] == ["serve.query"] * self.QUERIES
        assert tracer.pop_finished() == []
