"""SearchServer: admission control, dedup, warmup, ServeStats."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.core.queries import UuidQuery
from repro.errors import SimulatedCrash
from repro.storage.faults import FaultyObjectStore
from repro.errors import ServeError, ServerOverloaded
from repro.indices.uuid_trie import UuidTrieBuilder
from repro.lake.table import LakeTable
from repro.obs.metrics import get_registry
from repro.serve import CachingObjectStore, SearchServer, ServeStats, SingleFlight
from repro.serve.server import _percentile
from repro.storage.retry import RetryingObjectStore
from repro.tco.throughput import ThroughputModel

from tests.conftest import event_uuid


# -- SingleFlight -----------------------------------------------------


class TestSingleFlight:
    def test_sequential_calls_each_lead(self):
        sf = SingleFlight()
        assert sf.do("k", lambda: 1) == 1
        assert sf.do("k", lambda: 2) == 2  # prior flight landed
        assert sf.leaders == 2 and sf.shared == 0
        assert sf.in_flight() == 0

    def test_concurrent_calls_share_one_execution(self):
        sf = SingleFlight()
        started, release = threading.Event(), threading.Event()
        calls = []

        def work():
            calls.append(1)
            started.set()
            assert release.wait(timeout=5)
            return "answer"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(sf.do_detailed("k", work)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        assert started.wait(timeout=5)
        deadline = time.monotonic() + 5
        while sf.shared < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert len(calls) == 1  # the work ran exactly once
        assert sorted(r[1] for r in results) == [False, True, True, True]
        assert all(r[0] == "answer" for r in results)
        assert sf.leaders == 1 and sf.shared == 3

    def test_leader_exception_propagates_to_sharers(self):
        sf = SingleFlight()
        started, release = threading.Event(), threading.Event()

        def boom():
            started.set()
            assert release.wait(timeout=5)
            raise ValueError("leader failed")

        outcomes = []

        def caller():
            try:
                sf.do("k", boom)
                outcomes.append("ok")
            except ValueError:
                outcomes.append("raised")

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for t in threads:
            t.start()
        assert started.wait(timeout=5)
        deadline = time.monotonic() + 5
        while sf.shared < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert outcomes == ["raised"] * 3

    def test_distinct_keys_do_not_share(self):
        sf = SingleFlight()
        assert sf.do("a", lambda: "a") == "a"
        assert sf.do("b", lambda: "b") == "b"
        assert sf.leaders == 2 and sf.shared == 0


# -- ServeStats -------------------------------------------------------


class TestServeStats:
    def test_percentiles_nearest_rank(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([0.4, 0.1, 0.3, 0.2, 0.5], 0.5) == 0.3
        stats = ServeStats()
        for latency in (0.4, 0.1, 0.3, 0.2, 0.5):
            stats.observe_latency(latency)
        assert stats.p50_s == pytest.approx(0.3, rel=0.02)
        assert stats.p99_s == pytest.approx(0.5, rel=0.02)
        assert stats.percentile(0.0) == pytest.approx(0.1, rel=0.02)
        assert stats.mean_latency_s == pytest.approx(0.3)
        assert stats.first_latency_s == 0.4
        assert stats.last_latency_s == 0.5

    def test_qps_estimate_littles_law(self):
        stats = ServeStats()
        stats.observe_latency(0.5)
        stats.observe_latency(0.5)
        assert stats.qps_estimate(8) == pytest.approx(16.0)
        assert ServeStats().qps_estimate(8) == 0.0

    def test_latency_memory_is_bounded(self):
        # The whole point of the sketch: per-query state stays O(1) no
        # matter how many queries flow through the server.
        stats = ServeStats()
        for i in range(50_000):
            stats.observe_latency(1e-4 * (1 + i % 997))
        assert stats.latency_count == 50_000
        assert stats.latency_sketch.bin_count <= stats.latency_sketch.max_bins
        assert stats.p99_s > stats.p50_s > 0

    def test_throughput_model_uses_measured_rpq(self):
        stats = ServeStats(queries=10, total_requests=250)
        assert stats.requests_per_query == 25.0
        model = stats.throughput_model()
        assert model.rottnest_requests_per_query == 25.0
        base = ThroughputModel()
        assert model.prefix_get_rps == base.prefix_get_rps
        # No data: the paper's assumed constant is kept.
        empty = ServeStats().throughput_model()
        assert (
            empty.rottnest_requests_per_query
            == base.rottnest_requests_per_query
        )

    def test_describe_mentions_everything(self):
        stats = ServeStats(queries=3, deduplicated=1)
        stats.observe_latency(0.2)
        text = stats.describe(max_inflight=4)
        assert "queries served" in text
        assert "1 deduplicated" in text
        assert "QPS ceiling" in text


# -- SearchServer -----------------------------------------------------


def _serving_stack(indexed_client, **kwargs):
    cached = CachingObjectStore(indexed_client.store)
    lake = LakeTable.open(cached, indexed_client.lake.root)
    client = RottnestClient(cached, indexed_client.index_dir, lake)
    return SearchServer(client, **kwargs)


def _gate_executor(server):
    """Make the server's executor block until released; returns the
    (started, release) events."""
    real = server.executor.search
    started, release = threading.Event(), threading.Event()

    def gated(*args, **kwargs):
        started.set()
        assert release.wait(timeout=10)
        return real(*args, **kwargs)

    server.executor.search = gated
    return started, release


class TestSearchServer:
    def test_basic_query(self, indexed_client):
        with _serving_stack(indexed_client) as server:
            result = server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
            assert len(result.matches) == 1
            assert server.stats.queries == 1
            assert server.stats.total_requests > 0
            assert server.stats.first_latency_s > 0

    def test_results_match_plain_client(self, indexed_client):
        query = UuidQuery(event_uuid(2, 9))
        expected = indexed_client.search("uuid", query, k=3)
        with _serving_stack(indexed_client) as server:
            got = server.query("uuid", query, k=3)
        assert [(m.file, m.row) for m in got.matches] == [
            (m.file, m.row) for m in expected.matches
        ]

    def test_shed_on_overload(self, indexed_client):
        server = _serving_stack(
            indexed_client, max_inflight=1, shed_on_overload=True
        )
        with server:
            started, release = _gate_executor(server)
            query = UuidQuery(event_uuid(1, 5))
            worker = threading.Thread(
                target=lambda: server.query("uuid", query, k=3)
            )
            worker.start()
            assert started.wait(timeout=5)
            with pytest.raises(ServerOverloaded):
                server.query("uuid", UuidQuery(event_uuid(1, 6)), k=3)
            assert server.stats.rejected == 1
            release.set()
            worker.join(timeout=10)
            assert server.stats.queries == 1

    def test_blocking_admission_queues_instead(self, indexed_client):
        server = _serving_stack(indexed_client, max_inflight=1)
        with server:
            results = []
            query = UuidQuery(event_uuid(1, 5))

            def go(i):
                results.append(
                    server.query("uuid", UuidQuery(event_uuid(1, i)), k=3)
                )

            threads = [threading.Thread(target=go, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(results) == 4
            assert server.stats.rejected == 0

    def test_identical_inflight_queries_deduplicate(self, indexed_client):
        server = _serving_stack(indexed_client, max_inflight=4)
        with server:
            started, release = _gate_executor(server)
            query = UuidQuery(event_uuid(1, 5))
            results = []

            def go():
                results.append(server.query("uuid", query, k=3))

            threads = [threading.Thread(target=go) for _ in range(3)]
            for t in threads:
                t.start()
            assert started.wait(timeout=5)
            deadline = time.monotonic() + 5
            while server._flights.shared < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            for t in threads:
                t.join(timeout=10)
            assert server.stats.queries == 3
            assert server.stats.deduplicated == 2
            first = [(m.file, m.row) for m in results[0].matches]
            assert all(
                [(m.file, m.row) for m in r.matches] == first for r in results
            )

    def test_warmup_preloads_hot_path(self, indexed_client):
        with _serving_stack(indexed_client) as server:
            assert server.warmup() == 3  # one index file per column
            cache = server.stats.cache
            warmed_misses = cache.misses
            server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
            # The query's metadata/index-tail reads hit the warm cache.
            assert cache.hits > 0
            assert cache.misses - warmed_misses < warmed_misses
            assert server.stats.cache_hit_rate > 0

    def test_for_lake_assembles_full_stack(self, indexed_client):
        server = SearchServer.for_lake(
            indexed_client.store,
            indexed_client.index_dir,
            indexed_client.lake.root,
            cache_budget_bytes=32 << 20,
            max_searchers=2,
        )
        with server:
            assert isinstance(server.client.store, CachingObjectStore)
            assert server.client.store.budget_bytes == 32 << 20
            result = server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
            assert len(result.matches) == 1
            assert server.stats.cache is server.client.store.cache_stats

    def test_finds_cache_stats_through_wrapper_chain(self, indexed_client):
        cached = CachingObjectStore(indexed_client.store)
        retrying = RetryingObjectStore(cached)
        lake = LakeTable.open(retrying, indexed_client.lake.root)
        client = RottnestClient(retrying, indexed_client.index_dir, lake)
        with SearchServer(client) as server:
            assert server.stats.cache is cached.cache_stats
        # And without a cache anywhere in the chain: stats stay None.
        bare = RottnestClient(
            indexed_client.store, indexed_client.index_dir, indexed_client.lake
        )
        with SearchServer(bare) as server:
            assert server.stats.cache is None
            assert server.stats.cache_hit_rate == 0.0

    def test_invalid_max_inflight(self, indexed_client):
        with pytest.raises(ServeError):
            SearchServer(indexed_client, max_inflight=0)


class TestDegradedServing:
    """Brute-force fallback when an index component read fails mid-query."""

    def _faulty_server(self, indexed_client):
        faulty = FaultyObjectStore(indexed_client.store)
        lake = LakeTable.open(faulty, indexed_client.lake.root)
        client = RottnestClient(faulty, indexed_client.index_dir, lake)
        return faulty, SearchServer(client, max_searchers=2)

    def test_index_read_failure_degrades_to_identical_answer(
        self, indexed_client
    ):
        faulty, server = self._faulty_server(indexed_client)
        query = UuidQuery(event_uuid(1, 5))
        with server:
            clean = server.query("uuid", query, k=3)
            assert server.stats.degraded == 0
            faulty.fail_next("GET", ".index")
            degraded = server.query("uuid", query, k=3)
            assert server.stats.degraded == 1
            assert [(m.file, m.row, bytes(m.value)) for m in degraded.matches] \
                == [(m.file, m.row, bytes(m.value)) for m in clean.matches]
            # Degraded mode planned no indices: pure scan.
            assert degraded.stats.index_files_queried == 0
            assert degraded.stats.files_brute_forced > 0

    @pytest.mark.parametrize("damage", ["lut", "leaf_starts"])
    def test_malformed_trie_degrades_to_oracle_answer(self, indexed_client, damage):
        """A stored trie with a bad LUT, or without its leaf starts,
        raises FormatError on probe; the server answers by scanning."""
        client = indexed_client
        for record in client.meta.records():
            if record.index_type != "uuid_trie":
                continue
            reader = IndexFileReader.open(client.store, record.index_key)
            writer = IndexFileWriter(
                reader.index_type, reader.column, reader.directory, params=reader.params
            )
            add = writer.add_component
            if damage == "lut":
                writer.add_component = lambda name, data, **kw: add(
                    name, data[:-4] if name == "lut" else data, **kw
                )
            UuidTrieBuilder.load(reader).write(writer)
            if damage == "leaf_starts":
                del writer.params["leaf_starts"]
            client.store.put(record.index_key, writer.finish())
        key = event_uuid(1, 5)  # row 5 of the first appended file, only there
        first_file = client.lake.snapshot().file_paths[0]
        degraded_total = get_registry().get("serve_degraded_queries_total")
        before = degraded_total.value()
        with SearchServer(client, max_searchers=2) as server:
            result = server.query("uuid", UuidQuery(key), k=3)
            assert server.stats.degraded == 1
        assert degraded_total.value() == before + 1
        assert [(m.file, m.row, bytes(m.value)) for m in result.matches] == [
            (first_file, 5, key)
        ]

    def test_degraded_queries_counted_per_failure_not_forever(
        self, indexed_client
    ):
        faulty, server = self._faulty_server(indexed_client)
        query = UuidQuery(event_uuid(2, 17))
        with server:
            faulty.fail_next("GET", ".index")
            server.query("uuid", query, k=2)
            assert server.stats.degraded == 1
            # The fault was one-shot: the next query is served normally.
            healthy = server.query("uuid", query, k=2)
            assert server.stats.degraded == 1
            assert healthy.stats.index_files_queried > 0

    def test_simulated_crash_is_not_masked_as_degradation(
        self, indexed_client
    ):
        """SimulatedCrash is a chaos-harness signal, not a store fault;
        the serve layer must let it out instead of retrying around it."""
        faulty, server = self._faulty_server(indexed_client)
        with server:
            # Searches never mutate, so hit the one GET-adjacent seam we
            # can: a crash_after rule on mutations plus an index() call
            # through the same store (sanity that the exception escapes
            # wrapper layers unchanged).
            faulty.crash_after("PUT")
            with pytest.raises(SimulatedCrash):
                # "bloom" on uuid is the one index the fixture hasn't
                # built yet, so this actually uploads (and crashes).
                server.client.index("uuid", "bloom")
            assert server.stats.degraded == 0
