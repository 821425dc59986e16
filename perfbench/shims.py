"""Span recording and the shims that feed it, for the traced run.

The traced run never edits the program: :class:`Shims` swaps public
entry points of each layer (class methods and module-level names) for
wrappers that open a span or bump a counter, and puts the originals
back on :meth:`Shims.uninstall`.

* A span records name, start, end, parent span and the id of the
  benchmark operation (query, ingest batch, drain, compaction) it ran
  under. Spans live in memory and are written out at the end of a run.
* Calls too frequent for a span each (page decodes, metric updates,
  cache lookups) only add to per-thread counters keyed the same way.
* Worker threads learn their parent span and operation from the shim
  around ``TracedPool.run``, which wraps every task it is handed.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layer of every span name, for self time. Names follow "<area>.<what>";
#: areas that are not layers of their own map onto the layer module.
LAYER_OF_AREA = {
    "storage": "storage",
    "pool": "storage",
    "formats": "formats",
    "lake": "lake",
    "meta": "meta",
    "core": "core",
    "index_file": "core",
    "indices": "indices",
    "serve": "serve",
    "obs": "obs",
    "ingest": "ingest",
    "maintain": "maintain",
    "bench": "bench",
}
LAYERS = (
    "storage", "formats", "lake", "meta", "core", "indices",
    "serve", "obs", "ingest", "maintain", "bench",
)

#: Per-layer metric -> the shim whose records it is computed from.
METRIC_SHIMS = {
    "indices.probe_ms_per_query": "indices.candidate_pages",
    "indices.candidate_pages_per_query": "indices.candidate_pages",
    "indices.useful_page_frac": "search.result_stats",
    "indices.build_ms_per_krow": "indices.build",
    "index_file.open_ms_per_query": "index_file.open",
    "index_file.components_read_per_query": "index_file.component",
    "formats.footer_parses_per_query": "formats.parse_footer",
    "formats.footer_ms_per_query": "formats.footer",
    "formats.scan_ms_per_query": "formats.scan",
    "formats.values_decoded_per_query": "formats.decode_page",
    "formats.pages_decoded_per_query": "formats.decode_page",
    "formats.page_fetch_ms_per_query": "formats.fetch_pages",
    "lake.snapshot_ms_per_query": "lake.snapshot",
    "lake.log_versions_read_per_query": "lake.log_read",
    "lake.dv_ms_per_query": "lake.deletion_vector",
    "meta.records_ms_per_query": "meta.records",
    "meta.log_reads_per_query": "meta.log_read",
    "pool.run_ms_per_query": "pool.run",
    "pool.tasks_per_query": "pool.run",
    "pool.single_task_run_frac": "pool.run",
    "serve.overhead_ms_per_query": "serve.query",
    "serve.cache_hit_rate": "serve.cache_stats",
    "serve.cache_evictions_per_query": "serve.cache_stats",
    "serve.dedup_frac": "serve.singleflight",
    "serve.degraded_frac": "search.result_stats",
    "obs.attribute_ms_per_query": "obs.attribute",
    "obs.flight_record_ms_per_query": "obs.flight_record",
    "obs.metric_ops_per_query": "obs.metric_op",
    "obs.metrics_ms_per_query": "obs.metric_op",
    "storage.gets_per_query": "storage.request",
    "storage.lists_per_query": "storage.request",
    "storage.bytes_read_per_query": "storage.request",
    "storage.coalesce_factor": "storage.plan_reads",
    "ingest.ack_p50_ms": "ingest.ingest",
    "ingest.ack_p95_ms": "ingest.ingest",
    "ingest.wal_append_ms_per_batch": "ingest.wal_append",
    "ingest.fresh_probe_ms_per_query": "ingest.search_fresh",
    "ingest.drain_ms_per_drain": "ingest.drain",
    "maintain.index_ms_per_run": "maintain.index",
    "maintain.compact_ms_per_run": "maintain.compact",
    "maintain.bytes_rewritten_per_user_byte": "storage.request",
}
for _layer in LAYERS:
    METRIC_SHIMS[f"self.{_layer}_ms_per_query"] = "bench.op"
for _name in ("trace.qps_untraced", "trace.qps_traced", "trace.overhead_frac"):
    METRIC_SHIMS[_name] = "bench.op"
PER_LAYER_METRICS = tuple(METRIC_SHIMS)


class SpanRecorder:
    """In-memory spans plus per-thread counters for one traced phase."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id, op id)
        self.spans: list[tuple] = []
        self.ops: dict[int, str] = {}  # op id -> kind
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._counters: list[dict] = []
        self._lock = threading.Lock()

    # -- per-thread context --------------------------------------------
    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []  # (span id, name)
            tls.op = None
            tls.counts = defaultdict(float)
            with self._lock:
                self._counters.append(tls.counts)
        return tls

    def context(self):
        """The calling thread's (current span, op id), for hand-off."""
        tls = self._state()
        return (tls.stack[-1] if tls.stack else None), tls.op

    @contextmanager
    def adopt(self, context):
        """Run under another thread's span and operation."""
        tls = self._state()
        parent, op = context
        saved_stack, saved_op = tls.stack, tls.op
        tls.stack = [parent] if parent is not None else []
        tls.op = op
        try:
            yield
        finally:
            tls.stack, tls.op = saved_stack, saved_op

    def current_name(self) -> str | None:
        tls = self._state()
        return tls.stack[-1][1] if tls.stack else None

    # -- recording -----------------------------------------------------
    @contextmanager
    def op(self, kind: str):
        """One benchmark operation: the root span every layer span of
        it hangs under."""
        tls = self._state()
        op_id = next(self._ids)
        self.ops[op_id] = kind
        saved = tls.op
        tls.op = op_id
        try:
            with self.span(f"bench.{kind}"):
                yield op_id
        finally:
            tls.op = saved

    @contextmanager
    def span(self, name: str):
        tls = self._state()
        stack = tls.stack
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, tls.op))

    def add(self, name: str, amount: float = 1.0) -> None:
        """Bump counter ``name`` of the calling thread's operation."""
        tls = self._state()
        tls.counts[(self.ops.get(tls.op), name)] += amount

    def counts(self) -> dict:
        """Counters of every thread, summed, keyed (op kind, name)."""
        total: dict = defaultdict(float)
        with self._lock:
            for counts in self._counters:
                for key, value in list(counts.items()):
                    total[key] += value
        return total

    # -- analysis ------------------------------------------------------
    def span_totals(self, kind: str) -> dict[str, list[float]]:
        """Durations (s) of each span name under operations of ``kind``."""
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, _, op_id in self.spans:
            if self.ops.get(op_id) == kind:
                out[name].append(end - start)
        return out

    def self_time_by_layer(self, kind: str) -> dict[str, float]:
        """Seconds of self time per layer under operations of ``kind``:
        a span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, op_id in self.spans:
            if self.ops.get(op_id) != kind:
                continue
            covered = _covered(children.get(span_id, ()), start, end)
            layer = LAYER_OF_AREA.get(name.split(".", 1)[0], "bench")
            out[layer] += max(0.0, (end - start) - covered)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as f:
            for span_id, name, start, end, parent, op_id in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                            "op_kind": self.ops.get(op_id),
                        }
                    )
                    + "\n"
                )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Shims:
    """Installs and removes the wrappers around each layer's entry points."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.installed: dict[str, list[str]] = defaultdict(list)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patch helpers -------------------------------------------------
    def _patch(self, shim: str, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; class
        attributes keep their classmethod/staticmethod kind."""
        target = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(target)
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)
        self.installed[shim].append(target)

    def _span(self, shim: str, owner, attr: str) -> None:
        rec = self.rec

        def make(fn):
            def wrapper(*args, **kwargs):
                with rec.span(shim):
                    return fn(*args, **kwargs)

            return wrapper

        self._patch(shim, owner, attr, make)

    def _count(self, shim: str, owner, attr: str, counter: str | None = None) -> None:
        rec = self.rec
        counter = counter or shim

        def make(fn):
            def wrapper(*args, **kwargs):
                rec.add(counter)
                return fn(*args, **kwargs)

            return wrapper

        self._patch(shim, owner, attr, make)

    def _timed_count(self, shim: str, owner, attr: str) -> None:
        """Count calls and their seconds without a span each."""
        rec = self.rec

        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.add(shim + ".s", time.perf_counter() - start)
                    rec.add(shim)

            return wrapper

        self._patch(shim, owner, attr, make)

    # -- install -------------------------------------------------------
    def install(self) -> "Shims":
        """Wrap every layer's entry points (idempotent per instance)."""
        if self._saved:
            return self
        from repro.core import client as core_client
        from repro.core.index_file import IndexFileReader
        from repro.formats import page_reader, reader as formats_reader
        from repro.formats.reader import ParquetFile
        from repro.indices.base import builder_for, querier_for, registered_types
        from repro.ingest.drain import IngestDrainer
        from repro.ingest.tier import IngestTier
        from repro.ingest.wal import WriteAheadLog
        from repro.lake.log import TransactionLog
        from repro.lake.table import LakeTable
        from repro.maintain.pipeline import MaintenancePipeline
        from repro.meta.metadata_table import MetadataTable
        from repro.obs import metrics, timeseries
        from repro.obs.flight import FlightRecorder
        from repro.serve import executor as serve_executor
        from repro.serve import server as serve_server
        from repro.serve.cache import CacheStats
        from repro.serve.singleflight import SingleFlight
        from repro.storage import sched
        from repro.storage.object_store import InMemoryObjectStore
        from repro.storage.pool import TracedPool

        rec = self.rec

        # storage: every billed request reaches the backing store.
        def storage(op: str):
            def make(fn):
                def wrapper(store, *args, **kwargs):
                    with rec.span(f"storage.{op}"):
                        out = fn(store, *args, **kwargs)
                    rec.add(f"storage.{op}")
                    if op == "get":
                        rec.add("storage.bytes_read", len(out))
                    elif op == "put":
                        data = args[1] if len(args) > 1 else kwargs["data"]
                        rec.add("storage.bytes_written", len(data))
                    return out

                return wrapper

            return make

        for op in ("get", "put", "list", "head", "delete"):
            self._patch("storage.request", InMemoryObjectStore, op, storage(op))

        def plan_reads(fn):
            def wrapper(requests, *args, **kwargs):
                plan = fn(requests, *args, **kwargs)
                rec.add("storage.subranges", len(requests))
                rec.add("storage.merged_gets", len(plan))
                return plan

            return wrapper

        self._patch("storage.plan_reads", sched, "plan_reads", plan_reads)

        def pool_run(fn):
            # Task spans hang under "pool.run" but are named after the
            # area of the span that submitted them ("serve.task" under
            # "serve.executor"), so work a task does outside any narrower
            # span counts to the submitting layer. What is left of
            # "pool.run" once its tasks are taken out is the pool's own:
            # queueing and hand-off.
            def wrapper(pool, tasks, *args, **kwargs):
                task_span = f"{(rec.current_name() or 'bench').split('.', 1)[0]}.task"
                rec.add("pool.runs")
                rec.add("pool.tasks", len(tasks))
                if len(tasks) == 1:
                    rec.add("pool.single_task_runs")
                with rec.span("pool.run"):
                    context = rec.context()

                    def adopt(task):
                        def run():
                            with rec.adopt(context), rec.span(task_span):
                                return task()

                        return run

                    return fn(pool, [adopt(t) for t in tasks], *args, **kwargs)

            return wrapper

        self._patch("pool.run", TracedPool, "run", pool_run)

        # formats; chunk reads are spans only so that self time lands in
        # the right layer.
        self._span("formats.footer", ParquetFile, "__init__")
        self._span("formats.read_chunk", ParquetFile, "read_column_chunk")
        self._timed_count("formats.parse_footer", formats_reader, "parse_footer")

        def scan_column(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def timed():
                    busy = 0.0
                    try:
                        while True:
                            start = time.perf_counter()
                            try:
                                item = next(inner)
                            except StopIteration:
                                busy += time.perf_counter() - start
                                return
                            busy += time.perf_counter() - start
                            yield item
                    finally:
                        rec.add("formats.scan.s", busy)
                        rec.add("formats.scan")
                        inner.close()

                return timed()

            return wrapper

        self._patch("formats.scan", ParquetFile, "scan_column", scan_column)

        def decode_page(fn):
            def wrapper(*args, **kwargs):
                values = fn(*args, **kwargs)
                rec.add("formats.pages_decoded")
                rec.add("formats.values_decoded", len(values))
                return values

            return wrapper

        for module in (formats_reader, page_reader):
            self._patch("formats.decode_page", module, "decode_page", decode_page)
        for module in (core_client, serve_executor):
            self._span("formats.fetch_pages", module, "fetch_pages")

        # lake / meta
        self._span("lake.snapshot", LakeTable, "snapshot")
        self._count("lake.log_read", TransactionLog, "read_version")
        self._count("lake.log_read", TransactionLog, "read_checkpoint")
        self._timed_count("lake.deletion_vector", LakeTable, "deletion_vector")
        self._span("meta.records", MetadataTable, "records")
        self._count("meta.log_read", MetadataTable, "_read_entry")
        self._count("meta.log_read", MetadataTable, "_read_checkpoint")

        # core / indices
        self._span("index_file.open", IndexFileReader, "open")

        def component_reads(count):
            def make(fn):
                def wrapper(reader, names, *args, **kwargs):
                    rec.add("index_file.component", count(names))
                    with rec.span("index_file.component"):
                        return fn(reader, names, *args, **kwargs)

                return wrapper

            return make

        self._patch("index_file.component", IndexFileReader, "component",
                    component_reads(lambda name: 1))
        self._patch("index_file.component", IndexFileReader, "components",
                    component_reads(len))

        def candidates(fn):
            def wrapper(*args, **kwargs):
                with rec.span("indices.probe"):
                    out = fn(*args, **kwargs)
                rec.add("indices.candidates", len(out))
                return out

            return wrapper

        def build(fn):
            def wrapper(cls, pages, *args, **kwargs):
                pages = list(pages)
                rec.add("indices.build_rows", sum(len(v) for _, v in pages))
                with rec.span("indices.build"):
                    return fn(cls, pages, *args, **kwargs)

            return wrapper

        for type_name in registered_types():
            querier = querier_for(type_name)
            for attr in ("candidate_pages", "candidates"):
                if attr in querier.__dict__:
                    self._patch("indices.candidate_pages", querier, attr, candidates)
            self._patch("indices.build", builder_for(type_name), "build", build)

        def search(span_name: str):
            def make(fn):
                def wrapper(*args, **kwargs):
                    if kwargs.get("use_indices") is False:
                        rec.add("serve.degraded")
                    with rec.span(span_name):
                        result = fn(*args, **kwargs)
                    stats = result.stats
                    rec.add("search.pages_probed", stats.pages_probed)
                    rec.add("search.false_positives", stats.false_positives)
                    return result

                return wrapper

            return make

        self._patch("search.result_stats", core_client.RottnestClient, "search",
                    search("core.search"))
        self._patch("search.result_stats", serve_executor.SearchExecutor, "search",
                    search("serve.executor"))

        # serve
        self._span("serve.query", serve_server.SearchServer, "query")
        self._count("serve.cache_stats", CacheStats, "record_hit", "serve.cache_hit")
        self._count("serve.cache_stats", CacheStats, "record_miss", "serve.cache_miss")
        self._count("serve.cache_stats", CacheStats, "record_eviction",
                    "serve.cache_eviction")

        def do_detailed(fn):
            def wrapper(*args, **kwargs):
                server_level = rec.current_name() == "serve.query"
                result, shared = fn(*args, **kwargs)
                if server_level:
                    rec.add("serve.flights")
                    rec.add("serve.shared", int(shared))
                return result, shared

            return wrapper

        self._patch("serve.singleflight", SingleFlight, "do_detailed", do_detailed)

        # obs
        self._span("obs.attribute", serve_server, "attribute")
        self._span("obs.flight_record", FlightRecorder, "record")
        for owner, attr in (
            (metrics.Counter, "inc"),
            (metrics.Gauge, "set"),
            (metrics.Gauge, "add"),
            (metrics.Histogram, "observe"),
            (timeseries.WindowedSeries, "observe"),
            (timeseries.WindowedQuantiles, "observe"),
        ):
            self._timed_count("obs.metric_op", owner, attr)

        # ingest / maintain
        self._span("ingest.ingest", IngestTier, "ingest")
        self._span("ingest.search_fresh", IngestTier, "search_fresh")
        self._span("ingest.wal_append", WriteAheadLog, "append_encoded")
        self._span("ingest.drain", IngestDrainer, "drain")
        self._span("maintain.index", MaintenancePipeline, "index")
        self._span("maintain.compact", MaintenancePipeline, "compact")
        self.installed["bench.op"].append("SpanRecorder.op")
        return self

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def per(total: float, count: float) -> float:
    """``total / count``, or 0 when there is nothing to divide by."""
    return total / count if count else 0.0


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values): at q=0.95 and 200
    values, 10 lie beyond it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer_metrics(rec: SpanRecorder, *, user_bytes: int) -> dict[str, float]:
    """Every per-layer metric from one traced phase's spans and counters.

    ``user_bytes`` is the payload the workload's writers handed in during
    the phase (0 for read-only workloads).
    """
    kinds = defaultdict(int)
    for kind in rec.ops.values():
        kinds[kind] += 1
    queries = kinds["query"]
    q = rec.span_totals("query")
    c = rec.counts()

    def qsum(name: str) -> float:
        return sum(q.get(name, ()))

    def qc(name: str) -> float:
        return c.get(("query", name), 0.0)

    ingest = rec.span_totals("ingest")
    drain = rec.span_totals("drain")
    compact = rec.span_totals("compact")
    builds = sum(end - start for _, name, start, end, _, _ in rec.spans if name == "indices.build")
    build_rows = sum(v for (_, name), v in c.items() if name == "indices.build_rows")
    index_runs = drain.get("maintain.index", [])
    compact_runs = compact.get("maintain.compact", [])
    probed = qc("search.pages_probed")
    flights = qc("serve.flights")
    hits, misses = qc("serve.cache_hit"), qc("serve.cache_miss")
    ms = 1000.0
    out = {
        "indices.probe_ms_per_query": per(qsum("indices.probe"), queries) * ms,
        "indices.candidate_pages_per_query": per(qc("indices.candidates"), queries),
        "indices.useful_page_frac": per(probed - qc("search.false_positives"), probed),
        "indices.build_ms_per_krow": per(builds * ms, build_rows / 1000.0),
        "index_file.open_ms_per_query": per(qsum("index_file.open"), queries) * ms,
        "index_file.components_read_per_query": per(qc("index_file.component"), queries),
        "formats.footer_parses_per_query": per(qc("formats.parse_footer"), queries),
        "formats.footer_ms_per_query": per(qsum("formats.footer"), queries) * ms,
        "formats.scan_ms_per_query": per(qc("formats.scan.s"), queries) * ms,
        "formats.values_decoded_per_query": per(qc("formats.values_decoded"), queries),
        "formats.pages_decoded_per_query": per(qc("formats.pages_decoded"), queries),
        "formats.page_fetch_ms_per_query": per(qsum("formats.fetch_pages"), queries) * ms,
        "lake.snapshot_ms_per_query": per(qsum("lake.snapshot"), queries) * ms,
        "lake.log_versions_read_per_query": per(qc("lake.log_read"), queries),
        "lake.dv_ms_per_query": per(qc("lake.deletion_vector.s"), queries) * ms,
        "meta.records_ms_per_query": per(qsum("meta.records"), queries) * ms,
        "meta.log_reads_per_query": per(qc("meta.log_read"), queries),
        "pool.run_ms_per_query": per(qsum("pool.run"), queries) * ms,
        "pool.tasks_per_query": per(qc("pool.tasks"), queries),
        "pool.single_task_run_frac": per(qc("pool.single_task_runs"), qc("pool.runs")),
        "serve.overhead_ms_per_query": per(
            qsum("serve.query") - qsum("serve.executor"), queries
        ) * ms,
        "serve.cache_hit_rate": per(hits, hits + misses),
        "serve.cache_evictions_per_query": per(qc("serve.cache_eviction"), queries),
        "serve.dedup_frac": per(qc("serve.shared"), flights),
        "serve.degraded_frac": per(qc("serve.degraded"), queries),
        "obs.attribute_ms_per_query": per(qsum("obs.attribute"), queries) * ms,
        "obs.flight_record_ms_per_query": per(qsum("obs.flight_record"), queries) * ms,
        "obs.metric_ops_per_query": per(qc("obs.metric_op"), queries),
        "obs.metrics_ms_per_query": per(qc("obs.metric_op.s"), queries) * ms,
        "storage.gets_per_query": per(qc("storage.get"), queries),
        "storage.lists_per_query": per(qc("storage.list"), queries),
        "storage.bytes_read_per_query": per(qc("storage.bytes_read"), queries),
        "storage.coalesce_factor": per(qc("storage.subranges"), qc("storage.merged_gets")),
        "ingest.ack_p50_ms": nearest_rank(ingest.get("ingest.ingest", []), 0.50) * ms,
        "ingest.ack_p95_ms": nearest_rank(ingest.get("ingest.ingest", []), 0.95) * ms,
        "ingest.wal_append_ms_per_batch": per(
            sum(ingest.get("ingest.wal_append", ())), kinds["ingest"]
        ) * ms,
        "ingest.fresh_probe_ms_per_query": per(qsum("ingest.search_fresh"), queries) * ms,
        "ingest.drain_ms_per_drain": per(sum(drain.get("ingest.drain", ())), kinds["drain"]) * ms,
        "maintain.index_ms_per_run": per(sum(index_runs), len(index_runs)) * ms,
        "maintain.compact_ms_per_run": per(sum(compact_runs), len(compact_runs)) * ms,
        "maintain.bytes_rewritten_per_user_byte": per(
            c.get(("compact", "storage.bytes_written"), 0.0), user_bytes
        ),
    }
    self_time = rec.self_time_by_layer("query")
    for layer in LAYERS:
        out[f"self.{layer}_ms_per_query"] = per(self_time.get(layer, 0.0), queries) * ms
    return out
