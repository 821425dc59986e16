"""The Rottnest client: ``index`` and ``search`` (paper §IV-A, §IV-B).

The client is stateless between calls; all shared state lives in the
object store (index files + metadata table) and the underlying lake.
``index`` may be called from any process; ``search`` is read-only and
safe to run concurrently with everything else. ``compact`` and
``vacuum`` live in :mod:`repro.core.maintenance`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.errors import (
    IndexAborted,
    ObjectStoreError,
    RottnestIndexError,
    SnapshotNotFound,
)
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.core.queries import Query, VectorQuery
from repro.formats.page_reader import (
    PageEntry,
    PageTable,
    build_page_table,
    fetch_pages,
)
from repro.formats.reader import ParquetFile
from repro.indices.base import (
    ExactQuerier,
    ScoringQuerier,
    builder_for,
    querier_for,
)
from repro.lake.snapshot import Snapshot
from repro.lake.table import LakeTable
from repro.meta.metadata_table import IndexRecord, MetadataTable
from repro.obs.metrics import get_registry
from repro.obs.timeseries import get_hub
from repro.obs.trace import get_tracer
from repro.storage.latency import LatencyModel
from repro.storage.object_store import ObjectStore
from repro.storage.pool import TracedPool
from repro.storage.stats import RequestTrace

INDEX_FILES_DIR = "files"
DEFAULT_INDEX_TIMEOUT_S = 3600.0

T = TypeVar("T")

_SEARCHES = get_registry().counter(
    "searches_total", "Search calls by query kind", ("kind",)
)
_INDEX_BUILDS = get_registry().counter(
    "index_builds_total", "Index build attempts by outcome", ("outcome",)
)


@dataclass(frozen=True)
class SearchMatch:
    """One verified result row."""

    file: str
    row: int  # file-global row index
    value: object  # the matched column value
    score: float | None = None  # distance for scoring queries


@dataclass
class SearchStats:
    """Accounting for one search call."""

    trace: RequestTrace
    index_files_queried: int = 0
    files_brute_forced: int = 0
    pages_probed: int = 0
    candidates: int = 0
    false_positives: int = 0

    def estimated_latency(self, model: LatencyModel | None = None) -> float:
        """Wall-clock estimate under the store's latency model."""
        return (model or LatencyModel()).trace_latency(self.trace)


@dataclass
class SearchResult:
    matches: list[SearchMatch]
    stats: SearchStats


@dataclass(frozen=True)
class SearchPlan:
    """What a search would do, without doing it (``explain``)."""

    column: str
    snapshot_version: int
    candidate_files: tuple[str, ...]  # files in scope after filtering
    index_files: tuple[tuple[str, str, int], ...]  # (key, type, files covered)
    uncovered_files: tuple[str, ...]  # would be brute-force scanned

    @property
    def fully_covered(self) -> bool:
        return not self.uncovered_files

    def describe(self) -> str:
        lines = [
            f"search plan for column {self.column!r} "
            f"@ snapshot v{self.snapshot_version}",
            f"  files in scope: {len(self.candidate_files)}",
        ]
        for key, index_type, covered in self.index_files:
            lines.append(
                f"  index {key} ({index_type}) -> {covered} file(s)"
            )
        if self.uncovered_files:
            lines.append(
                f"  brute-force scan: {len(self.uncovered_files)} file(s)"
            )
        else:
            lines.append("  brute-force scan: none (fully covered)")
        return "\n".join(lines)


class RottnestClient:
    """Index management + search over one lake table column set."""

    def __init__(
        self,
        store: ObjectStore,
        index_dir: str,
        lake: LakeTable,
        *,
        index_timeout_s: float = DEFAULT_INDEX_TIMEOUT_S,
        codec: str = "zlib",
        key_entropy: Callable[[], bytes] | None = None,
    ) -> None:
        self.store = store
        self.index_dir = index_dir.rstrip("/")
        self.lake = lake
        self.meta = MetadataTable(store, self.index_dir)
        self.index_timeout_s = index_timeout_s
        self.codec = codec
        #: Optional :class:`repro.ingest.IngestTier`. When attached,
        #: ``search`` merges the tier's fresh view of the query snapshot
        #: (WAL segments beyond the snapshot's committed high-water
        #: mark) with the lazy-tier results, so acked-but-undrained rows
        #: are returned before any ``index`` run. Assigned, not
        #: constructor-injected, to keep the core free of an ingest
        #: dependency.
        self.fresh_tier = None
        # Salt source for fresh index keys. Injectable so the chaos
        # fuzzer can make whole protocol histories bit-reproducible
        # from one seed.
        self._key_entropy = key_entropy or (lambda: os.urandom(4))

    # ------------------------------------------------------------------
    # index (§IV-A): plan -> build -> upload -> commit, with timeout
    # ------------------------------------------------------------------
    def index(
        self,
        column: str,
        index_type: str,
        *,
        snapshot: Snapshot | None = None,
        params: dict | None = None,
        workers: int = 1,
        pool: "TracedPool | None" = None,
    ) -> IndexRecord | None:
        """Bring the index on ``column`` up to date with ``snapshot``.

        Builds one new index file covering every Parquet file in the
        snapshot not already covered by the metadata table. Returns the
        committed record, or ``None`` when there is nothing new to
        index. Raises :class:`IndexAborted` on timeout, on inputs that
        vanish mid-build (e.g. a concurrent lake vacuum), or when the
        new data is below the index type's minimum size.

        ``workers > 1`` (or an injected ``pool``) fans the per-file
        page-value extraction across a bounded worker pool; the index
        structure itself is still built and committed on the calling
        thread, so the committed bytes and metadata are identical to
        the serial run regardless of worker count.
        """
        with get_tracer().span(
            "index", column=column, index_type=index_type
        ) as span:
            before = self.store.stats.snapshot()
            try:
                record = self._index(
                    column,
                    index_type,
                    snapshot=snapshot,
                    params=params,
                    workers=workers,
                    pool=pool,
                )
            except IndexAborted:
                _INDEX_BUILDS.inc(outcome="aborted")
                span.set("outcome", "aborted")
                raise
            finally:
                delta = self.store.stats.snapshot().delta(before)
                span.set("bytes_read", delta.bytes_read)
                span.set("bytes_written", delta.bytes_written)
                span.set(
                    "requests",
                    delta.gets + delta.puts + delta.lists
                    + delta.heads + delta.deletes,
                )
            outcome = "noop" if record is None else "committed"
            _INDEX_BUILDS.inc(outcome=outcome)
            span.set("outcome", outcome)
            if record is not None:
                span.set("rows", record.num_rows)
                span.set("index_bytes", record.size)
            return record

    def _index(
        self,
        column: str,
        index_type: str,
        *,
        snapshot: Snapshot | None = None,
        params: dict | None = None,
        workers: int = 1,
        pool: "TracedPool | None" = None,
    ) -> IndexRecord | None:
        tracer = get_tracer()
        started = self.store.clock.now()
        builder_cls = builder_for(index_type)

        # Plan: new data files only (deletion vectors are never
        # indexed); coverage is per (column, index type). Metadata and
        # manifest reads are inherently sequential round trips, so the
        # plan phase always runs on the calling thread.
        with tracer.span("index.plan", phase="plan") as plan_span:
            self.store.start_trace()
            try:
                snap = snapshot or self.lake.snapshot()
                already = self.meta.indexed_files(column, index_type)
            finally:
                plan_trace = self.store.stop_trace()
            plan_trace.barrier()
            plan_span.trace = plan_trace
        new_files = [f for f in snap.files if f.path not in already]
        if not new_files:
            return None
        total_rows = sum(f.num_rows for f in new_files)
        if total_rows < builder_cls.min_rows:
            raise IndexAborted(
                f"{total_rows} new rows < minimum {builder_cls.min_rows} for "
                f"{index_type!r}; leave them to brute-force scanning"
            )

        # Extract: page tables + page values, one task per input file.
        # Workers only *read*; results are reassembled in snapshot file
        # order with sequentially renumbered page gids, so the page
        # stream — and hence the built index — is byte-identical to the
        # serial loop no matter how tasks interleave.
        with tracer.span(
            "index.extract", phase="extract", files=len(new_files)
        ) as extract_span:
            if pool is not None:
                extract_trace, extracted = pool.run(
                    [
                        lambda e=entry: self._extract_file(e, column)
                        for entry in new_files
                    ],
                    span_name="indexer:task",
                )
            elif workers > 1:
                with TracedPool(
                    self.store,
                    workers=workers,
                    thread_name_prefix="indexer",
                    span_name="indexer:task",
                ) as scratch:
                    extract_trace, extracted = scratch.run(
                        [
                            lambda e=entry: self._extract_file(e, column)
                            for entry in new_files
                        ]
                    )
            else:
                # Serial loop: one blocking extraction at a time, so
                # per-file traces compose sequentially — the same shape
                # a one-worker pool records.
                extract_trace = RequestTrace()
                extracted = []
                for entry in new_files:
                    self.store.start_trace()
                    try:
                        extracted.append(self._extract_file(entry, column))
                    finally:
                        extract_trace = extract_trace.then(
                            self.store.stop_trace()
                        )
            extract_span.trace = extract_trace

        tables: list[PageTable] = []
        page_stream: list[tuple[int, list]] = []
        gid = 0
        for table, page_values in extracted:
            tables.append(table)
            for values in page_values:
                page_stream.append((gid, values))
                gid += 1
        builder = builder_cls.build(page_stream, **(params or {}))
        writer = IndexFileWriter(
            index_type,
            column,
            PageDirectory(tables),
            params=dict(params or {}),
            codec=self.codec,
        )
        builder.write(writer)
        blob = writer.finish()

        # Timeout check before any externally visible effect: an indexer
        # that overruns must abort so vacuum's age-based GC stays sound.
        self._check_timeout(started, "before upload")

        # Commit (transactional insert into the metadata table) stays
        # single-threaded whatever the worker count — the Existence
        # invariant needs the index-file PUT durable before its record,
        # and the metadata log is one conditional-PUT stream anyway.
        with tracer.span("index.commit", phase="commit") as commit_span:
            self.store.start_trace()
            try:
                key = self.new_index_key(blob)
                self.store.put(key, blob)

                # A crash between upload and here leaves an orphan index
                # file, cleaned up by vacuum once it is older than the
                # timeout.
                self._check_timeout(started, "before commit")
                record = IndexRecord(
                    index_key=key,
                    index_type=index_type,
                    column=column,
                    covered_files=tuple(f.path for f in new_files),
                    num_rows=total_rows,
                    size=len(blob),
                    created_at=self.store.clock.now(),
                )
                self.meta.insert([record])
            finally:
                commit_trace = self.store.stop_trace()
            commit_span.trace = commit_trace
        return record

    def _extract_file(
        self, entry, column: str
    ) -> tuple[PageTable, list[list]]:
        """Read one Parquet file's page table + page values for indexing.

        Pure read work — safe to run on a pool thread. Raises
        :class:`IndexAborted` when the input vanished mid-build (e.g. a
        concurrent lake vacuum), exactly like the serial loop did.
        """
        try:
            reader = ParquetFile(self.store, entry.path)
        except ObjectStoreError as exc:
            raise IndexAborted(
                f"input file {entry.path!r} disappeared during indexing; "
                f"retry against a newer snapshot"
            ) from exc
        table = build_page_table(reader.metadata, entry.path, column)
        return table, list(_iter_page_values(reader, table, column))

    def new_index_key(self, blob: bytes, *, deterministic: bool = False) -> str:
        """Object key for a freshly built index blob.

        ``index`` keys are salted: two concurrent indexers of the same
        snapshot build identical blobs but must commit *distinct*
        records (the metadata table rejects double-insert of one key),
        so each gets its own key and vacuum later drops the loser.

        ``deterministic=True`` is content-addressed — same blob, same
        key — which is what makes compaction idempotent: a crashed run
        re-executed by a fresh client re-uploads the same bytes to the
        same key (a harmless overwrite) instead of accreting orphans.
        """
        digest = hashlib.sha1(blob).hexdigest()
        if deterministic:
            return f"{self.index_dir}/{INDEX_FILES_DIR}/{digest[:20]}.index"
        return (
            f"{self.index_dir}/{INDEX_FILES_DIR}/"
            f"{digest[:10]}-{self._key_entropy().hex()}.index"
        )

    def _open_data_file(self, snap: Snapshot, path: str) -> ParquetFile:
        """Open a snapshot data file, translating a missing object into
        an actionable error: old snapshots stop being searchable once
        the lake's vacuum physically drops their files."""
        try:
            return ParquetFile(self.store, path)
        except ObjectStoreError as exc:
            _raise_unmaterialized(snap, path, exc)

    def _check_timeout(self, started: float, stage: str) -> None:
        elapsed = self.store.clock.now() - started
        if elapsed > self.index_timeout_s:
            raise IndexAborted(
                f"index operation exceeded timeout ({elapsed:.0f}s > "
                f"{self.index_timeout_s:.0f}s) {stage}; retry"
            )

    # ------------------------------------------------------------------
    # search (§IV-B): plan -> query indices -> in-situ probe -> brute fill
    # ------------------------------------------------------------------
    def search(
        self,
        column: str,
        query: Query,
        *,
        k: int = 10,
        snapshot: Snapshot | None = None,
        partition: str | None = None,
        file_predicate=None,
        use_indices: bool = True,
    ) -> SearchResult:
        """Top-K search of ``snapshot`` (defaults to latest).

        Exact queries return any K verified matches; scoring queries
        return the K best-ranked. Rows in unindexed Parquet files are
        found by brute-force scanning, so no live row is ever missed.

        ``partition`` / ``file_predicate`` restrict the search to a
        subset of the snapshot's files — the paper's §VI mechanism for
        structured filters (e.g. a time-range predicate over
        time-partitioned data): cost scales with the fraction of
        partitions touched instead of the whole lake.

        ``use_indices=False`` skips index planning entirely and scans
        every in-scope file — the degraded mode the serve layer falls
        back to when an index component read fails mid-query. Results
        are identical (indices only accelerate), just slower.

        Every task runs inline on the calling thread;
        :class:`~repro.serve.executor.SearchExecutor` runs the same
        procedure across a worker pool.
        """
        return self._run_search(
            column,
            query,
            k=k,
            snapshot=snapshot,
            partition=partition,
            file_predicate=file_predicate,
            use_indices=use_indices,
            pool=None,
        )

    def _run_search(
        self,
        column: str,
        query: Query,
        *,
        k: int,
        snapshot: Snapshot | None,
        partition: str | None,
        file_predicate,
        use_indices: bool,
        pool: TracedPool | None,
    ) -> SearchResult:
        """The one search procedure, driven by a task runner.

        Index-record continuations and brute-force scans are tasks,
        consumed in submission order by :meth:`_run_tasks`: inline when
        ``pool`` is None, else in waves of the pool's width. Exact
        queries stop between waves once K verified matches exist.
        """
        if k < 1:
            raise RottnestIndexError(f"k must be >= 1, got {k}")
        tracer = get_tracer()
        with tracer.span(
            "search",
            column=column,
            k=k,
            engine="client" if pool is None else "executor",
            searchers=1 if pool is None else pool.workers,
            kind=type(query).__name__,
        ) as root:
            # Plan phase is part of the query's latency: reading the
            # metadata table (and the snapshot manifest when not pinned)
            # costs real object-store round trips, inherently sequential,
            # so it always runs on the calling thread.
            with tracer.span("plan", phase="plan") as plan_span:
                self.store.start_trace()
                snap = snapshot or self.lake.snapshot()
                snap_paths = self._scope(snap, partition, file_predicate)
                if use_indices:
                    chosen, uncovered = self._plan(column, query, snap_paths)
                else:
                    chosen, uncovered = [], set(snap_paths)
                plan_trace = self.store.stop_trace()
                plan_trace.barrier()  # index queries depend on the plan
                plan_span.trace = plan_trace

            stats = SearchStats(trace=plan_trace)
            stats.index_files_queried = len(chosen)

            # Fresh tier first: memtable probes are in-memory, so they
            # cost nothing in the trace but count toward K. Structured
            # scoping (partition / file predicate) addresses lake files
            # only, so scoped queries stay lazy-tier-only.
            fresh: list[SearchMatch] = []
            if (
                self.fresh_tier is not None
                and partition is None
                and file_predicate is None
            ):
                with tracer.span("probe:fresh", phase="fresh") as fresh_span:
                    fresh = self.fresh_tier.search_fresh(
                        column, query, k=k, snapshot=snap
                    )
                    fresh_span.set("matches", len(fresh))

            if query.scoring:
                lazy = self._ranked_matches(
                    pool, column, query, snap, snap_paths, chosen, uncovered, stats
                )
                matches = sorted(fresh + lazy, key=lambda m: m.score)[:k]
            elif len(fresh) >= k:
                matches = fresh[:k]
            else:
                matches = fresh + self._first_matches(
                    pool,
                    column,
                    query,
                    k - len(fresh),
                    snap,
                    snap_paths,
                    chosen,
                    uncovered,
                    stats,
                )
            _SEARCHES.inc(kind="scoring" if query.scoring else "exact")
            root.set("matches", len(matches))
            root.set("fresh_matches", len(fresh))
            root.set("index_files_queried", stats.index_files_queried)
            root.set("pages_probed", stats.pages_probed)
            root.set("files_brute_forced", stats.files_brute_forced)
            return SearchResult(matches=matches, stats=stats)

    def count(
        self,
        column: str,
        query,
        *,
        snapshot: Snapshot | None = None,
        partition: str | None = None,
    ) -> int:
        """Exact occurrence count of a substring, straight off the
        FM indices (no in-situ probing for covered files).

        Counts *occurrences* (overlapping included), not matching rows,
        which is what corpus-frequency analytics wants. Rows in
        uncovered files are brute-force counted; logically deleted rows
        are **included** for covered files (their text is still in the
        index) — pass a post-vacuum snapshot for exact live counts, or
        use :meth:`search` when deletions matter.
        """
        from repro.core.queries import SubstringQuery
        from repro.indices.fm.fm_index import FmQuerier

        if not isinstance(query, SubstringQuery):
            raise RottnestIndexError(
                "count() serves SubstringQuery only; use search() otherwise"
            )
        with get_tracer().span("count", column=column) as span:
            snap = snapshot or self.lake.snapshot()
            snap_paths = self._scope(snap, partition, None)
            chosen, uncovered = self._plan(column, query, snap_paths)
            total = 0
            for record in chosen:
                reader = IndexFileReader.open(self.store, record.index_key)
                querier = FmQuerier(reader)
                # Count only occurrences within in-scope files: when the
                # index also covers out-of-scope files, fall back to probing
                # pages per file via candidate resolution.
                if set(record.covered_files) <= snap_paths:
                    total += querier.count(query.needle)
                else:
                    total += self._count_via_scan(
                        column, query, snap,
                        set(record.covered_files) & snap_paths,
                    )
            total += self._count_via_scan(column, query, snap, uncovered)
            span.set("occurrences", total)
            return total

    def _count_via_scan(self, column, query, snap, paths) -> int:
        total = 0
        for path in sorted(paths):
            dv = self.lake.deletion_vector(snap, path)
            reader = self._open_data_file(snap, path)
            for row, value in reader.scan_column(column):
                if row in dv:
                    continue
                total += _count_overlapping(value, query.needle)
        return total

    def _scope(
        self,
        snap: Snapshot,
        partition: str | None,
        file_predicate,
    ) -> set[str]:
        """Snapshot files in scope for this query."""
        paths = set(snap.file_paths)
        if partition is not None:
            paths = {
                p for p in paths if LakeTable.partition_of(p) == partition
            }
        if file_predicate is not None:
            paths = {p for p in paths if file_predicate(p)}
        return paths

    def explain(
        self,
        column: str,
        query: Query,
        *,
        snapshot: Snapshot | None = None,
        partition: str | None = None,
        file_predicate=None,
    ) -> SearchPlan:
        """The plan :meth:`search` would execute, without executing it."""
        snap = snapshot or self.lake.snapshot()
        snap_paths = self._scope(snap, partition, file_predicate)
        chosen, uncovered = self._plan(column, query, snap_paths)
        return SearchPlan(
            column=column,
            snapshot_version=snap.version,
            candidate_files=tuple(sorted(snap_paths)),
            index_files=tuple(
                (
                    r.index_key,
                    r.index_type,
                    len(set(r.covered_files) & snap_paths),
                )
                for r in chosen
            ),
            uncovered_files=tuple(sorted(uncovered)),
        )

    def _plan(
        self, column: str, query: Query, snap_paths: set[str]
    ) -> tuple[list[IndexRecord], set[str]]:
        """Pick index files to query and files left to brute-force.

        Newest-first greedy cover: later index files (e.g. produced by
        index compaction) win over the older ones they subsume; index
        files covering no file of the snapshot are skipped entirely.
        Any index type the query declares compatible can serve it, with
        earlier types in ``query.index_types`` preferred on timestamp
        ties (e.g. a trie over a bloom filter for the same files).
        """
        if not query.index_types:
            return [], set(snap_paths)
        type_rank = {t: i for i, t in enumerate(query.index_types)}
        records = [
            r
            for r in self.meta.records()
            if r.column == column and r.index_type in type_rank
        ]
        # Newest first; ties (same store-clock second) broken by query
        # type preference, then metadata insertion order so compaction
        # products win over the files they subsume.
        ordered = [
            records[i]
            for i in sorted(
                range(len(records)),
                key=lambda i: (
                    -records[i].created_at,
                    type_rank[records[i].index_type],
                    -i,
                ),
            )
        ]
        chosen: list[IndexRecord] = []
        covered: set[str] = set()
        for record in ordered:
            useful = (set(record.covered_files) & snap_paths) - covered
            if useful:
                chosen.append(record)
                covered |= useful
        return chosen, snap_paths - covered

    # -- exact (UUID / substring / regex) ------------------------------
    def _first_matches(
        self,
        pool: TracedPool | None,
        column: str,
        query: Query,
        k: int,
        snap: Snapshot,
        snap_paths: set[str],
        chosen: list[IndexRecord],
        uncovered: set[str],
        stats: SearchStats,
    ) -> list[SearchMatch]:
        tracer = get_tracer()
        store = self.store
        field = snap.schema.field(column)
        matches: list[SearchMatch] = []

        # Pipelined continuations: one task per index record runs probe
        # -> claim -> coalesced page reads with no barrier against other
        # records, so a finished probe's page reads overlap the other
        # records' probes. The first probe to claim a page wins; claims
        # are taken under a lock, in task order whenever tasks run one
        # at a time.
        seen_pages: set[tuple[str, int]] = set()
        claim_lock = threading.Lock()

        def search_record(record: IndexRecord):
            reader = IndexFileReader.open(store, record.index_key)
            querier = querier_for(record.index_type)(reader)
            assert isinstance(querier, ExactQuerier)
            gids = querier.candidate_pages(_exact_key(query))
            directory = reader.directory
            found = [
                entry
                for entry in (directory.locate(gid) for gid in gids)
                # Skip stale locations (files compacted away).
                if entry.file_key in snap_paths
            ]
            claimed: list[PageEntry] = []
            with claim_lock:
                for entry in found:
                    page_key = (entry.file_key, entry.page_id)
                    if page_key not in seen_pages:
                        seen_pages.add(page_key)
                        claimed.append(entry)
            # Page reads depend on this record's probe, and only on it.
            store.barrier()
            try:
                payloads = fetch_pages(store, field, claimed)
            except ObjectStoreError as exc:
                _raise_unmaterialized(snap, _failed_key(exc, claimed), exc)
            dvs = [self.lake.deletion_vector(snap, e.file_key) for e in claimed]
            return claimed, payloads, dvs

        def verify(batch) -> bool:
            """Check one record's pages row by row, deletion vectors
            applied; True once K matches exist."""
            claimed, payloads, dvs = batch
            for entry, (row_start, values), dv in zip(claimed, payloads, dvs):
                page_hit = False
                for i, value in enumerate(values):
                    row = row_start + i
                    if row in dv or not query.matches(value):
                        continue
                    page_hit = True
                    matches.append(
                        SearchMatch(file=entry.file_key, row=row, value=value)
                    )
                if not page_hit:
                    stats.false_positives += 1
                if len(matches) >= k:
                    return True
            return False

        with tracer.span("probe", phase="probe") as probe_span:
            probe_span.trace, batches = self._run_tasks(
                pool, [lambda r=record: search_record(r) for record in chosen], verify
            )
            fetched = [entry for claimed, _, _ in batches for entry in claimed]
            probe_span.set(
                "probed_files", tuple(sorted({e.file_key for e in fetched}))
            )
        stats.trace = stats.trace.then(probe_span.trace)
        stats.candidates = stats.pages_probed = len(fetched)

        # Brute-force the uncovered files only if K is not yet satisfied
        # (paper §IV-B step 3), one file per task, each asked only for
        # the matches still missing.
        if len(matches) < k and uncovered:
            paths = sorted(uncovered)

            def take(found: list[SearchMatch]) -> bool:
                matches.extend(found)
                return len(matches) >= k

            with tracer.span("brute_force", phase="brute_force") as brute_span:
                brute_span.trace, scanned = self._run_tasks(
                    pool,
                    [
                        lambda p=path: self._brute_force_exact(
                            column, query, snap, p, k - len(matches)
                        )
                        for path in paths
                    ],
                    take,
                    serial=True,
                )
                brute_span.set("scanned_files", tuple(paths[: len(scanned)]))
            stats.trace = stats.trace.then(brute_span.trace)
            stats.files_brute_forced = len(scanned)
        return matches[:k]

    def _brute_force_exact(
        self,
        column: str,
        query: Query,
        snap: Snapshot,
        path: str,
        needed: int,
    ) -> list[SearchMatch]:
        dv = self.lake.deletion_vector(snap, path)
        reader = self._open_data_file(snap, path)
        out: list[SearchMatch] = []
        for row, value in reader.scan_column(column):
            if row in dv or not query.matches(value):
                continue
            out.append(SearchMatch(file=path, row=row, value=value))
            if len(out) >= needed:
                break
        return out

    # -- scoring (vector) ------------------------------------------------
    def _ranked_matches(
        self,
        pool: TracedPool | None,
        column: str,
        query: VectorQuery,
        snap: Snapshot,
        snap_paths: set[str],
        chosen: list[IndexRecord],
        uncovered: set[str],
        stats: SearchStats,
    ) -> list[SearchMatch]:
        """Every in-scope row's candidacy, scored; the caller keeps the
        best K."""
        tracer = get_tracer()
        store = self.store

        def probe_index(record: IndexRecord):
            reader = IndexFileReader.open(store, record.index_key)
            querier = querier_for(record.index_type)(reader)
            assert isinstance(querier, ScoringQuerier)
            found = querier.candidates(
                query.vector, nprobe=query.nprobe, limit=query.refine
            )
            directory = reader.directory
            located = [
                (entry, cand.offset, cand.score)
                for cand in found
                for entry in (directory.locate(cand.gid),)
                if entry.file_key in snap_paths
            ]
            return located, tuple(getattr(querier, "last_probed_cells", ()))

        with tracer.span("probe:index", phase="index_probe") as index_span:
            index_span.trace, per_record = self._run_tasks(
                pool, [lambda r=record: probe_index(r) for record in chosen]
            )
            index_span.set(
                "cell_probes",
                tuple(
                    (record.index_key, cells)
                    for record, (_, cells) in zip(chosen, per_record)
                    if cells
                ),
            )
        stats.trace = stats.trace.then(index_span.trace)
        # Keep the globally best `refine` PQ candidates across indices.
        candidates = sorted(
            (cand for located, _ in per_record for cand in located),
            key=lambda c: c[2],
        )[: query.refine]
        stats.candidates = len(candidates)

        # Refine: group candidates by page (first-seen order), read them
        # as one coalesced batch, compute exact distances. The global
        # sort above is a real cross-record dependency, so this phase
        # keeps its barrier.
        field = snap.schema.field(column)
        by_page: dict[tuple[str, int], list[int]] = {}
        entries: dict[tuple[str, int], PageEntry] = {}
        for entry, offset, _ in candidates:
            page_key = (entry.file_key, entry.page_id)
            by_page.setdefault(page_key, []).append(offset)
            entries[page_key] = entry
        page_entries = [entries[page_key] for page_key in by_page]

        def read_pages():
            try:
                payloads = fetch_pages(store, field, page_entries)
            except ObjectStoreError as exc:
                _raise_unmaterialized(snap, _failed_key(exc, page_entries), exc)
            dvs = [self.lake.deletion_vector(snap, e.file_key) for e in page_entries]
            return payloads, dvs

        with tracer.span("probe:pages", phase="page_read") as page_span:
            page_span.trace, batches = self._run_tasks(
                pool, [read_pages] if page_entries else []
            )
            page_span.set(
                "probed_files", tuple(sorted({e.file_key for e in page_entries}))
            )
        stats.trace = stats.trace.then(page_span.trace)
        stats.pages_probed = len(page_entries)
        payloads, dvs = batches[0] if batches else ([], [])
        scored: list[SearchMatch] = []
        for entry, offsets, (row_start, values), dv in zip(
            page_entries, by_page.values(), payloads, dvs
        ):
            for offset in set(offsets):
                row = row_start + offset
                if row in dv:
                    continue
                value = values[offset]
                scored.append(
                    SearchMatch(
                        file=entry.file_key,
                        row=row,
                        value=value,
                        score=query.distance(value),
                    )
                )

        # Scoring queries must rank *all* data: unindexed files are
        # scanned exhaustively (paper §IV-B step 3).
        def scan_file(path: str) -> list[SearchMatch]:
            dv = self.lake.deletion_vector(snap, path)
            reader = self._open_data_file(snap, path)
            return [
                SearchMatch(
                    file=path, row=row, value=value, score=query.distance(value)
                )
                for row, value in reader.scan_column(column)
                if row not in dv
            ]

        if uncovered:
            paths = sorted(uncovered)
            with tracer.span("brute_force", phase="brute_force") as brute_span:
                brute_span.trace, per_file = self._run_tasks(
                    pool, [lambda p=path: scan_file(p) for path in paths], serial=True
                )
                brute_span.set("scanned_files", tuple(paths))
            stats.trace = stats.trace.then(brute_span.trace)
            stats.files_brute_forced = len(per_file)
            for file_matches in per_file:
                scored.extend(file_matches)
        return scored

    # -- task runner -----------------------------------------------------
    def _run_tasks(
        self,
        pool: TracedPool | None,
        tasks: list[Callable[[], T]],
        consume: Callable[[T], bool] | None = None,
        *,
        serial: bool = False,
    ) -> tuple[RequestTrace, list[T]]:
        """Run one search stage's tasks in submission order.

        Returns the stage's request trace and the payloads of every task
        that ran. ``consume`` sees the payloads in task order and returns
        True once the query needs nothing more: no later wave starts.

        With a ``pool`` the tasks run in waves of its width; traces merge
        in parallel within a wave and waves compose with ``then``. Without
        one each task runs on the calling thread and the stage is priced
        as one parallel wave of independent requests or, with ``serial``,
        as one continuous trace: a scan that reads file after file, so
        one file's last round shares a round with the next file's first
        request. (Joining inline tasks with ``then`` instead would price
        the inline client like a width-1 pool, which models far slower;
        see docs/performance.md.)
        """
        store = self.store
        payloads: list[T] = []
        if pool is not None:
            if tasks:
                get_hub().series("serve.fanout_tasks").observe(
                    float(len(tasks)), at_s=store.clock.now()
                )
            trace = RequestTrace()
            for start in range(0, len(tasks), pool.workers):
                wave_trace, wave = pool.run(tasks[start : start + pool.workers])
                trace = trace.then(wave_trace)
                payloads.extend(wave)
                if consume is not None and any(consume(p) for p in wave):
                    break
            return trace, payloads
        trace = store.start_trace() if serial else RequestTrace()
        try:
            for task in tasks:
                if serial:
                    payloads.append(task())
                else:
                    store.start_trace()
                    try:
                        payloads.append(task())
                    finally:
                        trace = trace.merge_parallel(store.stop_trace())
                if consume is not None and consume(payloads[-1]):
                    break
        finally:
            if serial:
                store.stop_trace()
        return trace, payloads


def _count_overlapping(haystack: str, needle: str) -> int:
    count = start = 0
    while True:
        start = haystack.find(needle, start)
        if start < 0:
            return count
        count += 1
        start += 1


def _failed_key(exc: Exception, entries: list[PageEntry]) -> str:
    """The data-file key behind a failed batched page read.

    Store errors that know their key (``ObjectNotFound``) report it;
    otherwise the batch's first file stands in for the error message.
    """
    key = getattr(exc, "key", None)
    return key if isinstance(key, str) else entries[0].file_key


def _raise_unmaterialized(snap: Snapshot, path: str, exc: Exception):
    raise SnapshotNotFound(
        f"data file {path!r} of snapshot v{snap.version} is no longer "
        f"materialized (removed by a lake vacuum); search a newer snapshot"
    ) from exc


def _exact_key(query: Query):
    if hasattr(query, "index_probe"):
        return query.index_probe()
    raise RottnestIndexError(f"query {query!r} cannot probe an index")


def _iter_page_values(reader: ParquetFile, table: PageTable, column: str):
    """Yield each page's values in page-table order.

    Index builds stream whole files, so chunk-granularity reads are the
    right access width; the chunks are then re-sliced along the page
    boundaries the index will point at.
    """
    all_values: list = []
    vector_chunks: list[np.ndarray] = []
    # Chunk reads depend on the footer fetched at open: a dependent
    # round in the trace (chunks themselves fan out within the round).
    reader.store.barrier()
    for rg_index in range(len(reader.metadata.row_groups)):
        values = reader.read_column_chunk(rg_index, column)
        if isinstance(values, np.ndarray):
            vector_chunks.append(values)
        else:
            all_values.extend(values)
    column_values = (
        np.concatenate(vector_chunks) if vector_chunks else all_values
    )
    for entry in table.entries:
        yield column_values[entry.row_start : entry.row_start + entry.num_values]
