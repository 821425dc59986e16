"""Concurrent search execution (paper Fig. 8c/8d).

Rottnest's defining serving property is that index-file queries are
*independent*: one query fans its index probes and in-situ page reads
across searchers, latency stays ~flat (the dependency *depth* is the
floor) while cost grows ~linearly with searcher count.

There is one search procedure, :meth:`RottnestClient.search`'s; it
runs its tasks through a task runner. The client runs them inline on
the calling thread. :class:`SearchExecutor` hands the same procedure a
bounded :class:`~repro.storage.pool.TracedPool`, so the matches are the
ones the client returns, while the measured
:class:`~repro.storage.stats.RequestTrace` reflects the real
concurrency: each worker records its own per-thread trace; traces of
tasks running in the same wave of ``max_searchers`` workers merge with
``merge_parallel``, waves compose sequentially with ``then``. Wide
pools reproduce Fig. 8c's flat-latency/linear-cost curve.
"""

from __future__ import annotations

from repro.core.client import RottnestClient, SearchResult
from repro.core.queries import Query
from repro.errors import RottnestIndexError

# Kept as a module name so tooling that wraps page reads per module
# (perfbench's shims) finds the same target it always has.
from repro.formats.page_reader import fetch_pages  # noqa: F401
from repro.lake.snapshot import Snapshot
from repro.storage.pool import IOBudget, TracedPool


class SearchExecutor:
    """Runs one query's search plan across ``max_searchers`` workers.

    Usable as a context manager; :meth:`close` shuts the pool down.
    Matches are interchangeable with ``client.search``; only the
    request trace differs — its parallel shape, and for exact queries
    up to one wave of tasks read past the one that met K.
    """

    def __init__(
        self,
        client: RottnestClient,
        *,
        max_searchers: int = 4,
        budget: IOBudget | None = None,
    ) -> None:
        if max_searchers < 1:
            raise RottnestIndexError(
                f"max_searchers must be >= 1, got {max_searchers}"
            )
        self.client = client
        self.max_searchers = max_searchers
        # The fan-out machinery (per-worker traces, wave merging,
        # deterministic payload order) lives in TracedPool, shared with
        # the maintenance pipeline. A shared ``budget`` caps combined
        # in-flight tasks across everything holding it — the signal
        # that lets maintenance overlap serving without starving it.
        self._pool = TracedPool(
            client.store,
            workers=max_searchers,
            thread_name_prefix="searcher",
            span_name="searcher:task",
            budget=budget,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "SearchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ----------------------------------------------------
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
        """Concurrent equivalent of :meth:`RottnestClient.search`.

        ``use_indices=False`` skips index planning and fans the
        brute-force scans across the pool — the degraded mode
        :class:`~repro.serve.server.SearchServer` falls back to when an
        index component read fails mid-query.
        """
        return self.client._run_search(
            column,
            query,
            k=k,
            snapshot=snapshot,
            partition=partition,
            file_predicate=file_predicate,
            use_indices=use_indices,
            pool=self._pool,
        )
