"""Span-schema contract: every query path emits the same span tree.

Heat maps, bills, flight traces and metrics read a query's ``search``
span tree, so they must not care which path served the query. For every
conformance-matrix workload x lake state, ``client.search``,
``SearchServer.query`` and a one-shard ``QueryRouter`` must produce
``search`` trees with the same span names, in the same order, carrying
the same attribute keys. Pool worker spans (``searcher:task``) are not
part of the schema, and the ``engine`` label's value names the runner.
"""

from __future__ import annotations

import pytest

from repro.maintain import MaintenancePipeline
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.obs.trace import Span, Tracer, use_tracer
from repro.serve.server import SearchServer
from repro.shard import QueryRouter, ShardPlan

from tests.test_conformance_matrix import STATES, WORKLOADS, _fresh

WORKER_SPANS = {"searcher:task"}


def _schema(span: Span) -> list[tuple[str, tuple[str, ...]]]:
    """(name, sorted attribute keys) of a tree, depth-first, with
    worker spans and their subtrees left out."""
    out = [(span.name, tuple(sorted(span.attributes)))]
    for child in span.children:
        if child.name not in WORKER_SPANS:
            out.extend(_schema(child))
    return out


def _search_schemas(tracer: Tracer) -> list:
    """One schema per ``search`` span among the finished roots."""
    return [
        _schema(search)
        for root in tracer.pop_finished()
        for search in root.find_all("search")
    ]


def _client_schemas(client, column, queries) -> list:
    tracer = Tracer(clock=client.store.clock)
    with use_tracer(tracer):
        for query, k in queries:
            client.search(column, query, k=k)
    return _search_schemas(tracer)


CELLS = [(w, s) for w in WORKLOADS for s in sorted(STATES)]
IDS = [f"{w.name}-{s}" for w, s in CELLS]


@pytest.fixture(params=CELLS, ids=IDS)
def deployment(request):
    workload, state = request.param
    store, lake, client = _fresh(workload)
    with MaintenancePipeline(client, workers=1) as pipe:
        STATES[state](workload, store, lake, pipe)
    return workload, state, lake, client


def test_server_emits_the_client_schema(deployment):
    workload, _, lake, client = deployment
    queries = workload.queries(lake)
    expected = _client_schemas(client, workload.column, queries)
    assert len(expected) == len(queries)

    tracer = Tracer(clock=client.store.clock)
    with use_tracer(tracer), SearchServer(client) as server:
        for query, k in queries:
            server.query(workload.column, query, k=k)
    assert _search_schemas(tracer) == expected


def test_one_shard_router_emits_the_client_schema(deployment):
    workload, state, lake, _ = deployment
    queries = workload.queries(lake)
    indexes = (
        []
        if state == "unindexed"
        else [(workload.column, workload.index_type, workload.params)]
    )
    with use_hub(TelemetryHub()):
        shards = ShardPlan(n_shards=1).materialize(lake, "uuid", indexes=indexes)
        with shards, QueryRouter(shards, hedge=None) as router:
            # The reference runs on the shard's own lake state, which
            # the router's single shard serves.
            shard_client = shards.groups[0].replicas[0].server.client
            expected = _client_schemas(shard_client, workload.column, queries)
            tracer = Tracer(clock=shard_client.store.clock)
            with use_tracer(tracer):
                for query, k in queries:
                    router.query(workload.column, query, k=k)
            assert _search_schemas(tracer) == expected


def test_engine_label_names_the_runner(deployment):
    workload, _, lake, client = deployment
    query, k = workload.queries(lake)[0]
    tracer = Tracer(clock=client.store.clock)
    with use_tracer(tracer):
        client.search(workload.column, query, k=k)
        with SearchServer(client, max_searchers=3) as server:
            server.query(workload.column, query, k=k)
    inline, pooled = (
        search for root in tracer.pop_finished() for search in root.find_all("search")
    )
    assert (inline.attributes["engine"], inline.attributes["searchers"]) == ("client", 1)
    assert (pooled.attributes["engine"], pooled.attributes["searchers"]) == ("executor", 3)
