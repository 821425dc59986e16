"""Early-K: the search engine stops between waves once K matches exist.

Tasks are consumed in submission order. With one searcher (the inline
``client.search`` or a width-1 executor) that means no task runs past
the one that met K; with ``w`` searchers, no wave starts after the one
that met K. Wider pools may read more than width 1, never more than one
wave past K, and the matches never depend on the width.
"""

from __future__ import annotations

import pytest

from repro.core.client import RottnestClient
from repro.core.queries import SubstringQuery
from repro.formats.page_reader import build_page_table
from repro.formats.reader import ParquetFile
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.serve.executor import SearchExecutor
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

SCHEMA = Schema.of(Field("text", ColumnType.STRING))
FILES = 12
ROWS = 40
K = 5
QUERY = SubstringQuery("row ")  # every row of every file matches
WIDTHS = (1, 3, 8)


def _lake(*, index_each_file: bool):
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(
        store, "lake/k", SCHEMA, TableConfig(row_group_rows=16, page_target_bytes=256)
    )
    client = RottnestClient(store, "idx/k", lake)
    for f in range(FILES):
        lake.append({"text": [f"row {i} of file {f}" for i in range(ROWS)]})
        if index_each_file:
            client.index("text", "fm")
    return client


def _searches(client):
    """(label, result) for the inline client and every executor width."""
    yield "client", client.search("text", QUERY, k=K)
    for width in WIDTHS:
        with SearchExecutor(client, max_searchers=width) as ex:
            yield f"width{width}", ex.search("text", QUERY, k=K)


def _requested_keys(result) -> set[str]:
    return {req.key for round_ in result.stats.trace.rounds for req in round_}


def _match_ids(result):
    return [(m.file, m.row) for m in result.matches]


class TestBruteForceFill:
    @pytest.fixture(scope="class")
    def client(self):
        return _lake(index_each_file=False)

    def test_width_one_scans_only_the_first_file(self, client):
        paths = sorted(client.lake.snapshot().file_paths)
        for label, result in _searches(client):
            if label not in ("client", "width1"):
                continue
            assert len(result.matches) == K, label
            assert result.stats.files_brute_forced == 1, label
            assert not _requested_keys(result) & set(paths[1:]), label

    def test_wide_pools_scan_at_most_one_wave(self, client):
        for label, result in _searches(client):
            width = 1 if label == "client" else int(label.removeprefix("width"))
            assert result.stats.files_brute_forced == min(width, FILES), label

    def test_matches_do_not_depend_on_width(self, client):
        answers = {label: _match_ids(r) for label, r in _searches(client)}
        assert len(set(map(tuple, answers.values()))) == 1, answers


class TestIndexedProbes:
    """One index file per data file: every record's task finds pages."""

    @pytest.fixture(scope="class")
    def client(self):
        return _lake(index_each_file=True)

    def _pages(self, client, path: str) -> int:
        reader = ParquetFile(client.store, path)
        return len(build_page_table(reader.metadata, path, "text").entries)

    def test_pages_probed_counts_only_fetched_pages(self, client):
        paths = set(client.lake.snapshot().file_paths)
        for label, result in _searches(client):
            assert result.stats.index_files_queried == FILES, label
            fetched = _requested_keys(result) & paths
            assert fetched, label
            assert result.stats.pages_probed == sum(
                self._pages(client, path) for path in fetched
            ), label
            width = 1 if label == "client" else int(label.removeprefix("width"))
            assert len(fetched) == width, label

    def test_matches_do_not_depend_on_width(self, client):
        answers = {label: _match_ids(r) for label, r in _searches(client)}
        assert len(set(map(tuple, answers.values()))) == 1, answers
