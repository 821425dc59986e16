"""Search-engine golden file: answers and modeled traces per query.

``tests/golden/search_engine.json`` records, for every conformance-matrix
workload x lake state and every query of it, what ``client.search`` and
:class:`~repro.serve.executor.SearchExecutor` (widths 1, 4, 16) return:
the matches, the request count, the trace depth and the modeled latency.
The file was recorded before the two search implementations were folded
into one engine, so it pins that the merge changed no answer and made no
query dearer:

* every answer is identical;
* no query issues more requests or has a higher modeled latency;
* a query whose K was never met (every task had to run) has an
  identical trace.

Lake data-file names carry a random nonce, so files are recorded by
their rank in the snapshot's sorted path list.

Re-record (only when the engine's *contract* changes on purpose)::

    PYTHONPATH=src python -m tests.test_search_golden
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.maintain import MaintenancePipeline
from repro.serve.executor import SearchExecutor
from repro.storage.latency import LatencyModel

from tests.test_conformance_matrix import STATES, WORKLOADS, _fresh

GOLDEN = pathlib.Path(__file__).parent / "golden" / "search_engine.json"
WIDTHS = (1, 4, 16)
ENGINES = ("client",) + tuple(f"executor{w}" for w in WIDTHS)


def _record_cell(workload, state) -> dict[str, list[dict]]:
    """Every engine's observations for one workload x lake state."""
    store, lake, client = _fresh(workload)
    with MaintenancePipeline(client, workers=1) as pipe:
        STATES[state](workload, store, lake, pipe)
    rank = {path: i for i, path in enumerate(sorted(lake.snapshot().file_paths))}
    model = LatencyModel()

    def observe(result, k) -> dict:
        trace = result.stats.trace
        return {
            "matches": [
                [rank[m.file], m.row, None if m.score is None else round(m.score, 4)]
                for m in result.matches
            ],
            "k": k,
            "scoring": result.matches[0].score is not None if result.matches else False,
            "requests": trace.total_requests,
            "depth": trace.depth,
            "latency": round(model.trace_latency(trace), 9),
        }

    queries = workload.queries(lake)
    out = {"client": [observe(client.search(workload.column, q, k=k), k) for q, k in queries]}
    for width in WIDTHS:
        with SearchExecutor(client, max_searchers=width) as ex:
            out[f"executor{width}"] = [
                observe(ex.search(workload.column, q, k=k), k) for q, k in queries
            ]
    return out


def _cells():
    return [(w, s) for w in WORKLOADS for s in sorted(STATES)]


def record() -> dict:
    """Observations for the whole matrix, keyed ``workload/state``."""
    return {f"{w.name}/{s}": _record_cell(w, s) for w, s in _cells()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "workload,state",
    _cells(),
    ids=[f"{w.name}-{s}" for w, s in _cells()],
)
def test_engine_matches_golden(golden, workload, state):
    expected = golden[f"{workload.name}/{state}"]
    actual = _record_cell(workload, state)
    for engine in ENGINES:
        for i, (was, now) in enumerate(zip(expected[engine], actual[engine])):
            label = f"{workload.name}/{state}/{engine}/q{i}"
            assert now["matches"] == was["matches"], label
            assert now["requests"] <= was["requests"], label
            assert now["latency"] <= was["latency"] + 1e-9, label
            if was["scoring"] or len(was["matches"]) < was["k"]:
                # Top-k ranks everything, and an unmet K runs every
                # task: either way no early stop, so the same trace.
                assert (now["requests"], now["depth"], now["latency"]) == (
                    was["requests"], was["depth"], was["latency"]
                ), label
        assert len(actual[engine]) == len(expected[engine])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
