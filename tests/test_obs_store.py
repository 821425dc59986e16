"""Snapshot store: durable, mergeable telemetry across processes/runs.

The fold is the load-bearing claim: every component of a snapshot
(hub series, quantile sketches + exemplars, cost ledger, metrics
registry, crack heat map, flight/source sets) merges commutatively and
associatively, so folding snapshots from any number of processes,
shards, or runs gives one answer regardless of order — pinned here
with a hypothesis permutation property over randomized payloads.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crack.heat import HeatKey, HeatMap
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import default_slo
from repro.obs.store import (
    SnapshotStore,
    fold_snapshots,
    merge_metrics,
    snapshot_payload,
    validate_snapshot,
)
from repro.obs.timeseries import TelemetryHub
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock


def _store():
    return InMemoryObjectStore(clock=SimClock(start=1_000_000.0))


def _hub(seed: int, *, window_s: float = 60.0) -> TelemetryHub:
    """A deterministic hub with serve, router-shard and ingest series."""
    hub = TelemetryHub(window_s=window_s)
    base = 1_000_000.0 + seed * 7
    for i in range(5 + seed):
        at_s = base + i * 11.0
        value = 0.01 * (i + 1 + seed)
        hub.quantiles("serve.latency_s").observe(
            value, at_s=at_s, trace_id=f"t{seed}-{i}"
        )
        hub.series("serve.queries").observe(1.0, at_s=at_s)
        hub.series(f"router.shard{seed % 3}.queries").observe(1.0, at_s=at_s)
        hub.quantiles("ingest.freshness_lag_s").observe(
            value * 10, at_s=at_s
        )
        hub.ledger.record_query(1e-6, 2e-6, at_s=at_s)
    return hub


def _heat(seed: int) -> HeatMap:
    heat = HeatMap()
    for i in range(3):
        heat.observe(
            HeatKey(f"lake/f{(seed + i) % 4}.bin", "text"),
            float(seed + i + 1),
            at_s=1_000_000.0 + i,
        )
    return heat


def _registry(seed: int) -> MetricsRegistry:
    reg = MetricsRegistry()
    counter = reg.counter("queries_total", "queries", ("status",))
    counter.inc(amount=seed + 1, status="ok")
    gauge = reg.gauge("inflight", "in flight")
    gauge.set(float(seed))
    hist = reg.histogram(
        "latency_s", "latency", buckets=(0.1, 1.0)
    )
    hist.observe(0.05 * (seed + 1), trace_id=f"h{seed}")
    return reg


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _canon(payload: dict) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True)


def _payload(seed: int) -> dict:
    return snapshot_payload(
        _hub(seed),
        registry=_registry(seed),
        heat=_heat(seed),
        slo=default_slo(),
        source=f"proc-{seed}",
        at_s=1_000_000.0 + seed,
        flights=[f"flight-{seed}"],
    )


class TestCommit:
    def test_commit_load_round_trip(self):
        store = _store()
        snaps = SnapshotStore(store)
        key = snaps.commit(
            _hub(1), registry=_registry(1), heat=_heat(1), source="a"
        )
        payload = snaps.load(key)
        validate_snapshot(payload)
        assert payload["sources"] == ["a"]
        assert payload["at_s"] == 1_000_000.0  # SimClock, no advance
        hub = TelemetryHub.from_snapshot(payload["hub"])
        assert hub.series("serve.queries").count() == 6

    def test_commit_is_content_addressed_and_idempotent(self):
        store = _store()
        snaps = SnapshotStore(store)
        key1 = snaps.commit(_hub(1), source="a")
        before = store.stats.snapshot()
        key2 = snaps.commit(_hub(1), source="a")
        assert key1 == key2
        assert store.stats.snapshot().delta(before).puts == 0
        assert len(snaps.keys()) == 1

    def test_snapshots_sorted_by_time(self):
        store = _store()
        snaps = SnapshotStore(store)
        snaps.commit(_hub(1), source="b", at_s=2_000.0)
        snaps.commit(_hub(2), source="a", at_s=1_000.0)
        assert [p["at_s"] for p in snaps.snapshots()] == [1_000.0, 2_000.0]


class TestMergeMetrics:
    def test_counters_add_gauges_max_histograms_bucketwise(self):
        a = _registry(1).snapshot()
        b = _registry(4).snapshot()
        merged = merge_metrics(a, b)
        assert merged["queries_total"]["series"]['status="ok"'] == 2 + 5
        assert merged["inflight"]["series"][""] == 4.0
        hist = merged["latency_s"]["series"][""]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.05 * 2 + 0.05 * 5)
        # Exemplar: the larger observation's trace id wins the bucket.
        assert hist["exemplars"]["1"]["trace_id"] == "h4"

    def test_kind_mismatch_raises(self):
        reg_a = MetricsRegistry()
        reg_a.counter("x_total", "x").inc()
        reg_b = MetricsRegistry()
        reg_b.gauge("x_total", "x").set(1.0)
        with pytest.raises(ReproError):
            merge_metrics(reg_a.snapshot(), reg_b.snapshot())

    def test_merge_does_not_mutate_inputs(self):
        a = _registry(1).snapshot()
        b = _registry(2).snapshot()
        a_before = json.dumps(a, sort_keys=True)
        b_before = json.dumps(b, sort_keys=True)
        merge_metrics(a, b)
        assert json.dumps(a, sort_keys=True) == a_before
        assert json.dumps(b, sort_keys=True) == b_before


class TestFold:
    def test_fold_sums_hub_series_and_merges_heat(self):
        folded = fold_snapshots([_payload(0), _payload(1)])
        hub = TelemetryHub.from_snapshot(folded["hub"])
        assert hub.series("serve.queries").count() == 5 + 6
        assert folded["sources"] == ["proc-0", "proc-1"]
        assert folded["flights"] == ["flight-0", "flight-1"]
        heat = HeatMap.from_dict(folded["heat"])
        merged_ref = _heat(0).merge(_heat(1))
        assert heat.to_dict() == merged_ref.to_dict()
        # Point-in-time SLO verdicts are collected, not merged.
        assert len(folded["slo_reports"]) == 2

    def test_fold_empty_and_bad_schema(self):
        empty = fold_snapshots([])
        validate_snapshot(empty)
        assert empty["hub"] is None
        with pytest.raises(ReproError):
            fold_snapshots([{"schema": "nope"}])

    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    def test_fold_is_order_independent(self, seeds, data):
        """Merge-order irrelevance: folding any permutation of the same
        payloads — including duplicated sources — gives one answer.

        Floats are normalized to 12 significant digits before
        comparing: the fold's *structure* (which windows, counts,
        exemplars, sets) must match exactly; accumulated sums may
        differ in the last ulp because float addition itself is not
        bit-associative.
        """
        payloads = [_payload(s) for s in seeds]
        perm = data.draw(st.permutations(payloads))
        a = fold_snapshots(payloads)
        b = fold_snapshots(perm)
        assert _canon(a) == _canon(b)

    def test_fold_is_associative_via_refold(self):
        """fold(a, b, c) == fold(fold(a, b), c) — folding a fold."""
        a, b, c = _payload(0), _payload(1), _payload(2)
        direct = fold_snapshots([a, b, c])
        staged = fold_snapshots([fold_snapshots([a, b]), c])
        assert _canon(direct) == _canon(staged)


class TestCrossProcessStore:
    def test_two_processes_fold_through_the_store(self):
        store = _store()
        # Two independent "processes" commit their planes.
        SnapshotStore(store).commit_payload(_payload(0))
        SnapshotStore(store).commit_payload(_payload(1))
        snaps = SnapshotStore(store)
        assert len(snaps.keys()) == 2
        hub = snaps.folded_hub()
        assert hub is not None
        assert hub.series("serve.queries").count() == 11
        folded = snaps.fold()
        assert folded["sources"] == ["proc-0", "proc-1"]

    def test_folded_hub_none_without_snapshots(self):
        assert SnapshotStore(_store()).folded_hub() is None

    def test_crack_controller_spills_heat(self, indexed_client):
        from repro.crack import CrackController

        store = indexed_client.store
        snaps = SnapshotStore(store)
        controller = CrackController(
            indexed_client, [("uuid", "uuid_trie")], snapshots=snaps
        )
        controller.heat.observe(
            HeatKey("lake/f0.bin", "uuid"),
            5.0,
            at_s=store.clock.now(),
        )
        controller.tick()
        payloads = snaps.snapshots()
        assert len(payloads) == 1
        assert payloads[0]["sources"] == ["crack"]
        heat = HeatMap.from_dict(payloads[0]["heat"])
        assert len(heat) >= 1
