"""Property tests for the cracking heat map (hypothesis + unit).

The controller's correctness story leans on three algebraic facts:

* **decay/merge commutativity** — sharded searchers can each decay
  their local map and merge later, or merge first and decay once, and
  the controller sees the same ranking either way;
* **non-negativity** — heat is a sum of non-negative exponential
  terms, so no observation order or query time can produce negative
  heat (a negative counter would flip benefit-per-IO signs);
* **eviction safety** — ``evict_cold`` never forgets a key the policy
  could still act on (heat at or above the floor survives).

Plus the plumbing: span ingestion reads exactly the attributes the
search client records, and serialization round-trips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CrackError
from repro.crack.heat import (
    DEFAULT_HALF_LIFE_S,
    HeatKey,
    HeatMap,
    cell_scope,
)
from repro.obs.trace import Tracer

KEYS = st.sampled_from(
    [
        HeatKey("lake/a.parquet", "uuid"),
        HeatKey("lake/b.parquet", "uuid"),
        HeatKey("lake/b.parquet", "text"),
        HeatKey(cell_scope("idx/f-1.bin", 3), "emb"),
    ]
)
WEIGHTS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
TIMES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
OBSERVATIONS = st.lists(
    st.tuples(KEYS, WEIGHTS, TIMES), min_size=0, max_size=24
)


def _fill(observations, *, half_life_s=DEFAULT_HALF_LIFE_S) -> HeatMap:
    hm = HeatMap(half_life_s=half_life_s)
    for key, weight, at_s in observations:
        hm.observe(key, weight, at_s=at_s)
    return hm


def _heats(hm: HeatMap, at_s: float) -> dict[HeatKey, float]:
    return {key: hm.heat(key, at_s=at_s) for key in hm.keys()}


def _probe_time(*observation_lists, offset: float = 0.0) -> float:
    """A query time at/after every observation, as the controller's
    "now" always is (asking about heat *before* an observation would
    evaluate the exponential backward and overflow by design)."""
    stamps = [t for obs in observation_lists for (_, _, t) in obs]
    return max(stamps, default=0.0) + offset


class TestAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(left=OBSERVATIONS, right=OBSERVATIONS, at_s=TIMES)
    def test_decay_then_merge_equals_merge_then_decay(
        self, left, right, at_s
    ):
        a = _fill(left).decay_to(at_s)
        b = _fill(right).decay_to(at_s)
        decayed_first = a.merge(b)

        merged_first = _fill(left).merge(_fill(right)).decay_to(at_s)

        probe = _probe_time(left, right, offset=at_s + 120.0)
        got = _heats(decayed_first, probe)
        want = _heats(merged_first, probe)
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(observations=OBSERVATIONS, at_s=TIMES)
    def test_heat_is_never_negative(self, observations, at_s):
        hm = _fill(observations)
        probe = _probe_time(observations, offset=at_s)
        for key in hm.keys():
            assert hm.heat(key, at_s=probe) >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        observations=OBSERVATIONS,
        floor=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        at_s=TIMES,
    )
    def test_eviction_never_drops_a_key_at_or_above_the_floor(
        self, observations, floor, at_s
    ):
        hm = _fill(observations)
        probe = _probe_time(observations, offset=at_s)
        survivors_wanted = {
            key for key in hm.keys() if hm.heat(key, at_s=probe) >= floor
        }
        hm.evict_cold(floor, at_s=probe)
        assert survivors_wanted <= set(hm.keys())
        # And nothing cold survived either: eviction is exact.
        for key in hm.keys():
            assert hm.heat(key, at_s=probe) >= floor

    @settings(max_examples=100, deadline=None)
    @given(observations=OBSERVATIONS, at_s=TIMES)
    def test_ingest_order_is_irrelevant(self, observations, at_s):
        forward = _fill(observations)
        backward = _fill(list(reversed(observations)))
        probe = _probe_time(observations, offset=at_s)
        got = _heats(forward, probe)
        want = _heats(backward, probe)
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(observations=OBSERVATIONS, at_s=TIMES)
    def test_serialization_round_trips(self, observations, at_s):
        hm = _fill(observations)
        clone = HeatMap.from_dict(hm.to_dict())
        probe = _probe_time(observations, offset=at_s)
        assert _heats(clone, probe) == _heats(hm, probe)
        assert clone.to_dict() == hm.to_dict()


class TestValidation:
    def test_rejects_nonpositive_half_life(self):
        with pytest.raises(CrackError):
            HeatMap(half_life_s=0.0)

    def test_rejects_negative_weight(self):
        hm = HeatMap()
        with pytest.raises(CrackError):
            hm.observe(HeatKey("f", "c"), -1.0, at_s=0.0)

    def test_rejects_negative_floor(self):
        with pytest.raises(CrackError):
            HeatMap().evict_cold(-0.5, at_s=0.0)

    def test_rejects_mismatched_half_life_merge(self):
        with pytest.raises(CrackError):
            HeatMap(half_life_s=60.0).merge(HeatMap(half_life_s=30.0))

    def test_rejects_malformed_payload(self):
        with pytest.raises(CrackError):
            HeatMap.from_dict({"cells": []})
        with pytest.raises(CrackError):
            HeatMap.from_dict(
                {"half_life_s": 60.0, "cells": [["only", "three", "items"]]}
            )

    def test_rejects_kind_keyed_payload(self):
        """Cells keyed (scope, column, kind) predate the (scope, column)
        key; they are malformed, not silently folded."""
        with pytest.raises(CrackError):
            HeatMap.from_dict(
                {
                    "half_life_s": 60.0,
                    "cells": [["lake/a", "uuid", "UuidQuery", 1.0, 0.0]],
                }
            )


class TestHalfLife:
    def test_heat_halves_every_half_life(self):
        hm = HeatMap(half_life_s=100.0)
        key = HeatKey("f", "c")
        hm.observe(key, 8.0, at_s=0.0)
        assert hm.heat(key, at_s=0.0) == pytest.approx(8.0)
        assert hm.heat(key, at_s=100.0) == pytest.approx(4.0)
        assert hm.heat(key, at_s=300.0) == pytest.approx(1.0)

    def test_out_of_order_observation_matches_in_order(self):
        in_order = HeatMap(half_life_s=100.0)
        out_of_order = HeatMap(half_life_s=100.0)
        key = HeatKey("f", "c")
        in_order.observe(key, 4.0, at_s=0.0)
        in_order.observe(key, 2.0, at_s=100.0)
        out_of_order.observe(key, 2.0, at_s=100.0)
        out_of_order.observe(key, 4.0, at_s=0.0)
        assert in_order.heat(key, at_s=200.0) == pytest.approx(
            out_of_order.heat(key, at_s=200.0)
        )


class TestSpanIngestion:
    def _search_root(self, tracer, *, column, kind):
        with tracer.span("search") as root:
            root.set("column", column)
            root.set("kind", kind)
            return root

    def test_reads_brute_probe_and_cell_attributes(self):
        tracer = Tracer()
        with tracer.span("search") as root:
            root.set("column", "uuid")
            root.set("kind", "UuidQuery")
            with tracer.span("brute_force") as brute:
                brute.set("scanned_files", ("lake/a", "lake/b"))
            with tracer.span("probe:pages") as probe:
                probe.set("probed_files", ("lake/c",))
            with tracer.span("probe:index") as idx:
                idx.set("cell_probes", (("idx/v-1.bin", (0, 2)),))
        hm = HeatMap()
        observed = hm.observe_spans(tracer.pop_finished())
        assert observed == 5
        at_s = 10.0
        files = hm.file_heat(at_s=at_s, column="uuid")
        assert set(files) == {"lake/a", "lake/b", "lake/c"}
        cells = hm.cell_heat(at_s=at_s)
        assert set(cells) == {("idx/v-1.bin", 0), ("idx/v-1.bin", 2)}

    def test_ignores_non_search_roots(self):
        tracer = Tracer()
        with tracer.span("daemon.tick"):
            with tracer.span("brute_force") as brute:
                brute.set("scanned_files", ("lake/a",))
        hm = HeatMap()
        assert hm.observe_spans(tracer.pop_finished()) == 0
        assert len(hm) == 0

    def test_hottest_ranking_is_deterministic_under_ties(self):
        hm = HeatMap()
        for scope in ("lake/b", "lake/a"):
            hm.observe(HeatKey(scope, "uuid"), 1.0, at_s=0.0)
        ranked = [key.scope for key, _ in hm.hottest(at_s=0.0)]
        assert ranked == ["lake/a", "lake/b"]
