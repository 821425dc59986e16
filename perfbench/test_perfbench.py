"""The benchmark's own tests, on tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

import speed  # noqa: E402
from shims import METRIC_SHIMS, PER_LAYER_METRICS, Shims, SpanRecorder  # noqa: E402
from workloads import LAKE_ROOT, TINY, WORKLOADS, Phase  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
NAMES = [w["name"] for w in BENCH["workloads"]]
QUERIES = 12
DATA_PREFIX = f"{LAKE_ROOT}/data/"

#: Record that shows a shim ran, where it differs from the shim's name.
EVIDENCE = {
    "indices.candidate_pages": "indices.probe",
    "search.result_stats": "search.pages_probed",
    "formats.decode_page": "formats.pages_decoded",
    "serve.cache_stats": "serve.cache_hit",
    "serve.singleflight": "serve.flights",
    "storage.request": "storage.get",
    "storage.plan_reads": "storage.subranges",
    "bench.op": "bench.query",
}


def _phase(name: str, rec):
    """Set a tiny deployment up and measure ``QUERIES`` queries. Data
    files set up by the workload get a random suffix per set-up, so
    answers name them by their place in the lake instead."""
    wl = WORKLOADS[name](**TINY[name])
    dep = wl.setup(wl.generate(7))
    try:
        wl.warmup(dep)
        phase = wl.measure(dep, 0.0, rec, min_queries=0, max_queries=QUERIES)
        paths = [key for key in dep["store"].keys() if key.startswith(DATA_PREFIX)]
        placed = {path: f"file{i}" for i, path in enumerate(paths)}
        phase.answers = {
            n: tuple((placed.get(f, f), r, v) for f, r, v in answer)
            for n, answer in phase.answers.items()
        }
        return phase
    finally:
        wl.close(dep)


def test_benchmark_lists_every_workload():
    assert sorted(NAMES) == sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_answers_match(name):
    untraced = _phase(name, None)
    rec = SpanRecorder()
    shims = Shims(rec).install()
    try:
        traced = _phase(name, rec)
    finally:
        shims.uninstall()
    assert not untraced.wrong and not traced.wrong
    assert not untraced.errors and not traced.errors
    assert len(untraced.answers) == QUERIES
    assert traced.answers == untraced.answers


def test_every_per_layer_metric_maps_to_an_installed_shim():
    assert set(PER_LAYER_METRICS) == {m["name"] for m in BENCH["per_layer"]}
    from repro.lake.table import LakeTable

    original = LakeTable.__dict__["snapshot"]
    shims = Shims(SpanRecorder()).install()
    try:
        assert shims.missing == []
        for metric, shim in METRIC_SHIMS.items():
            assert shims.installed.get(shim), f"{metric}: shim {shim} not installed"
        assert LakeTable.__dict__["snapshot"] is not original
    finally:
        shims.uninstall()
    assert LakeTable.__dict__["snapshot"] is original


def test_every_shim_fires_on_some_workload():
    seen: set[str] = set()
    for name in sorted(WORKLOADS):
        rec = SpanRecorder()
        shims = Shims(rec).install()
        try:
            _phase(name, rec)
        finally:
            shims.uninstall()
        seen.update(span[1] for span in rec.spans)
        seen.update(counter for _, counter in rec.counts())
    for shim in set(METRIC_SHIMS.values()):
        assert EVIDENCE.get(shim, shim) in seen, f"shim {shim} never ran"


def test_pool_tasks_count_to_the_layer_that_submitted_them():
    rec = SpanRecorder()
    shims = Shims(rec).install()
    try:
        _phase("serve_zipf", rec)
    finally:
        shims.uninstall()
    names = {span[0]: span[1] for span in rec.spans}
    tasks = [span for span in rec.spans if span[1].endswith(".task")]
    assert tasks
    assert {name for _, name, *_ in tasks} == {"serve.task"}
    assert all(names[parent] == "pool.run" for *_, parent, _ in tasks)
    # Storage self time is what the store requests and the pool's own
    # queueing took, never the executor work inside a task.
    pool_and_storage = sum(
        end - start
        for _, name, start, end, _, op in rec.spans
        if (name.startswith("storage.") or name == "pool.run") and rec.ops.get(op) == "query"
    )
    assert rec.self_time_by_layer("query")["storage"] <= pool_and_storage + 1e-9
    assert rec.self_time_by_layer("query")["serve"] > 0


def test_window_times_are_scaled_by_the_slowdown():
    window = Phase(latencies_s=[0.02, 0.04], modeled_s=[1.0, 1.0],
                   wall_s=0.1, cpu_s=0.08, gets=3)
    phase = Phase()
    phase.absorb(window, speed.slowdown(speed.REFERENCE_S, 3 * speed.REFERENCE_S))
    assert phase.latencies_s == [0.01, 0.02]
    assert (phase.wall_s, phase.cpu_s) == (0.05, 0.04)
    assert phase.modeled_s == [1.0, 1.0] and phase.gets == 3
    assert speed.probe() > 0


def test_lazy_scan_check_catches_a_skipped_scan():
    wl = WORKLOADS["lazy_scan"](**TINY["lazy_scan"])
    brute = wl.files - wl.indexed_files
    assert wl._check((), SimpleNamespace(files_brute_forced=brute)) is None
    assert wl._check((), SimpleNamespace(files_brute_forced=brute - 1))
    assert wl._check((("f", 0, "x"),), SimpleNamespace(files_brute_forced=brute))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny",
         "--max-queries", str(QUERIES)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= QUERIES
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench / name)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
