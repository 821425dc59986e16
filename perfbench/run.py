"""Measured end-to-end benchmark of the Rottnest reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 25 --trace 0

The program under test is ``src/repro`` of the same checkout; nothing
is built. One run:

1. pins itself to one CPU (see ``_pin_to_one_cpu``) and generates
   the workload's inputs and oracle answers from ``--seed``;
2. sets the deployment up and warms it up;
3. measures for ``--seconds`` seconds (and at least 200 queries) in
   eight slices, checking every answer against the oracle, and sets the
   deployment up twice more after each slice: set-up time is the median
   of the seventeen set-ups;
4. prints, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

Every time the run reports (latencies, wall and CPU time, set-ups) is
scaled to a reference CPU: each half-second window, and each set-up, is
bracketed by the speed probe of ``speed.py`` and divided by the
slowdown the probes read. Standard error shows the set-up times and
the slowdowns.

With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``. With ``--trace 1`` the first half of the time runs
untraced and the second half with the layer shims of ``shims.py``
installed; the metrics are the per-layer ones, including the tracing
overhead (traced against untraced queries per second), and the spans
are written to ``perfbench/out/``. A wrong answer prints
``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: The untraced timed phase runs in this many slices, with
#: SETUPS_PER_SLICE more set-ups after each: set-up time is the median
#: of 1 + SLICES * SETUPS_PER_SLICE set-ups.
SLICES = 8
SETUPS_PER_SLICE = 2
#: Fewest queries one run measures: at 200, ten lie beyond the p95.
MIN_QUERIES = 200
WORKLOAD_NAMES = ("serve_zipf", "lazy_scan", "ingest_mixed")
END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "qps": "1/s",
    "cpu_ms_per_query": "ms",
    "modeled_mean_ms": "ms",
    "requests_per_query": "count",
    "usd_per_1m_queries": "usd",
    "ingest_rows_per_s": "1/s",
    "write_bytes_per_user_byte": "ratio",
    "stored_bytes_per_user_byte": "ratio",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Put this checkout's ``src`` first on the path and import from it;
    a checkout without the program fails here."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {SRC}/repro; run from a checkout")
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The program is bound by the interpreter lock, so it uses about one
    core however many it is given. Spread over two virtual CPUs, every
    hand-off of the lock between threads becomes a cross-CPU wake-up,
    whose cost depends on what else the host runs: it moved
    ``serve_zipf``'s qps by up to a third from minute to minute.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def end_to_end(phase, *, setups: list[float], setup_written: int, setup_stored: int,
               rows: int, user_bytes: int) -> dict[str, float]:
    """Every end-to-end metric of one untraced phase.

    Read-only workloads write only while they set up, so their write
    figures describe loading the lake and building its indices (the
    rate over all set-ups of the run); on ``ingest_mixed`` they
    describe the timed phase.
    """
    from repro.storage.costs import CostModel
    from shims import nearest_rank, per

    queries = phase.queries
    fees = CostModel().request_cost(gets=phase.gets, puts=phase.puts, lists=phase.lists)
    if phase.rows_written:
        rows_per_s = phase.rows_written / phase.wall_s
        write_amp = phase.bytes_written / phase.user_bytes
        stored_amp = phase.bytes_stored / phase.user_bytes
    else:
        rows_per_s = rows / statistics.median(setups)
        write_amp = setup_written / user_bytes
        stored_amp = setup_stored / user_bytes
    return {
        "setup_s": statistics.median(setups),
        "query_p50_ms": statistics.median(phase.latencies_s) * 1000.0,
        "query_p95_ms": nearest_rank(phase.latencies_s, 0.95) * 1000.0,
        "qps": queries / phase.wall_s,
        "cpu_ms_per_query": per(phase.cpu_s, queries) * 1000.0,
        "modeled_mean_ms": statistics.fmean(phase.modeled_s) * 1000.0,
        "requests_per_query": per(phase.requests, queries),
        "usd_per_1m_queries": per(fees, queries) * 1e6,
        "ingest_rows_per_s": rows_per_s,
        "write_bytes_per_user_byte": write_amp,
        "stored_bytes_per_user_byte": stored_amp,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        tiny: bool = False, max_queries: int | None = None,
        spans_dir: str | None = None) -> tuple[dict, list]:
    """One benchmark run; returns the result object and what went wrong."""
    from shims import PER_LAYER_METRICS, Shims, SpanRecorder, per_layer_metrics
    from speed import probe, slowdown
    from workloads import TINY, WORKLOADS, Phase

    wl = WORKLOADS[workload](**(TINY[workload] if tiny else {}))
    inputs = wl.generate(seed)
    rows, user_bytes = wl.user_rows_bytes(inputs)
    setups: list[float] = []

    def set_up():
        before = probe()
        start = time.perf_counter()
        dep = wl.setup(inputs)
        elapsed = time.perf_counter() - start
        setups.append(elapsed / slowdown(before, probe()))
        return dep

    dep = set_up()
    setup_written = dep["store"].stats.bytes_written
    setup_stored = dep["store"].total_bytes()
    try:
        wl.warmup(dep)
        if not trace:
            # Slices of the timed phase alternate with further set-ups,
            # so both sample the whole run rather than one moment of it.
            phase = Phase()
            for _ in range(SLICES):
                phase.absorb(wl.measure(dep, seconds / SLICES, None,
                                        min_queries=MIN_QUERIES // SLICES,
                                        max_queries=max_queries))
                for _ in range(SETUPS_PER_SLICE):
                    wl.close(set_up())
            phases = [phase]
            metrics = end_to_end(
                phase, setups=setups,
                setup_written=setup_written, setup_stored=setup_stored,
                rows=rows, user_bytes=user_bytes,
            )
            units = END_TO_END_UNITS
        else:
            untraced = wl.measure(dep, seconds / 2, None, min_queries=MIN_QUERIES // 2,
                                  max_queries=max_queries)
            rec = SpanRecorder()
            shims = Shims(rec).install()
            try:
                traced = wl.measure(dep, seconds / 2, rec, min_queries=MIN_QUERIES // 2,
                                    max_queries=max_queries)
            finally:
                shims.uninstall()
            phases = [untraced, traced]
            metrics = per_layer_metrics(rec, user_bytes=traced.user_bytes)
            qps_untraced = untraced.queries / untraced.wall_s
            qps_traced = traced.queries / traced.wall_s
            metrics["trace.qps_untraced"] = qps_untraced
            metrics["trace.qps_traced"] = qps_traced
            metrics["trace.overhead_frac"] = 1.0 - qps_traced / qps_untraced
            units = {name: _per_layer_unit(name) for name in PER_LAYER_METRICS}
            if spans_dir is not None:
                os.makedirs(spans_dir, exist_ok=True)
                rec.write(os.path.join(spans_dir, f"spans-{workload}-seed{seed}.jsonl"))
        problems = [p for phase in phases for p in phase.wrong] + wl.finish(dep)
    finally:
        wl.close(dep)
    print(f"perfbench: set-up times {', '.join(f'{s:.3f}' for s in setups)} s",
          file=sys.stderr)
    slowdowns = sorted(s for phase in phases for s in phase.slowdowns)
    if slowdowns:
        print(f"perfbench: host slowdown over {len(slowdowns)} windows: "
              f"min {slowdowns[0]:.3f}, median {statistics.median(slowdowns):.3f}, "
              f"max {slowdowns[-1]:.3f}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, problems + [e for p in phases for e in p.errors]


def _per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_per_query", "_ms_per_batch", "_ms_per_drain",
                      "_ms_per_run", "_ms_per_krow")):
        return "ms"
    if name.endswith(("_frac", "_rate", "coalesce_factor", "_per_user_byte")):
        return "ratio"
    if name.startswith("trace.qps"):
        return "1/s"
    if name.endswith("bytes_read_per_query"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--max-queries", type=int, default=None,
                        help="run exactly this many queries per timed slice (tests)")
    args = parser.parse_args(argv)
    _import_program()
    _pin_to_one_cpu()
    result, problems = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        tiny=args.tiny, max_queries=args.max_queries,
        spans_dir=os.path.join(HERE, "out"),
    )
    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
