"""The cracking controller: heat map -> ranked work -> targeted commits.

:class:`CrackController` is a :class:`~repro.core.daemon.MaintenanceDaemon`
whose tick is driven by *observed queries* instead of a schedule. Each
tick it asks the :class:`~repro.crack.policy.CrackingPolicy` to rank
work by expected benefit per IO, then runs the top few items:

* **targeted indexing** — the inherited
  :meth:`~repro.core.daemon.MaintenanceDaemon.run_index` with a
  snapshot restricted to the currently-hot uncovered files, so only
  they get indexed and cold files stay on the brute-force path;
* **cell refinement** — :func:`refine_index` rewrites one IVF-PQ file
  with its hottest inverted lists split in two, committing the result
  exactly like compaction does (content-addressed upload, idempotent
  metadata insert), so the old file becomes vacuum fodder.

The tick itself never vacuums and never compacts: both mutate state
from *wall-clock* inputs (``_last_vacuum`` lives on the daemon object,
not in the store), which would make a crash-recovered controller
diverge from an uninterrupted one. Cracking commits only through the
two idempotent verbs above, which is what lets the ``repro chaos``
matrix prove byte-identical convergence after a crash at every PUT
(see ``crack:*`` rows in ``docs/protocol.md``).
"""

from __future__ import annotations

import dataclasses

from repro.core.daemon import MaintenanceDaemon, TickReport
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.core.maintenance import covering_records
from repro.crack.heat import HeatMap
from repro.crack.policy import CrackingPolicy
from repro.indices.vector.ivf_pq import IvfPqBuilder
from repro.meta.metadata_table import IndexRecord
from repro.obs.metrics import get_registry
from repro.obs.timeseries import get_hub
from repro.obs.trace import Span, Tracer, get_tracer

_TICKS = get_registry().counter(
    "crack_ticks_total", "Cracking controller ticks by outcome", ("outcome",)
)
_ACTIONS = get_registry().counter(
    "crack_actions_total", "Cracking work items run by ticks", ("action",)
)


def refine_index(
    client,
    record: IndexRecord,
    cells,
    *,
    min_cell_rows: int = 32,
    max_nlist: int = 64,
    seed: int = 0,
) -> IndexRecord | None:
    """Split ``cells`` of one committed IVF-PQ file; commit the rewrite.

    Returns the new record, or ``None`` if nothing was worth splitting
    (cells too small, all members coincide, or the file already reached
    ``max_nlist``). Mirrors the compaction commit protocol exactly:

    * the rewritten file goes to a **content-addressed** key, so a
      re-run after a crash mid-upload overwrites the same bytes at the
      same key instead of accreting orphans;
    * the metadata insert **skips already-live keys**, so a re-run
      after a crash between commit and checkpoint is a no-op;
    * the old record is left for :func:`~repro.core.maintenance.vacuum_indices`
      — newest-first planning prefers the refined file immediately.

    Deterministic for a given (source bytes, cells, seed): the split is
    2-means over decoded vectors with a seed derived from the cell
    ordinal, and untouched lists keep their exact bytes.
    """
    reader = IndexFileReader.open(client.store, record.index_key)
    if reader.params.get("nlist", 0) >= max_nlist:
        return None
    builder = IvfPqBuilder.load(reader)
    room = max_nlist - builder.nlist
    wanted = sorted({int(c) for c in cells})[:room]
    if not wanted:
        return None
    splits = builder.refine_cells(
        wanted, min_cell_rows=min_cell_rows, seed=seed
    )
    if not splits:
        return None
    writer = IndexFileWriter(
        record.index_type,
        record.column,
        reader.directory,
        params=dict(reader.params),
        codec=client.codec,
    )
    builder.write(writer)
    blob = writer.finish()
    key = client.new_index_key(blob, deterministic=True)
    client.store.put(key, blob)
    new_record = IndexRecord(
        index_key=key,
        index_type=record.index_type,
        column=record.column,
        covered_files=tuple(record.covered_files),
        num_rows=record.num_rows,
        size=len(blob),
        created_at=client.store.clock.now(),
    )
    if key not in {r.index_key for r in client.meta.records()}:
        client.meta.insert([new_record])
    return new_record


class CrackController(MaintenanceDaemon):
    """Query-adaptive maintenance: index what is hot, leave the rest.

    Feed it span trees with :meth:`observe`, or drain the tracer the
    searches ran under with :meth:`observe_tracer` (the process-default
    tracer keeps no finished roots, so the caller installs its own),
    then :meth:`tick`. All durable inputs live in the store — the heat
    map is a *hint*, not state the protocol depends on: a controller
    restarted with an empty map simply re-learns the workload and
    converges to the same coverage, which is what the simulation
    harness's restart leg pins.
    """

    def __init__(
        self,
        client,
        targets,
        *,
        cracking: CrackingPolicy | None = None,
        heat: HeatMap | None = None,
        index_params=None,
        workers: int = 1,
        budget=None,
        refine_seed: int = 0,
        snapshots=None,
    ) -> None:
        super().__init__(
            client,
            targets,
            index_params=index_params,
            workers=workers,
            budget=budget,
        )
        self.cracking = cracking or CrackingPolicy()
        self.heat = heat if heat is not None else HeatMap()
        self.refine_seed = refine_seed
        #: Optional :class:`~repro.obs.store.SnapshotStore`. When set,
        #: every tick spills the heat map into a durable telemetry
        #: snapshot so dashboards (and later runs) can fold it. The
        #: chaos matrices pass ``None``: snapshot commits are ``obs``
        #: mutations, not part of the ``crack`` verb's boundary set.
        self.snapshots = snapshots

    # -- observe -------------------------------------------------------
    def observe(self, spans: list[Span]) -> int:
        """Fold finished search span trees into the heat map."""
        return self.heat.observe_spans(spans)

    def observe_tracer(self, tracer: Tracer) -> int:
        """Drain ``tracer``'s finished roots into the heat map."""
        return self.observe(tracer.pop_finished())

    # -- introspection -------------------------------------------------
    def hot_files(self, column: str, *, at_s: float | None = None) -> list[str]:
        """Live lake files currently at or above the hotness floor."""
        if at_s is None:
            at_s = self.client.store.clock.now()
        snap_paths = set(self.client.lake.snapshot().file_paths)
        return sorted(
            path
            for path, h in self.heat.file_heat(at_s=at_s, column=column).items()
            if h >= self.cracking.hotness_floor and path in snap_paths
        )

    def hot_coverage(
        self, column: str, index_type: str, *, at_s: float | None = None
    ) -> float:
        """Fraction of hot files covered by ``index_type`` (1.0 if none
        are hot — nothing to crack is full coverage, not zero)."""
        hot = self.hot_files(column, at_s=at_s)
        if not hot:
            return 1.0
        covered = self.client.meta.indexed_files(column, index_type)
        return sum(1 for path in hot if path in covered) / len(hot)

    # -- act -----------------------------------------------------------
    def tick(self) -> TickReport:
        """Plan against the heat map and run the top-ranked work."""
        report = TickReport()
        at_s = self.client.store.clock.now()
        # Bound heat-map memory. The eviction floor is far below the
        # action floor so forgetting a key can never change a decision
        # (the evict_cold invariant the hypothesis suite pins).
        self.heat.evict_cold(self.cracking.hotness_floor / 1e3, at_s=at_s)
        with get_tracer().span("crack.tick") as span:
            works = self.cracking.plan(
                self.client, self.heat, self.targets, at_s=at_s
            )
            acted = 0
            for work in works:
                if acted >= self.cracking.max_actions_per_tick:
                    break
                acted += 1  # attempts count: aborts still spent the slot
                if work.action == "index":
                    self._run_targeted_index(work, report)
                else:
                    self._run_refine(work, report)
            span.set("planned", len(works))
            span.set("acted", acted)
            span.set("indexed", len(report.indexed))
            span.set("refined", len(report.refined))
            span.set("idle", report.idle)
        _TICKS.inc(outcome="idle" if report.idle else "acted")
        get_hub().series("crack.heat_keys").observe(
            float(len(self.heat)), at_s=at_s
        )
        self._record_telemetry(span, report)
        if self.snapshots is not None:
            self.snapshots.commit(
                get_hub(), heat=self.heat, source="crack", at_s=at_s
            )
        return report

    def _run_targeted_index(self, work, report: TickReport) -> None:
        snap = self.client.lake.snapshot()
        keep = set(work.files)
        sub = dataclasses.replace(
            snap, files=tuple(f for f in snap.files if f.path in keep)
        )
        if not sub.files:
            return
        record = self.run_index(
            work.column, work.index_type, snapshot=sub, report=report
        )
        if record is not None:
            _ACTIONS.inc(action="index")

    def _run_refine(self, work, report: TickReport) -> None:
        # Re-resolve the record against live metadata: the planned key
        # may have been superseded (e.g. by a recovery re-run) since.
        live = {
            r.index_key: r
            for r in covering_records(
                self.client, work.column, work.index_type
            )
        }
        record = live.get(work.index_key)
        if record is None:
            return
        new_record = refine_index(
            self.client,
            record,
            work.cells,
            min_cell_rows=self.cracking.refine_min_cell_rows,
            max_nlist=self.cracking.max_nlist,
            seed=self.refine_seed,
        )
        if new_record is not None:
            report.refined.append(new_record)
            _ACTIONS.inc(action="refine")
