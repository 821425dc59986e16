"""Per-query cost attribution: span tree -> dollars and seconds.

A finished ``search`` span tree carries one
:class:`~repro.storage.stats.RequestTrace` per *phase* span (the plan,
index probing, in-situ page reads, and the brute-force fill — the
decomposition behind the paper's Fig. 8 curves). Joining those traces
with the storage latency model (§V-B) and the cloud cost model (§VI)
yields a :class:`QueryBill`: per-phase request counts, bytes, modeled
wall-clock, S3 request dollars, and searcher-instance compute dollars.

The bill is *accounting-exact* by construction: every object-store
request a query issues is recorded in exactly one phase's trace, so the
bill's total op counts equal the :class:`~repro.storage.stats.IOStats`
delta across the query, and the bill's total request cost — computed
from the summed counts, not by summing rounded per-phase dollars —
equals that delta priced by :meth:`CostModel.request_cost` to the bit.
``repro profile`` prints the reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Span
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.stats import IOStats, RequestTrace

#: Canonical phase order for bills (spans tag themselves via the
#: ``phase`` attribute; unknown phases are appended after these).
#: ``probe`` is the exact path's fused index-probe + page-read
#: continuation phase; the scoring path keeps the split phases.
PHASE_ORDER = ("plan", "fresh", "probe", "index_probe", "page_read", "brute_force")

#: The searcher instance the paper prices queries against (§VII).
DEFAULT_INSTANCE = "c6i.2xlarge"


@dataclass
class PhaseBill:
    """Requests, bytes, time, and dollars attributed to one phase."""

    phase: str
    spans: int = 0
    gets: int = 0
    puts: int = 0
    lists: int = 0
    heads: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    est_latency_s: float = 0.0
    request_cost_usd: float = 0.0
    compute_cost_usd: float = 0.0

    @property
    def requests(self) -> int:
        return self.gets + self.puts + self.lists + self.heads + self.deletes

    @property
    def cost_usd(self) -> float:
        return self.request_cost_usd + self.compute_cost_usd

    def _absorb(self, trace: RequestTrace) -> None:
        for round_ in trace.rounds:
            for request in round_:
                if request.op == "GET":
                    self.gets += 1
                    self.bytes_read += request.nbytes
                elif request.op == "PUT":
                    self.puts += 1
                    self.bytes_written += request.nbytes
                elif request.op == "LIST":
                    self.lists += 1
                elif request.op == "HEAD":
                    self.heads += 1
                elif request.op == "DELETE":
                    self.deletes += 1


@dataclass
class QueryBill:
    """The full per-query decomposition (Fig. 8's bars, per request)."""

    query: str
    instance_type: str
    instance_hourly_usd: float
    phases: list[PhaseBill] = field(default_factory=list)

    # -- totals (computed from summed counts, never from per-phase $) --
    @property
    def gets(self) -> int:
        return sum(p.gets for p in self.phases)

    @property
    def puts(self) -> int:
        return sum(p.puts for p in self.phases)

    @property
    def lists(self) -> int:
        return sum(p.lists for p in self.phases)

    @property
    def heads(self) -> int:
        return sum(p.heads for p in self.phases)

    @property
    def deletes(self) -> int:
        return sum(p.deletes for p in self.phases)

    @property
    def requests(self) -> int:
        return sum(p.requests for p in self.phases)

    @property
    def bytes_read(self) -> int:
        return sum(p.bytes_read for p in self.phases)

    @property
    def bytes_written(self) -> int:
        return sum(p.bytes_written for p in self.phases)

    @property
    def est_latency_s(self) -> float:
        return sum(p.est_latency_s for p in self.phases)

    def total_request_cost_usd(self, costs: CostModel | None = None) -> float:
        """Summed op counts priced in one shot — the figure that must
        (and does) equal the query's IOStats delta priced the same way."""
        costs = costs or CostModel()
        return costs.request_cost(gets=self.gets, puts=self.puts, lists=self.lists)

    @property
    def compute_cost_usd(self) -> float:
        return sum(p.compute_cost_usd for p in self.phases)

    def total_cost_usd(self, costs: CostModel | None = None) -> float:
        return self.total_request_cost_usd(costs) + self.compute_cost_usd

    def describe(self, costs: CostModel | None = None) -> str:
        costs = costs or CostModel()
        header = (
            f"{'phase':<12} {'req':>5} {'GET':>5} {'PUT':>4} {'LIST':>4} "
            f"{'bytes':>10} {'est ms':>9} {'request $':>12} {'compute $':>12}"
        )
        lines = [
            f"per-query bill — {self.query} "
            f"({self.instance_type} @ ${self.instance_hourly_usd:.3f}/h)",
            header,
            "-" * len(header),
        ]
        for p in self.phases:
            lines.append(
                f"{p.phase:<12} {p.requests:>5} {p.gets:>5} {p.puts:>4} "
                f"{p.lists:>4} {_human_bytes(p.bytes_read + p.bytes_written):>10} "
                f"{p.est_latency_s * 1000:>9.2f} {p.request_cost_usd:>12.3e} "
                f"{p.compute_cost_usd:>12.3e}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<12} {self.requests:>5} {self.gets:>5} {self.puts:>4} "
            f"{self.lists:>4} "
            f"{_human_bytes(self.bytes_read + self.bytes_written):>10} "
            f"{self.est_latency_s * 1000:>9.2f} "
            f"{self.total_request_cost_usd(costs):>12.3e} "
            f"{self.compute_cost_usd:>12.3e}"
        )
        lines.append(
            f"total cost: ${self.total_cost_usd(costs):.3e} per query "
            f"(~{self.est_latency_s * 1000:.1f} ms modeled)"
        )
        return "\n".join(lines)


def price_iostats(stats: IOStats, costs: CostModel | None = None) -> float:
    """An :class:`IOStats` (delta) priced by the cost model — the
    reference figure query bills reconcile against."""
    costs = costs or CostModel()
    return costs.request_cost(gets=stats.gets, puts=stats.puts, lists=stats.lists)


def attribute(
    root: Span,
    *,
    latency: LatencyModel | None = None,
    costs: CostModel | None = None,
    instance_type: str = DEFAULT_INSTANCE,
) -> QueryBill:
    """Join a finished span tree with the latency/cost models.

    Walks ``root`` collecting spans tagged with a ``phase`` attribute
    (each carrying the :class:`RequestTrace` of the store requests that
    phase issued) and produces the per-phase bill. Spans without the
    tag — worker task spans, per-request events — contribute nothing,
    so concurrent executor traces are not double counted.
    """
    latency = latency or LatencyModel()
    costs = costs or CostModel()
    hourly = costs.instance_hourly(instance_type)

    by_phase: dict[str, PhaseBill] = {}
    for span in root.walk():
        phase = span.attributes.get("phase")
        if phase is None:
            continue
        bill = by_phase.setdefault(str(phase), PhaseBill(phase=str(phase)))
        bill.spans += 1
        trace = span.trace
        if trace is None:
            continue
        bill._absorb(trace)
        phase_latency = latency.trace_latency(trace)
        bill.est_latency_s += phase_latency
        bill.compute_cost_usd += phase_latency * hourly / 3600.0

    for bill in by_phase.values():
        bill.request_cost_usd = costs.request_cost(
            gets=bill.gets, puts=bill.puts, lists=bill.lists
        )

    ordered = [by_phase[p] for p in PHASE_ORDER if p in by_phase]
    ordered.extend(
        by_phase[p] for p in sorted(by_phase) if p not in PHASE_ORDER
    )
    return QueryBill(
        query=root.name,
        instance_type=instance_type,
        instance_hourly_usd=hourly,
        phases=ordered,
    )


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GB"  # pragma: no cover - unreachable
