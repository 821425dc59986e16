"""The three benchmark workloads: inputs, set-up, timed loop, checks.

Every workload has the same shape:

* ``generate(seed)`` makes the inputs and the oracle answers from the
  seed alone, before the program sees anything (not timed);
* ``setup(inputs)`` builds a deployment through the public API; the
  runner times it several times and keeps the last one;
* ``warmup(dep)`` brings caches and lazy state to a steady state;
* ``measure(dep, seconds, rec)`` runs the workload for ``seconds`` (and
  at least ``min_queries`` queries) in windows bracketed by CPU-speed
  probes, checking every answer, and scales each window's times to the
  reference CPU of ``speed.py``;
* ``finish(dep)`` runs end-of-run checks and returns what failed.

``rec`` is ``None`` for the untraced run; in a traced run every
operation is wrapped in ``rec.op(kind)`` so layer spans hang under it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.client import RottnestClient
from repro.core.queries import SubstringQuery, UuidQuery
from repro.formats.schema import ColumnType, Field, Schema
from repro.ingest.drain import IngestDrainer
from repro.ingest.tier import IngestTier
from repro.lake.table import LakeTable, TableConfig
from repro.maintain.pipeline import MaintenancePipeline
from repro.obs.flight import FlightRecorder, use_flight_recorder
from repro.serve import CachingObjectStore, SearchServer
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from speed import probe, slowdown

LATENCY = LatencyModel()
CONFIG = TableConfig(row_group_rows=2000, page_target_bytes=8 * 1024)
UUID_SCHEMA = Schema.of(Field("uuid", ColumnType.BINARY))
MIXED_SCHEMA = Schema.of(
    Field("uuid", ColumnType.BINARY), Field("text", ColumnType.STRING)
)
LAKE_ROOT = "lake/bench"
INDEX_DIR = "idx/bench"
INGEST_ROOT = "ingest/bench"
KEY_BYTES = 16
#: Length of one probe-bracketed window of a timed phase: short enough
#: to follow the host's bursts of a second or two, long enough that a
#: probe (about 5 ms) costs 1% of the run. With windows of 2 s rather
#: than 0.5 s, the p95 of 10-second lazy_scan blocks spread 0.20
#: rather than 0.06.
WINDOW_S = 0.5


def uuid_keys(namespace: str, start: int, count: int) -> list[bytes]:
    """``count`` distinct 16-byte keys; same namespace, same keys."""
    return [
        hashlib.sha256(f"{namespace}:{i}".encode()).digest()[:KEY_BYTES]
        for i in range(start, start + count)
    ]


def text_corpus(
    rng: np.random.Generator, files: int, rows: int, avg_words: int
) -> list[list[str]]:
    """Lower-case documents over a Zipf-weighted pseudo-word vocabulary.
    No upper-case letter occurs anywhere, which the absent needles use."""
    consonants, vowels = "bcdfghjklmnpqrstvwz", "aeiou"
    vocab = sorted(
        {
            "".join(
                consonants[rng.integers(len(consonants))]
                + vowels[rng.integers(len(vowels))]
                for _ in range(int(rng.integers(1, 5)))
            )
            for _ in range(3000)
        }
    )
    weights = np.arange(1, len(vocab) + 1, dtype=np.float64) ** -1.2
    weights /= weights.sum()
    words = np.array(vocab, dtype=object)
    corpus = []
    for _ in range(files):
        lengths = rng.integers(avg_words // 2, avg_words * 3 // 2 + 1, size=rows)
        drawn = words[rng.choice(len(vocab), size=int(lengths.sum()), p=weights)]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        corpus.append(
            [" ".join(drawn[bounds[i] : bounds[i + 1]]) for i in range(rows)]
        )
    return corpus


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies_s: list[float] = field(default_factory=list)
    modeled_s: list[float] = field(default_factory=list)
    attempted: int = 0  # operations: queries, plus writes on ingest_mixed
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    answers: dict = field(default_factory=dict)  # query no. -> answer
    wall_s: float = 0.0
    cpu_s: float = 0.0
    slowdowns: list[float] = field(default_factory=list)  # one per window
    gets: int = 0  # billed requests; HEADs are priced as GETs
    puts: int = 0
    lists: int = 0
    requests: int = 0
    bytes_written: int = 0
    rows_written: int = 0
    user_bytes: int = 0
    bytes_stored: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def queries(self) -> int:
        return len(self.latencies_s)

    def add_io(self, before, after) -> None:
        delta = after.delta(before)
        self.gets += delta.gets + delta.heads
        self.puts += delta.puts
        self.lists += delta.lists
        self.requests += delta.total_requests
        self.bytes_written += delta.bytes_written

    def absorb(self, other: "Phase", slowdown: float = 1.0) -> None:
        """Add another phase's measurements to this one, dividing its
        wall, CPU and latency times by ``slowdown``."""
        for f in fields(self):
            if f.name == "lock":
                continue
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "latencies_s":
                theirs = [t / slowdown for t in theirs]
            elif f.name in ("wall_s", "cpu_s"):
                theirs /= slowdown
            if isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                mine.update(theirs)
            else:
                setattr(self, f.name, mine + theirs)

    def fail(self, what: str, exc: Exception) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{what}: {exc!r}")


def _op(rec, kind: str):
    return rec.op(kind) if rec is not None else nullcontext()


def _run_query(phase: Phase, rec, number: int, run, check) -> None:
    """Time one query, check its answer (``check(answer, stats)``
    returns what is wrong, or ``None``), and account for it."""
    start = time.perf_counter()
    try:
        with _op(rec, "query"):
            result = run()
    except Exception as exc:  # counted as failed; the run goes on
        phase.fail(f"query {number}", exc)
        return
    elapsed = time.perf_counter() - start
    answer = tuple((m.file, m.row, m.value) for m in result.matches)
    problem = check(answer, result.stats)
    with phase.lock:
        phase.attempted += 1
        phase.latencies_s.append(elapsed)
        phase.modeled_s.append(result.stats.estimated_latency(LATENCY))
        phase.answers[number] = answer
        if problem:
            phase.wrong.append(f"query {number}: {problem}")


def _closed_loop(
    *,
    clients: int,
    seconds: float,
    min_queries: int,
    max_queries: int | None,
    send,
) -> int:
    """``clients`` threads, each sending its next query when the last
    returns, until ``seconds`` passed and ``min_queries`` were sent, or,
    when given, until exactly ``max_queries`` were sent. ``send(n)``
    sends query ``n``, numbered across clients in the order they were
    claimed. Returns the count."""
    deadline = time.perf_counter() + seconds
    lock = threading.Lock()
    sent = [0]

    def client() -> None:
        while True:
            with lock:
                if max_queries is not None:
                    if sent[0] >= max_queries:
                        return
                elif sent[0] >= min_queries and time.perf_counter() >= deadline:
                    return
                number = sent[0]
                sent[0] += 1
            send(number)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent[0]


def _timed(phase: Phase, store, body):
    """Run ``body`` and add its wall, CPU and billed IO to ``phase``;
    returns what ``body`` returns."""
    before = store.stats.snapshot()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    out = body()
    phase.wall_s += time.perf_counter() - wall0
    phase.cpu_s += time.process_time() - cpu0
    phase.add_io(before, store.stats.snapshot())
    return out


class Workload:
    """Shared workload machinery. Subclasses define ``generate``,
    ``user_rows_bytes`` and ``setup``, and either ``_send`` (one query
    of the closed loop below) or their own ``_run``."""

    clients = 1
    warmup_queries = 0

    def warmup(self, dep: dict) -> None:
        phase = Phase()
        n = self.warmup_queries
        self._run(dep, phase, 0.0, n, n, None)
        if phase.wrong or phase.errors:
            raise RuntimeError(f"warm-up failed: {(phase.wrong + phase.errors)[:3]}")

    def measure(self, dep: dict, seconds: float, rec, *, min_queries: int,
                max_queries: int | None = None) -> Phase:
        """Run for ``seconds`` and at least ``min_queries`` queries, or
        exactly ``max_queries`` when given, in windows of ``WINDOW_S``
        with a speed probe between each two; each window's times are
        divided by the slowdown the probes around it read."""
        phase = Phase()
        deadline = time.perf_counter() + seconds
        before = probe()
        while True:
            window = Phase()
            left = None if max_queries is None else max_queries - phase.queries
            self._run(dep, window, WINDOW_S, 0, left, rec)
            after = probe()
            phase.slowdowns.append(slowdown(before, after))
            phase.absorb(window, phase.slowdowns[-1])
            before = after
            if max_queries is not None:
                if phase.queries >= max_queries:
                    return phase
            elif phase.queries >= min_queries and time.perf_counter() >= deadline:
                return phase

    def _run(self, dep: dict, phase: Phase, seconds, min_queries, max_queries, rec):
        """``self.clients`` closed-loop clients sending queries numbered
        on from where the last phase stopped."""
        base = dep["next"]

        def loop() -> None:
            dep["next"] += _closed_loop(
                clients=self.clients,
                seconds=seconds,
                min_queries=min_queries,
                max_queries=max_queries,
                send=lambda n: self._send(dep, phase, rec, base + n),
            )

        _timed(phase, dep["store"], loop)

    def close(self, dep: dict) -> None:
        pass

    def finish(self, dep: dict) -> list[str]:
        return []


# ---------------------------------------------------------------------
# serve_zipf
# ---------------------------------------------------------------------
@dataclass
class ServeZipf(Workload):
    """``SearchServer`` over a caching store a third the size of the
    lake, a flight recorder installed, and two closed-loop clients
    sending Zipf(1.1) present-key lookups. Every data file has its own
    index file, so each query fans out over all of them."""

    files: int = 12
    rows: int = 2000
    clients: int = 2  # closed-loop clients; no more than the cores available
    tenants: int = 16
    cache_share: float = 1 / 3
    warmup_queries: int = 60
    k: int = 10

    def generate(self, seed: int) -> dict:
        keys = [
            uuid_keys(f"serve{seed}", f * self.rows, self.rows)
            for f in range(self.files)
        ]
        rng = np.random.default_rng(seed)
        total = self.files * self.rows
        # Each query comes from one of `tenants` users with their own
        # Zipf(1.1) popularity (a seeded permutation of every key):
        # skewed, yet no single key's cost decides a run.
        ranks = rng.zipf(1.1, size=200_000)
        ranks = ranks[ranks <= total][:50_000] - 1
        tenants = rng.integers(self.tenants, size=len(ranks))
        popularity = np.stack([rng.permutation(total) for _ in range(self.tenants)])
        picks = popularity[tenants, ranks]
        return {"keys": keys, "stream": [divmod(int(i), self.rows) for i in picks]}

    def user_rows_bytes(self, inputs: dict) -> tuple[int, int]:
        rows = self.files * self.rows
        return rows, rows * KEY_BYTES

    def setup(self, inputs: dict) -> dict:
        store = InMemoryObjectStore(clock=SimClock(start=1e6))
        lake = LakeTable.create(store, LAKE_ROOT, UUID_SCHEMA, CONFIG)
        client = RottnestClient(store, INDEX_DIR, lake)
        for keys in inputs["keys"]:
            lake.append({"uuid": keys})
            client.index("uuid", "uuid_trie")
        cached = CachingObjectStore(
            store, budget_bytes=int(store.total_bytes() * self.cache_share)
        )
        server = SearchServer(
            RottnestClient(cached, INDEX_DIR, LakeTable.open(cached, LAKE_ROOT, CONFIG))
        )
        server.warmup()
        return {
            "store": store,
            "server": server,
            "flight": FlightRecorder(),
            "paths": [f.path for f in lake.snapshot().files],
            "inputs": inputs,
            "next": 0,  # position in the query stream
        }

    def close(self, dep: dict) -> None:
        dep["server"].close()

    def _send(self, dep: dict, phase: Phase, rec, number: int) -> None:
        fr, row = dep["inputs"]["stream"][number % len(dep["inputs"]["stream"])]
        key = dep["inputs"]["keys"][fr][row]
        want = ((dep["paths"][fr], row, key),)

        def check(answer, stats):
            got = tuple((f, r, bytes(v)) for f, r, v in answer)
            return None if got == want else f"uuid {key.hex()}: got {got[:2]}"

        _run_query(
            phase, rec, number,
            lambda: dep["server"].query("uuid", UuidQuery(key), k=self.k),
            check,
        )

    def _run(self, dep: dict, *args) -> None:
        with use_flight_recorder(dep["flight"]):
            super()._run(dep, *args)


# ---------------------------------------------------------------------
# lazy_scan
# ---------------------------------------------------------------------
@dataclass
class LazyScan(Workload):
    """The serial ``RottnestClient.search`` over a uuid+text lake whose
    first third is indexed (trie + FM) and the rest left to brute
    force. One client mixes absent-uuid and absent-substring queries,
    so every uncovered file is scanned on every query."""

    files: int = 24
    rows: int = 250
    avg_words: int = 12  # text queries then cost about what uuid queries do
    indexed_files: int = 8
    distinct_queries: int = 600  # of each kind, cycled
    warmup_queries: int = 20
    k: int = 10

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        texts = text_corpus(rng, self.files, self.rows, self.avg_words)
        keys = [
            uuid_keys(f"lazy{seed}", f * self.rows, self.rows) for f in range(self.files)
        ]
        # Absent needles: a real 12-character window with its middle
        # character upper-cased, confirmed absent by a brute-force scan
        # of the whole corpus.
        corpus = "\x00".join(doc for docs in texts for doc in docs)
        needles = []
        while len(needles) < self.distinct_queries:
            start = int(rng.integers(len(corpus) - 12))
            window = corpus[start : start + 12]
            if "\x00" in window or not window[6].isalpha():
                continue
            needle = window[:6] + window[6].upper() + window[7:]
            if needle not in corpus:
                needles.append(needle)
        absent = uuid_keys(f"absent{seed}", 0, self.distinct_queries)
        present = {key for file_keys in keys for key in file_keys}
        if present.intersection(absent):
            raise ValueError("absent key collides with a present key")
        return {"keys": keys, "texts": texts, "needles": needles, "absent": absent}

    def user_rows_bytes(self, inputs: dict) -> tuple[int, int]:
        text_bytes = sum(len(d.encode()) for docs in inputs["texts"] for d in docs)
        rows = self.files * self.rows
        return rows, rows * KEY_BYTES + text_bytes

    def setup(self, inputs: dict) -> dict:
        store = InMemoryObjectStore(clock=SimClock(start=1e6))
        lake = LakeTable.create(store, LAKE_ROOT, MIXED_SCHEMA, CONFIG)
        client = RottnestClient(store, INDEX_DIR, lake)
        for f in range(self.files):
            lake.append({"uuid": inputs["keys"][f], "text": inputs["texts"][f]})
            if f + 1 == self.indexed_files:
                client.index("uuid", "uuid_trie")
                client.index(
                    "text", "fm", params={"block_size": 32 * 1024, "sample_rate": 64}
                )
        return {
            "store": store,
            "client": client,
            "paths": [f.path for f in lake.snapshot().files],
            "inputs": inputs,
            "next": 0,
        }

    def _check(self, answer, stats) -> str | None:
        """Absent keys match nothing, and every file the indices do not
        cover was scanned to show it."""
        if answer:
            return f"matched {len(answer)} rows"
        brute = self.files - self.indexed_files
        if stats.files_brute_forced != brute:
            return f"brute-forced {stats.files_brute_forced} files, not {brute}"
        return None

    def _send(self, dep: dict, phase: Phase, rec, number: int) -> None:
        # One uuid query in four: the two kinds cost differently, and an
        # even split would put the median on the edge between them.
        inputs, n = dep["inputs"], self.distinct_queries
        if number % 4 == 0:
            column, query = "uuid", UuidQuery(inputs["absent"][(number // 4) % n])
        else:
            text_number = number - number // 4 - 1
            column, query = "text", SubstringQuery(inputs["needles"][text_number % n])

        def check(answer, stats):
            problem = self._check(answer, stats)
            return problem and f"{column}: {problem}"

        _run_query(
            phase, rec, number,
            lambda: dep["client"].search(column, query, k=self.k),
            check,
        )

    def finish(self, dep: dict) -> list[str]:
        """Untimed spot checks of present keys and substrings, in indexed
        and brute-forced files alike, against a scan of the inputs."""
        inputs, paths, client = dep["inputs"], dep["paths"], dep["client"]
        texts = inputs["texts"]
        problems = []
        for f in range(0, self.files, max(1, self.files // 8)):
            row = (f * 7) % self.rows
            key = inputs["keys"][f][row]
            got = [(m.file, m.row, bytes(m.value))
                   for m in client.search("uuid", UuidQuery(key), k=self.k).matches]
            if got != [(paths[f], row, key)]:
                problems.append(f"present uuid {key.hex()}: got {got[:2]}")
            doc = texts[f][row]
            needle = doc[len(doc) // 2 - 6 : len(doc) // 2 + 6]
            want = {
                (paths[g], r, text)
                for g, docs in enumerate(texts)
                for r, text in enumerate(docs)
                if needle in text
            }
            got = [(m.file, m.row, m.value)
                   for m in client.search("text", SubstringQuery(needle), k=self.k).matches]
            if len(got) != min(len(want), self.k) or not set(got) <= want:
                problems.append(f"substring {needle!r}: got {len(got)} rows, "
                                f"{len(set(got) - want)} wrong, of {len(want)}")
        return problems


# ---------------------------------------------------------------------
# ingest_mixed
# ---------------------------------------------------------------------
@dataclass
class IngestMixed(Workload):
    """One thread interleaving ``IngestTier.ingest`` batches, reads
    through ``client.search`` with the fresh tier attached, a drain
    (indexing through ``MaintenancePipeline``) every few batches and a
    compaction every few drains, on a fixed schedule with no timers.

    The schedule is one *episode* from the same seeded lake: each
    episode starts from a copy of the set-up store, so the logs grow
    the same way in every episode whatever the machine's speed. The run
    goes through episodes batch by batch until the time is up, and
    finishes the last one, untimed, before its restart check.
    """

    seed_files: int = 8
    seed_rows: int = 1000
    batches: int = 38  # ends two batches after a drain: rows stay pending
    batch_rows: int = 100
    reads_per_batch: int = 4
    fresh_share: float = 0.25  # of reads probing a just-acked key; the rest older lake keys
    drain_every: int = 4
    compact_every: int = 3  # drains
    compact_threshold_bytes: int = 8 * 1024
    distinct_episodes: int = 40  # read streams, cycled
    k: int = 1

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        seed_keys = [
            uuid_keys(f"lake{seed}", f * self.seed_rows, self.seed_rows)
            for f in range(self.seed_files)
        ]
        batches = [
            uuid_keys(f"ingest{seed}", b * self.batch_rows, self.batch_rows)
            for b in range(self.batches)
        ]
        where = {
            key: (f, row) for f, keys in enumerate(seed_keys) for row, key in enumerate(keys)
        }
        # Every episode writes the same batches but reads other keys, so
        # a run samples thousands of keys rather than one episode's few.
        reads = []  # per episode, per batch: (key, seed-lake (file, row) or None)
        for _ in range(self.distinct_episodes):
            in_lake = [key for keys in seed_keys for key in keys]
            episode = []
            for b, batch in enumerate(batches):
                picks = [
                    batch[int(rng.integers(len(batch)))]
                    if rng.random() < self.fresh_share
                    else in_lake[int(rng.integers(len(in_lake)))]
                    for _ in range(self.reads_per_batch)
                ]
                episode.append([(key, where.get(key)) for key in picks])
                if (b + 1) % self.drain_every == 0:
                    drained = batches[b + 1 - self.drain_every : b + 1]
                    in_lake.extend(key for keys in drained for key in keys)
            reads.append(episode)
        return {"seed_keys": seed_keys, "batches": batches, "reads": reads}

    def user_rows_bytes(self, inputs: dict) -> tuple[int, int]:
        rows = self.seed_files * self.seed_rows
        return rows, rows * KEY_BYTES

    def setup(self, inputs: dict) -> dict:
        store = InMemoryObjectStore(clock=SimClock(start=1e6))
        lake = LakeTable.create(store, LAKE_ROOT, UUID_SCHEMA, CONFIG)
        for keys in inputs["seed_keys"]:
            lake.append({"uuid": keys})
        RottnestClient(store, INDEX_DIR, lake).index("uuid", "uuid_trie")
        IngestTier(store, INGEST_ROOT, lake)
        return {
            "store": store,
            "paths": [f.path for f in lake.snapshot().files],
            "inputs": inputs,
            "next": 0,  # query number
            "episodes": 0,
            "episode": None,  # the one in progress
        }

    def _open(self, store):
        lake = LakeTable.open(store, LAKE_ROOT, CONFIG)
        client = RottnestClient(store, INDEX_DIR, lake)
        tier = IngestTier(store, INGEST_ROOT, lake)
        client.fresh_tier = tier
        return lake, client, tier

    def _begin(self, dep: dict) -> "Episode":
        """Close the episode in progress and start the next one from a
        copy of the set-up store."""
        if dep["episode"] is not None:
            dep["episode"].pipeline.close()
        inputs = dep["inputs"]
        store = dep["store"].clone()
        _, client, tier = self._open(store)
        pipeline = MaintenancePipeline(client, workers=2)
        episode = Episode(
            store=store,
            client=client,
            tier=tier,
            pipeline=pipeline,
            drainer=IngestDrainer(
                tier, pipeline=pipeline, index_specs=[("uuid", "uuid_trie", {})]
            ),
            reads=inputs["reads"][dep["episodes"] % len(inputs["reads"])],
        )
        dep["episodes"] += 1
        dep["episode"] = episode
        return episode

    def _step(self, dep: dict, episode: "Episode", phase: Phase, rec) -> None:
        """One batch of the schedule: ingest it, read after it, and drain
        and compact when their turn comes."""
        b = episode.batch
        batch = dep["inputs"]["batches"][b]
        episode.batch += 1

        def write(kind: str, fn) -> bool:
            try:
                with _op(rec, kind):
                    fn()
            except Exception as exc:  # counted as failed; the run goes on
                phase.fail(kind, exc)
                return False
            phase.attempted += 1
            return True

        if write("ingest", lambda: episode.tier.ingest({"uuid": batch})):
            episode.acked.extend(batch)
            phase.rows_written += len(batch)
            phase.user_bytes += len(batch) * KEY_BYTES
        episode.store.clock.advance(1.0)
        for key, seeded in episode.reads[b]:
            number = dep["next"]
            dep["next"] += 1

            def check(answer, stats, key=key, seeded=seeded):
                values = [bytes(v) for _, _, v in answer]
                if values != [key]:
                    return f"uuid {key.hex()}: got {len(values)} rows"
                if seeded is not None and answer[0][:2] != (
                    dep["paths"][seeded[0]], seeded[1]
                ):
                    return f"uuid {key.hex()}: wrong location {answer[0][:2]}"
                return None

            _run_query(
                phase, rec, number,
                lambda key=key: episode.client.search("uuid", UuidQuery(key), k=self.k),
                check,
            )
        if (b + 1) % self.drain_every == 0:
            write("drain", episode.drainer.drain)
            episode.drains += 1
            if episode.drains % self.compact_every == 0:
                write(
                    "compact",
                    lambda: episode.pipeline.compact(
                        "uuid", "uuid_trie",
                        threshold_bytes=self.compact_threshold_bytes,
                    ),
                )

    def _run(self, dep: dict, phase: Phase, seconds, min_queries, max_queries, rec):
        """Batches of the episode in progress, and of the next ones, until
        the time is up, or until ``max_queries`` reads when given."""
        deadline = time.perf_counter() + seconds
        while True:
            episode = dep["episode"]
            if episode is None or episode.batch == self.batches:
                episode = self._begin(dep)
            stored0 = episode.store.total_bytes()
            _timed(phase, episode.store, lambda: self._step(dep, episode, phase, rec))
            phase.bytes_stored += episode.store.total_bytes() - stored0
            if max_queries is not None:
                if phase.queries >= max_queries:
                    return
            elif phase.queries >= min_queries and time.perf_counter() >= deadline:
                return

    @property
    def warmup_queries(self) -> int:
        """Enough batches for a drain and a compaction."""
        return self.drain_every * self.compact_every * self.reads_per_batch

    def close(self, dep: dict) -> None:
        if dep["episode"] is not None:
            dep["episode"].pipeline.close()

    def finish(self, dep: dict) -> list[str]:
        """Run the episode in progress to its end, untimed, then simulate
        a restart: reopen the lake and an ``IngestTier`` over the same
        store, recover, and check every acked key is still there,
        searching a sample of them."""
        episode = dep["episode"]
        rest = Phase()
        while episode.batch < self.batches:
            self._step(dep, episode, rest, None)
        episode.pipeline.close()
        problems = rest.wrong + rest.errors
        lake, client, tier = self._open(episode.store)
        tier.recover()
        acked = episode.acked
        found = {bytes(v) for v in lake.to_pylist("uuid")}
        pending = tier.pending_seqs()
        for seq in pending:
            found.update(bytes(v) for v in tier.wal.read(seq)["uuid"])
        problems += [f"acked key {k.hex()} lost in restart" for k in acked if k not in found][:5]
        if not pending:
            problems.append("restart check found no undrained batch to recover")
        sample = acked[:: max(1, len(acked) // 40)] + acked[-self.batch_rows :: 25]
        for key in sample:
            got = [bytes(m.value) for m in client.search("uuid", UuidQuery(key), k=1).matches]
            if got != [key]:
                problems.append(f"acked key {key.hex()} not found after restart")
        return problems


@dataclass
class Episode:
    """An ``ingest_mixed`` episode in progress: its own copy of the
    store, the handles over it, and how far the schedule has got."""

    store: InMemoryObjectStore
    client: RottnestClient
    tier: IngestTier
    pipeline: MaintenancePipeline
    drainer: IngestDrainer
    reads: list
    acked: list = field(default_factory=list)
    batch: int = 0  # next batch to ingest
    drains: int = 0


WORKLOADS = {
    "serve_zipf": ServeZipf,
    "lazy_scan": LazyScan,
    "ingest_mixed": IngestMixed,
}

#: Sizes small enough for the benchmark's own tests.
TINY = {
    "serve_zipf": dict(files=3, rows=300, warmup_queries=6),
    "lazy_scan": dict(files=6, rows=40, avg_words=8, indexed_files=2,
                      distinct_queries=6, warmup_queries=2),
    "ingest_mixed": dict(seed_files=2, seed_rows=100, batches=11, batch_rows=10,
                         drain_every=2, compact_every=2, distinct_episodes=2),
}
