"""Binary trie index: correctness vs a hash-map reference (§V-C1)."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.bits import lcp_bits, prefix_matches, truncate_bits
from repro.indices import uuid_trie
from repro.indices.uuid_trie import UuidTrieBuilder, UuidTrieQuerier
from repro.storage.object_store import InMemoryObjectStore


class TestBitHelpers:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (b"\x00", b"\x00", 8),
            (b"\x00", b"\x80", 0),
            (b"\x00", b"\x01", 7),
            (b"\xff\x00", b"\xff\x80", 8),
            (b"\xab\xcd", b"\xab\xcd", 16),
            (b"\xab", b"\xab\xcd", 8),
        ],
    )
    def test_lcp_bits(self, a, b, expected):
        assert lcp_bits(a, b) == expected
        assert lcp_bits(b, a) == expected

    @pytest.mark.parametrize(
        "key,bits,expected",
        [
            (b"\xff\xff", 4, b"\xf0"),
            (b"\xff\xff", 8, b"\xff"),
            (b"\xff\xff", 12, b"\xff\xf0"),
            (b"\xff\xff", 16, b"\xff\xff"),
            (b"\xff\xff", 99, b"\xff\xff"),
            (b"\xab", 0, b""),
        ],
    )
    def test_truncate_bits(self, key, bits, expected):
        assert truncate_bits(key, bits) == expected

    def test_prefix_matches(self):
        assert prefix_matches(b"\xf0", 4, b"\xff\x00")
        assert not prefix_matches(b"\xf0", 4, b"\x0f")
        assert not prefix_matches(b"\xf0\x00", 12, b"\xf0")  # key too short

    @given(st.binary(min_size=1, max_size=8), st.integers(1, 64))
    def test_truncation_is_prefix(self, key, bits):
        bits = min(bits, len(key) * 8)
        assert prefix_matches(truncate_bits(key, bits), bits, key)


def key_of(i: int) -> bytes:
    return hashlib.sha256(str(i).encode()).digest()[:16]


def build_pages(n_keys: int, n_pages: int):
    pages: dict[int, list[bytes]] = {g: [] for g in range(n_pages)}
    truth: dict[bytes, int] = {}
    for i in range(n_keys):
        key = key_of(i)
        gid = i % n_pages
        pages[gid].append(key)
        truth[key] = gid
    return list(pages.items()), truth


def page_directory(n_pages: int) -> PageDirectory:
    table = PageTable(
        "f.parquet",
        "uuid",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, 10, i * 10, 1)
            for i in range(n_pages)
        ],
    )
    return PageDirectory([table])


def store_index(builder, n_pages, **write_kwargs):
    w = IndexFileWriter("uuid_trie", "uuid", page_directory(n_pages))
    builder.write(w, **write_kwargs)
    store = InMemoryObjectStore()
    store.put("i.index", w.finish())
    return store, IndexFileReader.open(store, "i.index")


class TestTrieBuild:
    def test_empty_rejected(self):
        with pytest.raises(RottnestIndexError):
            UuidTrieBuilder.build([])

    def test_empty_key_rejected(self):
        with pytest.raises(RottnestIndexError):
            UuidTrieBuilder.build([(0, [b""])])

    def test_all_present_keys_found(self):
        pages, truth = build_pages(2000, 8)
        builder = UuidTrieBuilder.build(pages)
        store, reader = store_index(builder, 8)
        q = UuidTrieQuerier(reader)
        for i in range(0, 2000, 97):
            key = key_of(i)
            assert truth[key] in q.candidate_pages(key)

    def test_absent_keys_rarely_match(self):
        pages, _ = build_pages(1000, 4)
        builder = UuidTrieBuilder.build(pages)
        _, reader = store_index(builder, 4)
        q = UuidTrieQuerier(reader)
        false_hits = sum(
            bool(q.candidate_pages(hashlib.sha256(f"absent{i}".encode()).digest()[:16]))
            for i in range(200)
        )
        # LCP+8 extra bits makes false positives vanishingly rare.
        assert false_hits <= 2

    def test_duplicate_keys_merge_postings(self):
        key = key_of(1)
        builder = UuidTrieBuilder.build([(0, [key]), (3, [key])])
        _, reader = store_index(builder, 4)
        q = UuidTrieQuerier(reader)
        assert q.candidate_pages(key) == [0, 3]

    def test_empty_query_rejected(self):
        pages, _ = build_pages(10, 1)
        builder = UuidTrieBuilder.build(pages)
        _, reader = store_index(builder, 1)
        with pytest.raises(RottnestIndexError):
            UuidTrieQuerier(reader).candidate_pages(b"")

    def test_truncation_smaller_than_full_keys(self):
        pages, _ = build_pages(5000, 8)
        builder = UuidTrieBuilder.build(pages)
        total_prefix_bytes = sum(len(e.prefix) for e in builder.entries)
        assert total_prefix_bytes < 5000 * 16 / 2  # better than half


class TestTrieSerialization:
    def test_load_roundtrip(self):
        pages, _ = build_pages(500, 4)
        builder = UuidTrieBuilder.build(pages)
        _, reader = store_index(builder, 4)
        loaded = UuidTrieBuilder.load(reader)
        assert len(loaded.entries) == len(builder.entries)
        assert loaded.entries[0].prefix == builder.entries[0].prefix

    def test_small_components_increase_leaf_count(self):
        pages, _ = build_pages(2000, 4)
        builder = UuidTrieBuilder.build(pages)
        _, r_small = store_index(builder, 4, component_target_bytes=1024)
        _, r_big = store_index(builder, 4, component_target_bytes=1 << 20)
        assert len(r_small.params["leaf_starts"]) > len(r_big.params["leaf_starts"])

    def test_query_reads_one_leaf(self):
        pages, truth = build_pages(3000, 4)
        builder = UuidTrieBuilder.build(pages)
        store, reader = store_index(builder, 4, component_target_bytes=2048)
        q = UuidTrieQuerier(reader)
        key = key_of(123)
        trace = store.start_trace()
        q.candidate_pages(key)
        t = store.stop_trace()
        # LUT rides in the tail; at most one leaf GET (zero if the whole
        # file fit in the tail, but 3000 keys exceed 256 KB? not always).
        assert t.total_requests <= 1

    def test_merge_equals_joint_build(self):
        pages, truth = build_pages(600, 6)
        b_all = UuidTrieBuilder.build(pages)
        b1 = UuidTrieBuilder.build(pages[:3])
        b2 = UuidTrieBuilder.build([(g - 3, vals) for g, vals in pages[3:]])
        merged = UuidTrieBuilder.merge([b1, b2], [0, 3])
        _, reader = store_index(merged, 6)
        q = UuidTrieQuerier(reader)
        for i in range(0, 600, 41):
            key = key_of(i)
            assert truth[key] in q.candidate_pages(key)

    def test_merge_mismatched_offsets_rejected(self):
        pages, _ = build_pages(10, 1)
        b = UuidTrieBuilder.build(pages)
        with pytest.raises(RottnestIndexError):
            UuidTrieBuilder.merge([b], [0, 1])


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(
        st.binary(min_size=2, max_size=12), min_size=1, max_size=80, unique=True
    ),
    n_pages=st.integers(1, 6),
)
def test_trie_matches_dict_reference(keys, n_pages):
    """Property: trie lookups are a superset of exact-match truth and
    never miss (false positives allowed, false negatives never)."""
    pages: dict[int, list[bytes]] = {g: [] for g in range(n_pages)}
    truth: dict[bytes, set[int]] = {}
    for i, key in enumerate(keys):
        gid = i % n_pages
        pages[gid].append(key)
        truth.setdefault(key, set()).add(gid)
    builder = UuidTrieBuilder.build(list(pages.items()))
    _, reader = store_index(builder, n_pages)
    q = UuidTrieQuerier(reader)
    for key, expected in truth.items():
        got = set(q.candidate_pages(key))
        assert expected <= got


def reference_pages(builder, key: bytes) -> list[int]:
    """Brute force over every entry: the pages a trie probe must return."""
    return sorted(
        {
            gid
            for e in builder.entries
            if prefix_matches(e.prefix, e.bits, key)
            for gid in e.gids
        }
    )


_keys = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0, 1, 0x7F, 0xFE, 0xFF]), st.integers(0, 255)),
        st.binary(min_size=0, max_size=11),
    ).map(lambda t: bytes([t[0]]) + t[1]),
    min_size=1,
    max_size=60,
    unique=True,
)


def _flip_last_bit(key: bytes) -> bytes:
    return key[:-1] + bytes([key[-1] ^ 1])


@settings(max_examples=40, deadline=None)
@given(
    keys=_keys,
    other=_keys,
    n_pages=st.integers(1, 4),
    mode=st.sampled_from(["build", "merge", "merge_streaming"]),
    target=st.sampled_from([64, 1024, 1 << 20]),
    absent=st.lists(st.binary(min_size=1, max_size=12), max_size=10),
)
def test_probe_equals_brute_force_reference(keys, other, n_pages, mode, target, absent):
    """Property: ``candidate_pages`` is exactly the brute-force answer over
    the builder's entries, for present, absent, bucket-0, bucket-255 and
    empty-bucket keys, with one or many leaves, built or merged."""

    def pages_of(ks):
        pages: dict[int, list[bytes]] = {g: [] for g in range(n_pages)}
        for i, key in enumerate(ks):
            pages[i % n_pages].append(key)
        return list(pages.items())

    part_a = UuidTrieBuilder.build(pages_of(keys))
    total_pages = n_pages
    builder = part_a
    probes = set(keys)
    if mode != "build":
        # The second part shares keys with the first and holds keys one
        # bit away from them, so merged prefixes collide.
        shared = keys[::2] + [_flip_last_bit(k) for k in keys[1::2]]
        second = list(dict.fromkeys(shared + other))
        part_b = UuidTrieBuilder.build(pages_of(second))
        merge = getattr(UuidTrieBuilder, mode)
        builder = merge([part_a, part_b], [0, n_pages])
        total_pages = 2 * n_pages
        probes |= set(second)
    used = {e.prefix[0] for e in builder.entries}
    empty = [b for b in range(256) if b not in used][:3]
    probes |= set(absent)
    probes |= {b"\x00", b"\x00" * 16, b"\xff", b"\xff" * 16}
    probes |= {bytes([b]) + b"\x5a" * 15 for b in empty}
    _, reader = store_index(builder, total_pages, component_target_bytes=target)
    q = UuidTrieQuerier(reader)
    for key in probes:
        assert q.candidate_pages(key) == reference_pages(builder, key)


class TestProbeWork:
    def test_bucket_255_probe_parses_only_its_bucket(self, monkeypatch):
        pages, _ = build_pages(2000, 8)
        builder = UuidTrieBuilder.build(pages)
        # One leaf holds every bucket, so only the LUT can skip them.
        _, reader = store_index(builder, 8, component_target_bytes=1 << 20)
        key = next(key_of(i) for i in range(2000) if key_of(i)[0] == 0xFF)
        in_bucket = sum(1 for e in builder.entries if e.prefix[0] == 0xFF)
        parsed = []
        real = uuid_trie._read_entry

        def counting(r):
            parsed.append(1)
            return real(r)

        monkeypatch.setattr(uuid_trie, "_read_entry", counting)
        assert UuidTrieQuerier(reader).candidate_pages(key)
        assert len(parsed) == in_bucket < len(builder.entries) // 50


class _LutRewritingWriter(IndexFileWriter):
    """Index writer that passes the trie LUT through ``rewrite``."""

    def __init__(self, *args, rewrite, **kwargs):
        super().__init__(*args, **kwargs)
        self.rewrite = rewrite

    def add_component(self, name, data, **kwargs):
        if name == "lut":
            data = self.rewrite(data)
        return super().add_component(name, data, **kwargs)


def _stored_trie(rewrite=lambda lut: lut, params=lambda p: None):
    pages, _ = build_pages(2000, 4)
    w = _LutRewritingWriter("uuid_trie", "uuid", page_directory(4), rewrite=rewrite)
    UuidTrieBuilder.build(pages).write(w, component_target_bytes=1024)
    params(w.params)
    store = InMemoryObjectStore()
    store.put("i.index", w.finish())
    return UuidTrieQuerier(IndexFileReader.open(store, "i.index"))


def _set_words(lut: bytes, at: int, *words: int) -> bytes:
    out = bytearray(lut)
    struct.pack_into(f"<{len(words)}I", out, 4 * at, *words)
    return bytes(out)


class TestProbeFormatErrors:
    """A malformed trie raises FormatError, never struct/Key/IndexError."""

    KEY = key_of(7)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda lut: lut[:-4],  # one bound short
            lambda lut: lut + b"\0\0\0\0",  # one bound long
            lambda lut: b"",
            # Bucket bounds that decrease.
            lambda lut: _set_words(lut, key_of(7)[0], 9, 3),
            # A bucket that runs past the end of its leaf.
            lambda lut: _set_words(lut, key_of(7)[0] + 1, 1 << 31),
        ],
        ids=["short", "long", "empty", "decreasing", "past-leaf"],
    )
    def test_bad_lut(self, rewrite):
        q = _stored_trie(rewrite=rewrite)
        with pytest.raises(FormatError):
            q.candidate_pages(self.KEY)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("leaf_starts"),
            lambda p: p.update(leaf_starts=[]),
            lambda p: p.update(leaf_starts=[5]),
            lambda p: p.update(leaf_starts=[0, 0]),
            lambda p: p.update(leaf_starts=[0, 10, 5]),
            lambda p: p.update(leaf_starts="0"),
            lambda p: p.update(leaf_starts=[0, "9"]),
        ],
        ids=["missing", "empty", "nonzero-first", "repeated", "decreasing",
             "not-a-list", "not-ints"],
    )
    def test_bad_leaf_starts(self, mutate):
        q = _stored_trie(params=mutate)
        with pytest.raises(FormatError):
            q.candidate_pages(self.KEY)
        with pytest.raises(FormatError):
            UuidTrieBuilder.load(q.reader)

    def test_bucket_cut_mid_entry(self):
        # Shrink the key's bucket by one byte: its last entry is truncated.
        def rewrite(lut):
            b = key_of(7)[0]
            hi = struct.unpack_from("<I", lut, 4 * (b + 1))[0]
            return _set_words(lut, b + 1, hi - 1)

        with pytest.raises(FormatError):
            _stored_trie(rewrite=rewrite).candidate_pages(self.KEY)
