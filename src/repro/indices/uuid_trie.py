"""High-cardinality identifier index: componentized binary trie (§V-C1).

Each key (UUID, transaction hash, pod name digest, ...) is a path in a
binary trie. To keep the index small only a prefix of each key is
stored: its longest common prefix with its sorted neighbours plus one
distinguishing bit, *plus 8 extra bits of headroom* so indices can be
merged without recomputing LCPs — after a merge, entries whose stored
prefixes collide simply map to multiple pages, which is fine because
Rottnest indices may return false positives (in-situ probing filters
them).

Layout, per the componentization principle of Fig. 6:

* the first 8 trie levels are replaced by a 256-entry **lookup table**
  (component ``lut``, written last so it lands in the cached tail of the
  file — reading it costs no extra request), and
* entries live in **leaf components** (``leaf0``, ``leaf1``, ...), each
  holding whole buckets of the sorted entries, bin-packed to a target
  raw size.

A lookup therefore costs: open (tail fetch, includes the LUT) → one
dependent round fetching exactly one leaf component. Its CPU is two LUT
words, one bisect over the leaf starts and the parse of the key's own
bucket, so it does not grow with the key's first byte.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import ClassVar, Iterable

from repro.errors import FormatError, RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.indices.base import ExactQuerier, IndexBuilder
from repro.indices.bits import lcp_bits, prefix_matches, truncate_bits
from repro.util.binio import BinaryReader, BinaryWriter

TYPE_NAME = "uuid_trie"
DEFAULT_EXTRA_BITS = 8
DEFAULT_COMPONENT_TARGET_BYTES = 256 * 1024
LUT_SIZE = 256
_LUT_FORMAT = f"<{LUT_SIZE + 1}I"


@dataclass
class TrieEntry:
    """One truncated key and the pages containing its full key(s)."""

    prefix: bytes  # truncated, zero-padded key prefix
    bits: int  # number of meaningful bits in ``prefix``
    gids: list[int]  # global page ids, sorted ascending

    def sort_key(self) -> tuple[bytes, int]:
        """Trie order (prefix bytes, then bits): groups LUT buckets and
        puts equal entries side by side for :func:`_coalesce`."""
        return (self.prefix, self.bits)


class UuidTrieBuilder(IndexBuilder):
    """In-memory trie: the sorted truncated-entry array."""

    type_name: ClassVar[str] = TYPE_NAME
    min_rows: ClassVar[int] = 1

    def __init__(self, entries: list[TrieEntry], extra_bits: int) -> None:
        """Wrap entries already sorted by :meth:`TrieEntry.sort_key`."""
        self.entries = entries
        self.extra_bits = extra_bits

    @classmethod
    def build(
        cls,
        pages: Iterable[tuple[int, list]],
        *,
        extra_bits: int = DEFAULT_EXTRA_BITS,
        **_params,
    ) -> "UuidTrieBuilder":
        """Sorted truncated entries over ``(gid, keys)`` pages (see the
        module docstring); empty keys or zero rows raise
        :class:`~repro.errors.RottnestIndexError`."""
        pairs: list[tuple[bytes, int]] = []
        for gid, values in pages:
            for value in values:
                key = bytes(value)
                if not key:
                    raise RottnestIndexError("cannot index empty keys")
                pairs.append((key, gid))
        if not pairs:
            raise RottnestIndexError("cannot build a trie over zero rows")
        pairs.sort()
        # Group identical keys, merging their page lists.
        keys: list[bytes] = []
        gid_lists: list[list[int]] = []
        for key, gid in pairs:
            if keys and keys[-1] == key:
                if gid_lists[-1][-1] != gid:
                    gid_lists[-1].append(gid)
            else:
                keys.append(key)
                gid_lists.append([gid])
        entries = []
        for i, key in enumerate(keys):
            lcp = 0
            if i > 0:
                lcp = max(lcp, lcp_bits(key, keys[i - 1]))
            if i + 1 < len(keys):
                lcp = max(lcp, lcp_bits(key, keys[i + 1]))
            # LCP + 1 distinguishing bit + merge headroom, floor of one
            # byte so the 8-bit LUT level is always present, capped at
            # the key's own length.
            bits = min(max(lcp + 1 + extra_bits, 8), len(key) * 8)
            entries.append(
                TrieEntry(
                    prefix=truncate_bits(key, bits), bits=bits, gids=gid_lists[i]
                )
            )
        entries.sort(key=TrieEntry.sort_key)
        return cls(_coalesce(entries), extra_bits)

    # -- serialization --------------------------------------------------
    def write(
        self,
        writer: IndexFileWriter,
        *,
        component_target_bytes: int = DEFAULT_COMPONENT_TARGET_BYTES,
    ) -> None:
        """Serialize the entries as leaf components plus a bucket LUT.

        A bucket is the entries sharing a first prefix byte (the 8 LUT
        levels). Buckets are bin-packed, whole and in order, into
        ``leaf0``, ``leaf1``, ... until a leaf reaches
        ``component_target_bytes``. Read back to back, the leaves form
        one entry stream; param ``leaf_starts`` holds each leaf's start
        offset in it (0 first, strictly increasing). Component ``lut``
        is 257 little-endian u32 offsets into the same stream: bucket
        ``b`` is the bytes ``[lut[b], lut[b + 1])``, always inside one
        leaf. The LUT is added last, so it rides in the file tail.
        """
        stream = BinaryWriter()
        bounds = [0] * (LUT_SIZE + 1)
        for e in self.entries:
            _write_entry(stream, e)
            bounds[e.prefix[0] + 1] = len(stream)
        for b in range(LUT_SIZE):  # an empty bucket ends where it starts
            bounds[b + 1] = max(bounds[b + 1], bounds[b])
        # Cut a leaf after the first bucket that brings it to the target.
        target = max(component_target_bytes, 1)
        leaf_starts = [0]
        for bound in bounds[1:LUT_SIZE]:
            if leaf_starts[-1] + target <= bound < bounds[LUT_SIZE]:
                leaf_starts.append(bound)
        data = stream.getvalue()
        leaf_ends = leaf_starts[1:] + [len(data)]
        for i, (lo, hi) in enumerate(zip(leaf_starts, leaf_ends)):
            writer.add_component(f"leaf{i}", data[lo:hi])
        writer.add_component("lut", struct.pack(_LUT_FORMAT, *bounds))
        writer.params["leaf_starts"] = leaf_starts
        writer.params["extra_bits"] = self.extra_bits

    @classmethod
    def load(cls, reader: IndexFileReader) -> "UuidTrieBuilder":
        """Rebuild the full sorted entry array by reading every leaf."""
        names = [f"leaf{i}" for i in range(len(_leaf_starts(reader)))]
        entries: list[TrieEntry] = []
        for blob in reader.components(names):
            r = BinaryReader(blob)
            while r.remaining():
                entries.append(_read_entry(r))
        return cls(entries, reader.params.get("extra_bits", DEFAULT_EXTRA_BITS))

    @classmethod
    def merge(
        cls, parts: list["UuidTrieBuilder"], gid_offsets: list[int]
    ) -> "UuidTrieBuilder":
        """K-way merge of sorted entry arrays with gid remapping.

        No raw data is read; stored prefixes keep their lengths (the
        ``extra_bits`` headroom absorbs new collisions, which become
        multi-page entries — i.e. possible false positives, by design).
        """
        return cls.merge_streaming(parts, gid_offsets)

    @classmethod
    def merge_streaming(
        cls, parts: Iterable["UuidTrieBuilder"], gid_offsets: list[int]
    ) -> "UuidTrieBuilder":
        """:meth:`merge` over an iterable, consuming one part at a time.

        Entry shifting is per part and the sort/coalesce happens once
        over the accumulated array, so only the entries survive each
        iteration — never two loaded parts at once.
        """
        shifted: list[TrieEntry] = []
        extra = 0
        count = 0
        it = iter(parts)
        # zip pulls offsets first so a surplus part stays in ``it`` for
        # the leftover check below instead of being silently consumed.
        for offset, part in zip(gid_offsets, it):
            count += 1
            extra = max(extra, part.extra_bits)
            shifted.extend(
                TrieEntry(e.prefix, e.bits, [g + offset for g in e.gids])
                for e in part.entries
            )
        if count == 0 or count != len(gid_offsets) or next(it, None) is not None:
            raise RottnestIndexError("parts/offsets length mismatch")
        shifted.sort(key=TrieEntry.sort_key)
        return cls(_coalesce(shifted), extra)


class UuidTrieQuerier(ExactQuerier):
    """Query path: LUT (free, from the cached tail) → one leaf GET."""

    type_name: ClassVar[str] = TYPE_NAME

    def candidate_pages(self, query) -> list[int]:
        """Pages whose stored prefix matches ``query``: one LUT row, one bucket.

        Reads two LUT words at the key's first byte, bisects the leaf
        starts to the one leaf holding that bucket, fetches that leaf
        after a barrier (it depends on the LUT) and parses only the
        bucket's entries. A malformed LUT, leaf-start param or bucket
        raises :class:`~repro.errors.FormatError`.
        """
        key = bytes(query)
        if not key:
            raise RottnestIndexError("cannot search for an empty key")
        lut = self.reader.component("lut")
        if len(lut) != struct.calcsize(_LUT_FORMAT):
            raise FormatError(f"trie LUT of {len(lut)} bytes in {self.reader.key!r}")
        lo, hi = struct.unpack_from("<2I", lut, 4 * key[0])
        starts = _leaf_starts(self.reader)
        if hi < lo:
            raise FormatError(f"decreasing trie bucket bounds in {self.reader.key!r}")
        if lo == hi:
            return []
        leaf = bisect_right(starts, lo) - 1
        self.reader.barrier()  # leaf fetch depends on the LUT
        blob = self.reader.component(f"leaf{leaf}")
        base = starts[leaf]
        if hi - base > len(blob):
            raise FormatError(f"trie bucket runs past leaf{leaf} in {self.reader.key!r}")
        bucket = BinaryReader(blob[lo - base : hi - base])
        gids: list[int] = []
        while bucket.remaining():
            entry = _read_entry(bucket)
            if prefix_matches(entry.prefix, entry.bits, key):
                gids.extend(entry.gids)
        return sorted(set(gids))


def _leaf_starts(reader: IndexFileReader) -> list[int]:
    """Param ``leaf_starts``, checked: 0 first, then strictly increasing."""
    starts = reader.params.get("leaf_starts")
    ok = isinstance(starts, list) and all(type(s) is int for s in starts)
    if not ok or starts[:1] != [0] or any(a >= b for a, b in zip(starts, starts[1:])):
        raise FormatError(f"missing or bad trie leaf_starts in {reader.key!r}")
    return starts


def _coalesce(sorted_entries: list[TrieEntry]) -> list[TrieEntry]:
    """Merge adjacent entries with identical (prefix, bits)."""
    out: list[TrieEntry] = []
    for e in sorted_entries:
        if out and out[-1].prefix == e.prefix and out[-1].bits == e.bits:
            merged = sorted(set(out[-1].gids) | set(e.gids))
            out[-1] = TrieEntry(prefix=e.prefix, bits=e.bits, gids=merged)
        else:
            out.append(e)
    return out


def _write_entry(writer: BinaryWriter, entry: TrieEntry) -> None:
    writer.write_uvarint(entry.bits)
    writer.write_bytes(entry.prefix)  # length implied by bits
    writer.write_uvarint(len(entry.gids))
    prev = 0
    for gid in entry.gids:
        writer.write_uvarint(gid - prev)
        prev = gid


def _read_entry(reader: BinaryReader) -> TrieEntry:
    bits = reader.read_uvarint()
    prefix = reader.read_bytes((bits + 7) // 8)
    count = reader.read_uvarint()
    gids = []
    cursor = 0
    for _ in range(count):
        cursor += reader.read_uvarint()
        gids.append(cursor)
    return TrieEntry(prefix=prefix, bits=bits, gids=gids)
