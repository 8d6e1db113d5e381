"""Sorted string tables.

On-disk layout (all little-endian)::

    data section:   repeated entries
                    [klen u32][vlen u32][seq u56][kind u8][key][value]
                    grouped into ~4 KiB logical blocks
    index section:  JSON list of [first_key_hex, offset, length] per block
    bloom section:  serialized BloomFilter over user keys
    footer:         JSON {data_len, index_off, index_len, bloom_off,
                    bloom_len, entries, smallest, largest, crc} padded
                    into the final 512 bytes, preceded by magic

Point lookups check the key range and the bloom filter, bisect the
block first keys, then binary-search the raw key bytes of one block
(stepping into the next block only while it starts with the same key).
The search runs over two ``array('I')`` columns per block holding each
entry's key start and key end offsets into the data section.  They are
built the first time a lookup lands in a block, cost 8 bytes per entry
of a touched block, and never decode an entry: only the matching
entries' sequence, kind and value are read.

A table never changes, so a reader memoizes the newest version it found
for a key and a repeated lookup returns it before the range check.
Only found keys are stored, so the memo never holds more entries than
the table has distinct keys; lookups through a snapshot neither read
nor fill it.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, CorruptionError
from repro.storage.fs.filesystem import SimFS

from .bloom import BloomFilter
from .memtable import TOMBSTONE, VALUE

__all__ = ["SSTableBuilder", "SSTableReader"]

_ENTRY = struct.Struct("<II")
#: Entry header: lengths, then 7 sequence bytes and the kind byte, packed
#: as one little-endian u64 (sequences stay below 2**56, see MemTable).
_ENTRY_HEADER = struct.Struct("<IIQ")
_HEADER = _ENTRY_HEADER.size
_MAGIC = b"reproSST1"
_FOOTER_SIZE = 512
_TARGET_BLOCK = 4096


def _encode_entry(key: bytes, sequence: int, kind: int, value: bytes) -> bytes:
    return _ENTRY_HEADER.pack(len(key), len(value), sequence | kind << 56) + key + value


def _decode_entry(data: bytes, offset: int) -> Tuple[bytes, int, int, bytes, int]:
    klen, vlen = _ENTRY.unpack_from(data, offset)
    cursor = offset + _ENTRY.size
    sequence = int.from_bytes(data[cursor : cursor + 7], "little")
    kind = data[cursor + 7]
    cursor += 8
    key = data[cursor : cursor + klen]
    cursor += klen
    value = data[cursor : cursor + vlen]
    cursor += vlen
    return key, sequence, kind, value, cursor


class SSTableBuilder:
    """Accumulates sorted entries and writes one table file."""

    def __init__(self, fs: SimFS, path: str) -> None:
        self.fs = fs
        self.path = path
        self._data = bytearray()
        self._index: List[Tuple[bytes, int, int]] = []
        self._block_start = 0
        self._block_first_key: Optional[bytes] = None
        self._keys: List[bytes] = []
        self._last_key: Optional[bytes] = None
        self.entries = 0
        self.smallest: Optional[bytes] = None
        self.largest: Optional[bytes] = None

    @property
    def data_bytes(self) -> int:
        """Bytes accumulated in the data section so far."""
        return len(self._data)

    def add(self, key: bytes, sequence: int, kind: int, value: bytes = b"") -> None:
        """Append an entry; keys must arrive in non-decreasing order."""
        if kind not in (VALUE, TOMBSTONE):
            raise ConfigurationError(f"unknown entry kind: {kind}")
        if self._last_key is not None and key < self._last_key:
            raise ConfigurationError("SSTable entries must be added in sorted order")
        self._last_key = key
        if self._block_first_key is None:
            self._block_first_key = key
        self._data.extend(_encode_entry(key, sequence, kind, value))
        self._keys.append(key)
        self.entries += 1
        if self.smallest is None:
            self.smallest = key
        self.largest = key
        if len(self._data) - self._block_start >= _TARGET_BLOCK:
            self._finish_block()

    def _finish_block(self) -> None:
        if self._block_first_key is None:
            return
        length = len(self._data) - self._block_start
        self._index.append((self._block_first_key, self._block_start, length))
        self._block_start = len(self._data)
        self._block_first_key = None

    def finish(self) -> int:
        """Write the file; returns its size in bytes."""
        if self.entries == 0:
            raise ConfigurationError("refusing to write an empty SSTable")
        self._finish_block()
        bloom = BloomFilter.for_keys(set(self._keys))
        index_payload = json.dumps(
            [[first.hex(), off, length] for first, off, length in self._index]
        ).encode()
        bloom_payload = bloom.to_bytes()
        data_len = len(self._data)
        index_off = data_len
        bloom_off = index_off + len(index_payload)
        body = bytes(self._data) + index_payload + bloom_payload
        footer = {
            "data_len": data_len,
            "index_off": index_off,
            "index_len": len(index_payload),
            "bloom_off": bloom_off,
            "bloom_len": len(bloom_payload),
            "entries": self.entries,
            "smallest": self.smallest.hex(),
            "largest": self.largest.hex(),
            "crc": zlib.crc32(body),
        }
        footer_raw = _MAGIC + json.dumps(footer).encode()
        if len(footer_raw) > _FOOTER_SIZE:
            raise ConfigurationError("SSTable footer overflow")
        blob = body + footer_raw.ljust(_FOOTER_SIZE, b"\x00")
        self.fs.create(self.path, exist_ok=True)
        self.fs.write_file(self.path, blob)
        self.fs.fsync(self.path)
        # Keep the image so callers can open a reader without re-reading
        # the drive (the freshly written table is still in "page cache").
        self.final_blob = blob
        return len(blob)


class SSTableReader:
    """Random and sequential access to one table file."""

    def __init__(
        self, fs: SimFS, path: str, verify: bool = True, blob: Optional[bytes] = None
    ) -> None:
        self.fs = fs
        self.path = path
        if blob is None:
            blob = fs.read_file(path)
        if len(blob) < _FOOTER_SIZE:
            raise CorruptionError(f"{path}: too small to be an SSTable")
        footer_raw = blob[-_FOOTER_SIZE:].rstrip(b"\x00")
        if not footer_raw.startswith(_MAGIC):
            raise CorruptionError(f"{path}: bad SSTable magic")
        footer = json.loads(footer_raw[len(_MAGIC):].decode())
        body = blob[:-_FOOTER_SIZE]
        if verify and zlib.crc32(body) != footer["crc"]:
            raise CorruptionError(f"{path}: body CRC mismatch")
        self._data = body[: footer["data_len"]]
        index_raw = body[footer["index_off"] : footer["index_off"] + footer["index_len"]]
        index = json.loads(index_raw.decode())
        self._firsts = [bytes.fromhex(first) for first, _, _ in index]
        self._blocks = [(off, off + length) for _, off, length in index]
        self._key_offsets: List[Optional[Tuple[array, array]]] = [None] * len(index)
        #: Newest (sequence, kind, value) found per key, for snapshot-free gets.
        self._memo: Dict[bytes, Tuple[int, int, bytes]] = {}
        bloom_raw = body[footer["bloom_off"] : footer["bloom_off"] + footer["bloom_len"]]
        self._bloom = BloomFilter.from_bytes(bloom_raw)
        self.entries = int(footer["entries"])
        self.smallest = bytes.fromhex(footer["smallest"])
        self.largest = bytes.fromhex(footer["largest"])

    def _index_block(self, block: int) -> Tuple[array, array]:
        """Build and keep the key start/end offsets of ``block``'s entries."""
        starts, ends = array("I"), array("I")
        data = self._data
        offset, end = self._blocks[block]
        while offset < end:
            klen, vlen = _ENTRY.unpack_from(data, offset)
            offset += _HEADER
            starts.append(offset)
            offset += klen
            ends.append(offset)
            offset += vlen
        offsets = self._key_offsets[block] = (starts, ends)
        return offsets

    def get(self, key: bytes, snapshot: Optional[int] = None) -> Optional[Tuple[int, int, bytes]]:
        """Newest (sequence, kind, value) for ``key`` visible at snapshot.

        Without a snapshot a repeated lookup of a found key returns the
        memoized answer and skips the range check, bloom probe and
        search; a miss searches and memoizes what it found.
        """
        if snapshot is None:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        if key < self.smallest or key > self.largest:
            return None
        if not self._bloom.may_contain(key):
            return None
        data = self._data
        firsts = self._firsts
        # The block before the first one starting at ``key`` may end
        # with ``key``'s newest versions.
        block = max(bisect_left(firsts, key) - 1, 0)
        best: Optional[Tuple[int, int, bytes]] = None
        while True:
            offsets = self._key_offsets[block]
            starts, ends = offsets if offsets is not None else self._index_block(block)
            lo, hi = 0, len(starts)
            while lo < hi:
                mid = (lo + hi) // 2
                if data[starts[mid] : ends[mid]] < key:
                    lo = mid + 1
                else:
                    hi = mid
            while lo < len(starts) and data[starts[lo] : ends[lo]] == key:
                start = starts[lo]
                sequence = int.from_bytes(data[start - 8 : start - 1], "little")
                if (snapshot is None or sequence <= snapshot) and (
                    best is None or sequence > best[0]
                ):
                    end = ends[lo]
                    vlen = _ENTRY.unpack_from(data, start - _HEADER)[1]
                    best = (sequence, data[start - 1], data[end : end + vlen])
                lo += 1
            block += 1
            if block == len(firsts) or firsts[block] != key:
                break
        if best is not None and snapshot is None:
            self._memo[key] = best
        return best

    def iterate(self) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """All entries in key order."""
        offset = 0
        total = len(self._data)
        while offset < total:
            key, sequence, kind, value, offset = _decode_entry(self._data, offset)
            yield key, sequence, kind, value
