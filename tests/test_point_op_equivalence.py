"""The KV point-operation fast paths equal the code they replaced.

Each rewrite of the per-operation chain (``ReproRandom.randint``, the
filesystem block write, the ``files_at`` order, the SSTable entry
header and the bloom filter build) is checked against the code it
replaced, which this module keeps as the reference: the same draws,
the same device blocks, the same file order, the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from typing import Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import UnitError
from repro.hdd.drive import HardDiskDrive
from repro.hdd.profiles import make_barracuda_profile
from repro.rng import ReproRandom, make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.fs.inode import Inode
from repro.storage.kv.bloom import BloomFilter
from repro.storage.kv.db import DB, Options
from repro.storage.kv.memtable import TOMBSTONE, VALUE
from repro.storage.kv.sstable import _decode_entry, _encode_entry
from repro.storage.kv.version import NUM_LEVELS, VersionSet

_settings = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- ReproRandom.randint --------------------------------------------------------

_POWER_OF_TWO_WIDTHS = st.integers(0, 80).flatmap(
    lambda k: st.sampled_from([max(1, 2**k - 1), 2**k, 2**k + 1])
)


class TestRandint:
    @given(
        seed=st.integers(0, 2**64),
        low=st.integers(-(2**70), 2**70),
        width=st.one_of(st.integers(1, 10**6), _POWER_OF_TWO_WIDTHS),
        draws=st.integers(1, 12),
    )
    @example(seed=7, low=3, width=1, draws=4)  # low == high
    @example(seed=7, low=-5, width=11, draws=12)  # negative to positive
    @example(seed=7, low=-(2**40), width=2**32, draws=12)  # a power of two
    @example(seed=7, low=0, width=2**32 + 1, draws=12)  # just past one
    @_settings
    def test_draws_the_random_randint_sequence(self, seed, low, width, draws):
        high = low + width - 1
        ours, theirs = ReproRandom(seed), random.Random(seed)
        assert [ours.randint(low, high) for _ in range(draws)] == [
            theirs.randint(low, high) for _ in range(draws)
        ]

    def test_interleaves_with_random_like_random_random(self):
        ours, theirs = make_rng(11), random.Random(make_rng(11).seed)
        for width in (1, 2, 3, 5000, 2**31 + 7):
            assert ours.randint(0, width - 1) == theirs.randint(0, width - 1)
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("low, high", [(5, 4), (0, -1), (-3, -10)])
    def test_empty_range_raises_a_value_error(self, low, high):
        with pytest.raises(UnitError):
            ReproRandom(1).randint(low, high)
        assert issubclass(UnitError, ValueError)


# -- SimFS block writes ---------------------------------------------------------


def _slicing_write(fs: SimFS, inode: Inode, data: bytes, offset: int = 0) -> None:
    """``SimFS._write_inode_data`` as it was: ``remaining`` sliced per block."""
    if not data:
        inode.mtime = fs.device.clock.now
        return
    bs = fs.device.block_size
    end = offset + len(data)
    needed_blocks = (end + bs - 1) // bs
    while inode.block_count() < needed_blocks:
        grow = needed_blocks - inode.block_count()
        extent = fs._allocate(grow)
        inode.append_blocks(extent.start_block, extent.count)
    first_block = offset // bs
    last_block = (end - 1) // bs if end > 0 else first_block
    cursor = offset
    remaining = data
    for index in range(first_block, last_block + 1):
        block_no = inode.nth_block(index)
        block_start = index * bs
        within = cursor - block_start
        take = min(bs - within, len(remaining))
        if within == 0 and take == bs:
            image = remaining[:bs]
        else:
            base: Optional[bytearray] = None
            if fs.page_cache_enabled:
                cached = fs._page_cache.get((inode.ino, index))
                if cached is not None:
                    base = bytearray(cached)
            if base is None:
                if block_start < inode.size:
                    base = bytearray(fs.device.read_block(block_no))
                else:
                    base = bytearray(bs)
            base[within : within + take] = remaining[:take]
            image = bytes(base)
        fs.device.write_block(block_no, image)
        if fs.page_cache_enabled:
            fs._page_cache[(inode.ino, index)] = image
        cursor += take
        remaining = remaining[take:]
    inode.size = max(inode.size, end)
    inode.mtime = fs.device.clock.now


def _recording_fs(page_cache: bool):
    drive = HardDiskDrive(
        profile=make_barracuda_profile(), clock=VirtualClock(), rng=make_rng(1234)
    )
    fs = SimFS.mkfs(BlockDevice(drive), journal_blocks=64, inode_table_blocks=64)
    fs.page_cache_enabled = page_cache
    written = []
    write_block = fs.device.write_block

    def record(block, data):
        written.append((block, data))
        write_block(block, data)

    fs.device.write_block = record
    return fs, written


def _payload(seed: int, length: int) -> bytes:
    unit = bytes((seed * 31 + k) & 0xFF for k in range(251))
    return (unit * (length // 251 + 1))[:length]


_WRITES = st.lists(
    st.tuples(st.integers(0, 5 * 4096 + 100), st.integers(1, 4 * 4096 + 300)),
    min_size=1,
    max_size=6,
)


class TestBlockWrite:
    @given(writes=_WRITES, page_cache=st.booleans())
    @example(writes=[(4095, 4098), (1, 8191), (8192, 4096)], page_cache=True)
    @example(writes=[(100, 3 * 4096), (0, 12289)], page_cache=False)
    @_settings
    def test_leaves_the_blocks_of_the_slicing_loop(self, writes, page_cache):
        fs, written = _recording_fs(page_cache)
        ref, ref_written = _recording_fs(page_cache)
        ref._write_inode_data = lambda inode, data, offset=0: _slicing_write(
            ref, inode, data, offset
        )
        for stack in (fs, ref):
            stack.create("/f")
            for seed, (offset, length) in enumerate(writes):
                stack.write_file("/f", _payload(seed, length), offset=offset)
        assert written == ref_written
        assert all(type(image) is bytes for _, image in written)
        assert fs._page_cache == ref._page_cache
        assert all(type(image) is bytes for image in fs._page_cache.values())
        assert fs.read_file("/f") == ref.read_file("/f")
        assert fs.device.clock.now == ref.device.clock.now


# -- VersionSet.files_at --------------------------------------------------------


def _fresh_sort(versions: VersionSet, level: int):
    """``VersionSet.files_at`` as it was: rebuilt and sorted per call."""
    files = list(versions.levels[level].values())
    if level == 0:
        files.sort(key=lambda f: f.number, reverse=True)
    else:
        files.sort(key=lambda f: f.smallest)
    return files


def _assert_orders(versions: VersionSet) -> None:
    for level in range(NUM_LEVELS):
        assert versions.files_at(level) == _fresh_sort(versions, level)


class TestFilesAt:
    def test_equals_a_fresh_sort_through_flushes_compaction_and_reopen(self, fs):
        fs.mkdir("/db")
        options = Options(write_buffer_size=4096, l0_compaction_trigger=3)
        db = DB.open(fs, "/db", options=options)
        flushes = 0
        for index in range(900):
            db.put(b"%06d" % ((index * 7919) % 1000), b"v" * 48)
            if db.stats.flushes != flushes:
                flushes = db.stats.flushes
                _assert_orders(db.versions)
        assert flushes >= 6 and db.compactor.compactions_run >= 1
        db.compact_range()
        _assert_orders(db.versions)
        assert db.versions.files_at(1)
        before = [[f.number for f in db.versions.files_at(n)] for n in range(NUM_LEVELS)]
        db.close()
        reopened = DB.open(fs, "/db", options=options)
        _assert_orders(reopened.versions)
        after = [[f.number for f in reopened.versions.files_at(n)] for n in range(NUM_LEVELS)]
        assert after == before
        assert reopened.get(b"%06d" % 919) == b"v" * 48

    def test_the_returned_list_is_the_callers(self, db):
        for index in range(3):
            db.put(b"k%d" % index, b"v")
            db.flush()
        first = db.versions.files_at(0)
        assert [f.number for f in first] == sorted((f.number for f in first), reverse=True)
        first.reverse()
        first.append(first[0])
        assert db.versions.files_at(0) == _fresh_sort(db.versions, 0)


# -- SSTable entry header and bloom filter --------------------------------------


def _byte_layout_entry(key: bytes, sequence: int, kind: int, value: bytes) -> bytes:
    """``_encode_entry`` as it was: lengths, 7 sequence bytes, a kind byte."""
    meta = sequence.to_bytes(7, "little") + bytes([kind])
    return struct.pack("<II", len(key), len(value)) + meta + key + value


class TestEntryEncoding:
    @pytest.mark.parametrize("sequence", [0, 1, 255, 256, 2**32 + 5, 2**56 - 1])
    @pytest.mark.parametrize("kind", [VALUE, TOMBSTONE])
    @pytest.mark.parametrize("key, value", [(b"k", b""), (b"key\x00x", b"v" * 300)])
    def test_equals_the_byte_layout(self, sequence, kind, key, value):
        encoded = _encode_entry(key, sequence, kind, value)
        assert encoded == _byte_layout_entry(key, sequence, kind, value)
        assert _decode_entry(encoded, 0) == (key, sequence, kind, value, len(encoded))


def _one_add_per_key(keys, bits_per_key: int):
    """``BloomFilter.for_keys`` as it was: one ``add`` call per key."""
    key_list = list(keys)
    num_bits = max(64, len(key_list) * bits_per_key)
    probes = max(1, min(30, round(bits_per_key * math.log(2.0))))
    bits = bytearray((num_bits + 7) // 8)
    for key in key_list:
        digest = hashlib.sha256(key).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:16], "little") | 1
        for i in range(probes):
            pos = (h1 + i * h2) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
    return num_bits, probes, bits


class TestBloomBuild:
    @given(
        keys=st.lists(st.binary(max_size=24), max_size=300),
        bits_per_key=st.integers(1, 48),
    )
    @_settings
    def test_bits_equal_one_add_per_key(self, keys, bits_per_key):
        bloom = BloomFilter.for_keys(keys, bits_per_key=bits_per_key)
        assert (bloom.num_bits, bloom.num_probes, bloom.bits) == _one_add_per_key(
            keys, bits_per_key
        )
