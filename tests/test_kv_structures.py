"""Bloom filter, memtable."""

import pytest

from repro.errors import ConfigurationError
from repro.storage.kv.bloom import BloomFilter
from repro.storage.kv.memtable import TOMBSTONE, VALUE, MemTable


class TestBloom:
    def test_no_false_negatives(self):
        keys = [f"key-{i}".encode() for i in range(500)]
        bloom = BloomFilter.for_keys(keys)
        assert all(bloom.may_contain(k) for k in keys)

    def test_false_positive_rate_reasonable(self):
        keys = [f"key-{i}".encode() for i in range(2000)]
        bloom = BloomFilter.for_keys(keys, bits_per_key=10)
        false_hits = sum(
            bloom.may_contain(f"absent-{i}".encode()) for i in range(2000)
        )
        assert false_hits / 2000 < 0.05

    def test_serialization_roundtrip(self):
        keys = [f"k{i}".encode() for i in range(100)]
        bloom = BloomFilter.for_keys(keys)
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert clone.num_bits == bloom.num_bits
        assert clone.num_probes == bloom.num_probes
        assert all(clone.may_contain(k) for k in keys)

    def test_fill_ratio_below_half_at_10bpk(self):
        keys = [f"k{i}".encode() for i in range(1000)]
        bloom = BloomFilter.for_keys(keys, bits_per_key=10)
        assert bloom.fill_ratio() < 0.55

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(0, 3)
        with pytest.raises(ConfigurationError):
            BloomFilter.from_bytes(b"xx")


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.add(1, VALUE, b"k", b"v1")
        assert table.get(b"k") == (VALUE, b"v1")

    def test_newest_wins(self):
        table = MemTable()
        table.add(1, VALUE, b"k", b"v1")
        table.add(2, VALUE, b"k", b"v2")
        assert table.get(b"k") == (VALUE, b"v2")

    def test_snapshot_reads_see_the_past(self):
        table = MemTable()
        table.add(1, VALUE, b"k", b"v1")
        table.add(5, VALUE, b"k", b"v5")
        assert table.get(b"k", snapshot=3) == (VALUE, b"v1")
        assert table.get(b"k", snapshot=5) == (VALUE, b"v5")

    def test_tombstone_visible_as_delete(self):
        table = MemTable()
        table.add(1, VALUE, b"k", b"v")
        table.add(2, TOMBSTONE, b"k")
        kind, _ = table.get(b"k")
        assert kind == TOMBSTONE

    def test_missing_key_is_none(self):
        table = MemTable()
        table.add(1, VALUE, b"a", b"v")
        assert table.get(b"b") is None

    def test_byte_accounting_grows(self):
        table = MemTable()
        before = table.approximate_bytes
        table.add(1, VALUE, b"key", b"x" * 100)
        assert table.approximate_bytes > before + 100

    def test_iterate_is_internal_key_sorted(self):
        table = MemTable()
        table.add(1, VALUE, b"b", b"1")
        table.add(2, VALUE, b"a", b"2")
        table.add(3, VALUE, b"a", b"3")
        entries = list(table.iterate())
        assert [e[0] for e in entries] == [b"a", b"a", b"b"]
        # Within key "a": newest (seq 3) first.
        assert entries[0][1] == 3

    def test_non_bytes_keys_rejected(self):
        table = MemTable()
        with pytest.raises(ConfigurationError):
            table.add(1, VALUE, "string", b"v")
        with pytest.raises(ConfigurationError):
            table.add(1, VALUE, bytearray(b"k"), b"v")
        assert len(table) == 0 and table.approximate_bytes == 0

    def test_bad_kind_and_sequence_rejected(self):
        table = MemTable()
        with pytest.raises(ConfigurationError):
            table.add(1, 7, b"k", b"v")
        with pytest.raises(ConfigurationError):
            table.add(-1, VALUE, b"k", b"v")
        with pytest.raises(ConfigurationError):
            table.add(1 << 56, VALUE, b"k", b"v")
        assert len(table) == 0
