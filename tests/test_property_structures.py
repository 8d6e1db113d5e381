"""Property-based tests: core data structures behave like their models."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.kv.bloom import BloomFilter
from repro.storage.kv.memtable import TOMBSTONE, VALUE, MemTable
from repro.storage.kv.db import WriteBatch

keys = st.binary(min_size=1, max_size=24)
values = st.binary(max_size=48)

_settings = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class TestBloomModel:
    @given(st.lists(keys, min_size=1, max_size=200, unique=True))
    @_settings
    def test_never_false_negative(self, key_list):
        bloom = BloomFilter.for_keys(key_list)
        assert all(bloom.may_contain(k) for k in key_list)

    @given(st.lists(keys, min_size=1, max_size=100, unique=True))
    @_settings
    def test_serialization_preserves_answers(self, key_list):
        bloom = BloomFilter.for_keys(key_list)
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        probes = key_list + [k + b"\x00" for k in key_list]
        assert [bloom.may_contain(p) for p in probes] == [
            clone.may_contain(p) for p in probes
        ]


class TestMemTableModel:
    @given(st.lists(st.tuples(keys, values), min_size=1, max_size=80))
    @_settings
    def test_latest_write_wins(self, ops):
        table = MemTable()
        model = {}
        for sequence, (key, value) in enumerate(ops, start=1):
            table.add(sequence, VALUE, key, value)
            model[key] = value
        for key, value in model.items():
            assert table.get(key) == (VALUE, value)

    @given(st.lists(st.tuples(keys, values), min_size=2, max_size=50))
    @_settings
    def test_snapshot_isolation(self, ops):
        table = MemTable()
        half = len(ops) // 2
        model_at_snapshot = {}
        for sequence, (key, value) in enumerate(ops, start=1):
            table.add(sequence, VALUE, key, value)
            if sequence <= half:
                model_at_snapshot[key] = value
        for key, value in model_at_snapshot.items():
            found = table.get(key, snapshot=half)
            assert found == (VALUE, value)


    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([b"a", b"a\x00", b"b", b"\x00", b""]),
                st.integers(0, 40),
                st.booleans(),
                values,
            ),
            min_size=1,
            max_size=60,
        ),
        snapshots=st.lists(st.one_of(st.none(), st.integers(-1, 45)), max_size=8),
    )
    @_settings
    def test_matches_version_model(self, ops, snapshots):
        """Repeated keys, out-of-order sequences and equal-sequence
        replaces behave like a map from (key, sequence) to the last
        entry written there."""
        table = MemTable()
        model = {}
        added_bytes = 0
        for key, sequence, is_delete, value in ops:
            kind, value = (TOMBSTONE, b"") if is_delete else (VALUE, value)
            table.add(sequence, kind, key, value)
            model[(key, sequence)] = (kind, value)
            added_bytes += len(key) + len(value) + 16
        assert len(table) == len(model)
        assert table.approximate_bytes == added_bytes
        ordered = sorted(model, key=lambda pair: (pair[0], -pair[1]))
        assert [(k, q, *model[(k, q)]) for k, q in ordered] == list(table.iterate())
        for snapshot in snapshots + [None]:
            for key in {k for k, _ in model}:
                visible = [q for k, q in model if k == key and (snapshot is None or q <= snapshot)]
                expected = model[(key, max(visible))] if visible else None
                assert table.get(key, snapshot) == expected
        assert table.get(b"never-written") is None


class TestWriteBatchModel:
    @given(
        st.lists(
            st.tuples(st.booleans(), keys, values),
            max_size=40,
        )
    )
    @_settings
    def test_encode_decode_roundtrip(self, ops):
        batch = WriteBatch()
        for is_delete, key, value in ops:
            if is_delete:
                batch.delete(key)
            else:
                batch.put(key, value)
        assert WriteBatch.decode(batch.encode()).ops == batch.ops
