"""WAL and SSTable on-disk formats, including failure injection."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, CorruptionError, WALSyncError
from repro.hdd.servo import VibrationInput
from repro.storage.kv.memtable import TOMBSTONE, VALUE
from repro.storage.kv.sstable import SSTableBuilder, SSTableReader
from repro.storage.kv.wal import WALReader, WALWriter


def stall(drive):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


class TestWAL:
    def test_append_sync_replay(self, fs):
        writer = WALWriter(fs, "/wal.log")
        writer.append(b"record one")
        writer.append(b"record two")
        writer.sync()
        records = list(WALReader(fs, "/wal.log").records())
        assert records == [b"record one", b"record two"]

    def test_unsynced_records_not_on_disk(self, fs):
        writer = WALWriter(fs, "/wal.log")
        writer.append(b"volatile")
        assert list(WALReader(fs, "/wal.log").records()) == []

    def test_sync_due_after_threshold(self, fs):
        writer = WALWriter(fs, "/wal.log", sync_every_bytes=100)
        assert writer.append(b"x" * 40) is False
        assert writer.append(b"x" * 60) is True

    def test_torn_tail_tolerated(self, fs):
        writer = WALWriter(fs, "/wal.log")
        writer.append(b"good record")
        writer.sync()
        fs.append("/wal.log", b"\xde\xad\xbe\xef\xff\x00")  # torn header
        reader = WALReader(fs, "/wal.log")
        assert list(reader.records()) == [b"good record"]
        assert reader.corrupt_tail

    def test_mid_stream_corruption_raises(self, fs):
        writer = WALWriter(fs, "/wal.log")
        writer.append(b"first")
        writer.append(b"second")
        writer.sync()
        blob = bytearray(fs.read_file("/wal.log"))
        blob[10] ^= 0xFF  # flip a payload byte of record one
        fs.write_file("/wal.log", bytes(blob))
        with pytest.raises(CorruptionError):
            list(WALReader(fs, "/wal.log").records())

    def test_sync_failure_is_fatal_with_paper_signature(self, fs, device):
        writer = WALWriter(fs, "/wal.log")
        writer.append(b"doomed")
        stall(device.drive)
        with pytest.raises(WALSyncError) as excinfo:
            writer.sync()
        assert "sync_without_flush_called" in str(excinfo.value)
        assert writer.failed
        device.drive.set_vibration(None)
        with pytest.raises(WALSyncError):
            writer.append(b"more")

    def test_empty_sync_is_noop(self, fs):
        writer = WALWriter(fs, "/wal.log")
        writer.sync()
        assert writer.syncs == 0


def build_table(fs, path="/table.sst", n=300):
    builder = SSTableBuilder(fs, path)
    for i in range(n):
        key = f"key-{i:05d}".encode()
        if i % 10 == 3:
            builder.add(key, i + 1, TOMBSTONE)
        else:
            builder.add(key, i + 1, VALUE, f"value-{i}".encode() * 3)
    builder.finish()
    return path


class TestSSTable:
    def test_roundtrip_get(self, fs):
        path = build_table(fs)
        reader = SSTableReader(fs, path)
        hit = reader.get(b"key-00042")
        assert hit is not None
        assert hit[1] == VALUE
        assert hit[2] == b"value-42" * 3

    def test_tombstones_visible(self, fs):
        reader = SSTableReader(fs, build_table(fs))
        hit = reader.get(b"key-00013")
        assert hit is not None and hit[1] == TOMBSTONE

    def test_missing_key_is_none(self, fs):
        reader = SSTableReader(fs, build_table(fs))
        assert reader.get(b"absent") is None
        assert reader.get(b"key-99999") is None

    def test_snapshot_filtering(self, fs):
        builder = SSTableBuilder(fs, "/multi.sst")
        builder.add(b"k", 10, VALUE, b"newer")
        builder.add(b"k", 5, VALUE, b"older")
        builder.finish()
        reader = SSTableReader(fs, "/multi.sst")
        assert reader.get(b"k")[2] == b"newer"
        assert reader.get(b"k", snapshot=7)[2] == b"older"
        assert reader.get(b"k", snapshot=2) is None

    def test_repeated_get_skips_the_bloom_probe(self, fs, monkeypatch):
        reader = SSTableReader(fs, build_table(fs))
        probed = []
        may_contain = reader._bloom.may_contain
        monkeypatch.setattr(reader._bloom, "may_contain",
                            lambda key: probed.append(key) or may_contain(key))
        for _ in range(3):
            assert reader.get(b"key-00042")[2] == b"value-42" * 3
            assert reader.get(b"key-00042", snapshot=100)[2] == b"value-42" * 3
            assert reader.get(b"key-00042x") is None
        # One probe for the first plain lookup; every snapshot lookup and
        # every miss searches again.
        assert probed == [b"key-00042"] + [b"key-00042", b"key-00042x"] * 3
        assert list(reader._memo) == [b"key-00042"]

    def test_iterate_in_order(self, fs):
        reader = SSTableReader(fs, build_table(fs, n=100))
        keys = [key for key, *_ in reader.iterate()]
        assert keys == sorted(keys)
        assert len(keys) == 100

    def test_smallest_largest_metadata(self, fs):
        reader = SSTableReader(fs, build_table(fs, n=50))
        assert reader.smallest == b"key-00000"
        assert reader.largest == b"key-00049"
        assert reader.entries == 50

    def test_out_of_order_adds_rejected(self, fs):
        builder = SSTableBuilder(fs, "/bad.sst")
        builder.add(b"b", 1, VALUE, b"v")
        with pytest.raises(ConfigurationError):
            builder.add(b"a", 2, VALUE, b"v")

    def test_empty_table_rejected(self, fs):
        with pytest.raises(ConfigurationError):
            SSTableBuilder(fs, "/empty.sst").finish()

    def test_body_corruption_detected(self, fs):
        path = build_table(fs, n=20)
        blob = bytearray(fs.read_file(path))
        blob[5] ^= 0xFF
        fs.write_file(path, bytes(blob))
        with pytest.raises(CorruptionError):
            SSTableReader(fs, path)

    def test_bad_magic_detected(self, fs):
        fs.create("/junk.sst")
        fs.write_file("/junk.sst", b"\x00" * 1024)
        with pytest.raises(CorruptionError):
            SSTableReader(fs, "/junk.sst")

    def test_reader_from_blob_skips_disk(self, fs, device):
        builder = SSTableBuilder(fs, "/cached.sst")
        builder.add(b"k", 1, VALUE, b"v")
        builder.finish()
        stall(device.drive)
        reader = SSTableReader(fs, "/cached.sst", blob=builder.final_blob)
        assert reader.get(b"k")[2] == b"v"


def _brute_force_get(reader, key, snapshot):
    """The newest visible version of ``key``, by scanning every entry."""
    best = None
    for entry_key, sequence, kind, value in reader.iterate():
        if entry_key != key or (snapshot is not None and sequence > snapshot):
            continue
        if best is None or sequence > best[0]:
            best = (sequence, kind, value)
    return best


@st.composite
def _tables(draw):
    """Five distinct keys, several versions each, with values large
    enough that 4 KiB blocks split inside one key's versions."""
    keys = sorted(draw(st.lists(st.binary(min_size=1, max_size=4), min_size=5,
                                max_size=5, unique=True)))
    sequences = iter(draw(st.permutations(range(1, 41))))
    entries = []
    for key in keys:
        for _ in range(draw(st.integers(1, 8))):
            kind = draw(st.sampled_from([VALUE, VALUE, TOMBSTONE]))
            size = 0 if kind == TOMBSTONE else draw(st.integers(0, 900))
            entries.append((key, next(sequences), kind, bytes([len(entries) % 251]) * size))
    # Newest first within a key, as flushes and compactions write them.
    entries.sort(key=lambda e: (e[0], -e[1]))
    return keys, entries


def _model_reader(fs, entries):
    builder = SSTableBuilder(fs, "/model.sst")
    for entry in entries:
        builder.add(*entry)
    builder.finish()
    return SSTableReader(fs, "/model.sst", blob=builder.final_blob)


def _probes(keys):
    """Every key, a near miss after each, and both ends of the key space."""
    return keys + [key + b"\x00" for key in keys] + [b"", b"\xff" * 5]


_MODEL_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestSSTableModel:
    @_MODEL_SETTINGS
    @given(table=_tables(), data=st.data())
    def test_get_matches_a_full_scan(self, fs, table, data):
        keys, entries = table
        reader = _model_reader(fs, entries)
        snapshots = data.draw(st.lists(st.one_of(st.none(), st.integers(0, 42)),
                                       min_size=1, max_size=6))
        for snapshot in snapshots:
            for key in _probes(keys):
                assert reader.get(key, snapshot) == _brute_force_get(reader, key, snapshot)

    @_MODEL_SETTINGS
    @given(table=_tables(), data=st.data())
    def test_memoized_gets_match_a_full_scan(self, fs, table, data):
        """Each key is looked up twice, the second time from the memo,
        with a snapshot lookup after each: every answer equals the scan,
        and a snapshot lookup neither fills nor changes the memo."""
        keys, entries = table
        reader = _model_reader(fs, entries)
        snapshots = data.draw(st.lists(st.integers(0, 42), min_size=1, max_size=6))
        for _ in range(2):
            for i, key in enumerate(_probes(keys)):
                assert reader.get(key) == _brute_force_get(reader, key, None)
                memo = dict(reader._memo)
                snapshot = snapshots[i % len(snapshots)]
                assert reader.get(key, snapshot) == _brute_force_get(reader, key, snapshot)
                assert reader._memo == memo
        # Only found keys are kept: at most one entry per distinct key.
        assert sorted(reader._memo) == keys
