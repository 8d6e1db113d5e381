"""The LSM database: API, flush/compaction, recovery, crash semantics."""

import gc
import hashlib
import weakref

import pytest

from repro.errors import (
    ConfigurationError,
    DatabaseClosed,
    WALSyncError,
)
from repro.hdd.drive import HardDiskDrive
from repro.hdd.servo import VibrationInput
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options, WriteBatch
from repro.storage.kv.version import VersionEdit, VersionSet, FileMetadata


def stall(drive):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


class TestBasicAPI:
    def test_put_get(self, db):
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_overwrite(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"

    def test_delete(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_missing_key(self, db):
        assert db.get(b"never") is None

    def test_batch_is_atomic_unit(self, db):
        batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"a")
        db.write(batch)
        assert db.get(b"a") is None
        assert db.get(b"b") == b"2"

    def test_batch_encode_decode(self):
        batch = WriteBatch().put(b"key", b"value").delete(b"gone")
        decoded = WriteBatch.decode(batch.encode())
        assert decoded.ops == batch.ops

    def test_snapshot_reads(self, db):
        db.put(b"k", b"v1")
        snapshot = db.versions.last_sequence
        db.put(b"k", b"v2")
        assert db.get(b"k", snapshot=snapshot) == b"v1"
        assert db.get(b"k") == b"v2"

    def test_gets_charge_virtual_time(self, db):
        before = db.clock.now
        db.put(b"k", b"v")
        db.get(b"k")
        assert db.clock.now > before

    def test_scan_merges_all_sources(self, db):
        for i in range(20):
            db.put(f"{i:02d}".encode(), f"v{i}".encode())
        db.flush()
        db.put(b"05", b"overwritten")
        db.delete(b"07")
        scanned = dict(db.scan())
        assert scanned[b"05"] == b"overwritten"
        assert b"07" not in scanned
        assert len(scanned) == 19


class TestFlushAndCompaction:
    def test_flush_writes_l0_table(self, db):
        for i in range(50):
            db.put(f"k{i:03d}".encode(), b"v" * 50)
        meta = db.flush()
        assert meta is not None and meta.level == 0
        assert db.get(b"k025") == b"v" * 50
        assert len(db.memtable) == 0

    def test_flush_empty_memtable_is_noop(self, db):
        assert db.flush() is None

    def test_nul_bytes_in_keys_survive_flush(self, db):
        """Regression: the internal-key encoding used a bare NUL
        separator, so keys containing NUL (one a prefix of another)
        sorted wrongly in the memtable — flush hit the SSTable
        sorted-order check and lookups missed live keys."""
        keys = [b"\x00", b"\x00\x00", b"\xa0", b"\xa0\x00\xb8", b"a\x00b"]
        for i, key in enumerate(keys):
            db.put(key, bytes([i]))
        assert db.flush() is not None
        for i, key in enumerate(keys):
            assert db.get(key) == bytes([i])

    def test_newest_version_read_across_block_boundary(self, db):
        """Regression: when a key's newest version closed one SSTable
        block and an older version opened the next, the lookup jumped
        to the later block and returned the older value."""
        for i in range(33):
            db.put(b"a%04d" % i, b"v" * 100)
        db.put(b"a0033", b"p" * 74)  # block 0 now holds 4088 bytes
        db.put(b"k", b"old")
        db.put(b"k", b"new")
        db.flush()
        assert db.get(b"k") == b"new"

    def test_memoized_older_version_is_shadowed(self, db):
        """An SSTable reader memoizes the version it found.  A newer
        table, then a compaction into a fresh table, must still win."""
        db.put(b"k", b"old")
        first = db.flush()
        assert db.get(b"k") == b"old"
        assert b"k" in db.readers[first.number]._memo
        db.put(b"k", b"new")
        db.flush()
        assert db.get(b"k") == b"new"
        assert db.compact_range() >= 1
        assert first.number not in db.readers
        assert db.get(b"k") == b"new"

    def test_flushed_table_bytes_are_pinned(self, db):
        """Golden lock on the memtable's byte accounting, the flush
        order (key ascending, newest first) and the SSTable bytes,
        bloom bits included."""
        for i in range(300):
            key = b"k%03d" % ((i * 37) % 120)
            if i % 11 == 5:
                db.delete(key)
            else:
                db.put(key, bytes([i % 251]) * (i % 90))
        for key in (b"\x00", b"\x00\x00", b"a\x00b"):
            db.put(key, key * 3)
        assert (db.memtable.approximate_bytes, len(db.memtable)) == (17406, 303)
        meta = db.flush()
        blob = db.fs.read_file(db.versions.table_path(meta.number))
        assert hashlib.sha256(blob).hexdigest() == (
            "e3bee1e302c75b4a7df0b4a6d79538744ef83755e1974df58c353334f7dbf9df"
        )

    def test_finished_stack_freed_without_cycle_collector(self):
        """Dropping the last reference to a database frees the whole
        stack by reference counting alone, down to the drive."""
        gc.collect()
        gc.disable()
        try:
            drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(7))
            fs = SimFS.mkfs(BlockDevice(drive), journal_blocks=64, inode_table_blocks=64)
            fs.mkdir("/db")
            db = DB.open(fs, "/db", options=Options(write_buffer_size=4096))
            for i in range(200):
                db.put(b"key-%04d" % i, b"v" * 64)
            assert db.stats.flushes > 0 and db.readers
            assert db.compactor.compactions_run > 0
            db_ref, drive_ref = weakref.ref(db), weakref.ref(drive)
            del db, fs, drive
            assert db_ref() is None
            assert drive_ref() is None
        finally:
            gc.enable()

    def test_automatic_flush_at_write_buffer(self, fs):
        fs.mkdir("/small")
        options = Options(write_buffer_size=16 * 1024)
        db = DB.open(fs, "/small", options=options)
        for i in range(400):
            db.put(f"k{i:04d}".encode(), b"x" * 64)
        assert db.stats.flushes >= 1
        assert db.get(b"k0000") == b"x" * 64

    def test_stats_count_puts_and_hits_across_flushes(self, fs):
        fs.mkdir("/s")
        db = DB.open(fs, "/s", options=Options(write_buffer_size=64 * 1024))
        for i in range(2000):
            db.put(f"key-{i:08d}".encode(), b"v" * 64)
        for i in range(0, 2000, 4):
            assert db.get(f"key-{i:08d}".encode()) == b"v" * 64
        assert db.stats.flushes >= 2
        assert (db.stats.puts, db.stats.gets, db.stats.get_hits) == (2000, 500, 500)

    def test_compaction_triggers_and_preserves_data(self, fs):
        fs.mkdir("/c")
        options = Options(
            write_buffer_size=8 * 1024,
            l0_compaction_trigger=2,
            target_file_bytes=16 * 1024,
        )
        db = DB.open(fs, "/c", options=options)
        for i in range(600):
            db.put(f"k{i % 150:04d}".encode(), f"gen-{i}".encode() + b"x" * 48)
        assert db.compactor.compactions_run >= 1
        # Every live key readable, newest generation wins.
        for i in range(150):
            value = db.get(f"k{i:04d}".encode())
            assert value is not None and value.startswith(b"gen-")

    def test_compaction_drops_fully_deleted_keys(self, fs):
        fs.mkdir("/d")
        options = Options(write_buffer_size=4 * 1024, l0_compaction_trigger=2)
        db = DB.open(fs, "/d", options=options)
        for i in range(50):
            db.put(f"k{i:03d}".encode(), b"v" * 40)
        db.flush()
        for i in range(50):
            db.delete(f"k{i:03d}".encode())
        db.flush()
        db.flush()
        db.compactor.maybe_compact(max_rounds=8)
        for i in range(50):
            assert db.get(f"k{i:03d}".encode()) is None

    def test_wal_rotates_on_flush(self, db):
        first_wal = db.wal.path
        db.put(b"k", b"v")
        db.flush()
        assert db.wal.path != first_wal
        assert not db.fs.exists(first_wal)


class TestRecovery:
    def test_reopen_recovers_flushed_and_walled_state(self, fs):
        fs.mkdir("/r")
        db = DB.open(fs, "/r")
        for i in range(100):
            db.put(f"k{i:03d}".encode(), f"v{i}".encode())
        db.flush()
        db.put(b"unflushed", b"from-wal")
        db.wal.sync()
        reopened = DB.open(fs, "/r")
        assert reopened.get(b"k050") == b"v50"
        assert reopened.get(b"unflushed") == b"from-wal"

    def test_unsynced_writes_lost_on_recovery(self, fs):
        fs.mkdir("/r")
        db = DB.open(fs, "/r")
        db.put(b"durable", b"yes", sync=True)
        db.put(b"volatile", b"no")  # buffered in the WAL, never synced
        reopened = DB.open(fs, "/r")
        assert reopened.get(b"durable") == b"yes"
        assert reopened.get(b"volatile") is None

    def test_sequence_numbers_continue_after_recovery(self, fs):
        fs.mkdir("/r")
        db = DB.open(fs, "/r")
        db.put(b"a", b"1", sync=True)
        seq = db.versions.last_sequence
        reopened = DB.open(fs, "/r")
        assert reopened.versions.last_sequence >= seq
        reopened.put(b"b", b"2")
        assert reopened.versions.last_sequence > seq

    def test_create_if_missing_false_rejects_fresh_dir(self, fs, rng):
        fs.mkdir("/empty")
        with pytest.raises(ConfigurationError):
            DB.open(fs, "/empty", options=Options(create_if_missing=False))


class TestVersionSet:
    def test_log_and_apply_persists_levels(self, fs):
        fs.mkdir("/vs")
        versions = VersionSet(fs, "/vs")
        versions.create_new_manifest()
        meta = FileMetadata(number=versions.new_file_number(), level=0,
                            size_bytes=1000, smallest=b"a", largest=b"m")
        versions.log_and_apply(VersionEdit(added=[meta]))
        fresh = VersionSet(fs, "/vs")
        fresh.recover()
        assert [f.number for f in fresh.files_at(0)] == [meta.number]
        assert fresh.next_file_number == versions.next_file_number

    def test_deletion_edits(self, fs):
        fs.mkdir("/vs")
        versions = VersionSet(fs, "/vs")
        versions.create_new_manifest()
        meta = FileMetadata(number=versions.new_file_number(), level=1,
                            size_bytes=10, smallest=b"a", largest=b"b")
        versions.log_and_apply(VersionEdit(added=[meta]))
        versions.log_and_apply(VersionEdit(deleted=[meta.number]))
        fresh = VersionSet(fs, "/vs")
        fresh.recover()
        assert fresh.files_at(1) == []

    def test_overlap_predicate(self):
        meta = FileMetadata(number=1, level=1, size_bytes=10, smallest=b"c", largest=b"f")
        assert meta.overlaps(b"a", b"c")
        assert meta.overlaps(b"d", b"e")
        assert not meta.overlaps(b"g", b"z")


class TestCrashSemantics:
    def test_wal_sync_failure_kills_the_store(self, db):
        db.put(b"k", b"v")
        stall(db.fs.device.drive)
        with pytest.raises(WALSyncError):
            db.put(b"k2", b"v2", sync=True)
        assert db.fatal_error is not None
        db.fs.device.drive.set_vibration(None)
        with pytest.raises(DatabaseClosed):
            db.put(b"k3", b"v3")
        with pytest.raises(DatabaseClosed):
            db.get(b"k")

    def test_flush_propagates_wal_failure(self, db):
        db.put(b"k", b"v")
        stall(db.fs.device.drive)
        with pytest.raises(WALSyncError):
            db.flush()
        assert db.fatal_error is not None

    def test_closed_db_rejects_operations(self, db):
        db.put(b"k", b"v")
        db.close()
        with pytest.raises(DatabaseClosed):
            db.get(b"k")

    def test_close_is_idempotent(self, db):
        db.close()
        db.close()
