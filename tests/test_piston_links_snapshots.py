"""Hard links and pinned snapshots."""

import pytest

from repro.errors import FileExists, FilesystemError
from repro.storage.kv.db import DB, Options


class TestHardLinks:
    def test_link_shares_data(self, fs):
        fs.create("/orig")
        fs.write_file("/orig", b"shared bytes")
        fs.link("/orig", "/alias")
        assert fs.read_file("/alias") == b"shared bytes"
        fs.write_file("/alias", b"updated bytes")
        assert fs.read_file("/orig") == b"updated bytes"
        assert fs.stat("/orig").nlink == 2

    def test_unlink_one_name_keeps_the_other(self, fs):
        fs.create("/orig")
        fs.write_file("/orig", b"payload")
        fs.link("/orig", "/alias")
        fs.unlink("/orig")
        assert fs.read_file("/alias") == b"payload"
        assert fs.stat("/alias").nlink == 1

    def test_unlink_last_name_frees_blocks(self, fs):
        fs.create("/orig")
        fs.write_file("/orig", b"x" * 4096)
        fs.link("/orig", "/alias")
        used_before = fs.statfs()["used_blocks"]
        fs.unlink("/orig")
        assert fs.statfs()["used_blocks"] == used_before
        fs.unlink("/alias")
        assert fs.statfs()["used_blocks"] == used_before - 1

    def test_no_directory_links(self, fs):
        fs.mkdir("/d")
        with pytest.raises(FilesystemError):
            fs.link("/d", "/dlink")

    def test_no_clobbering_links(self, fs):
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(FileExists):
            fs.link("/a", "/b")

    def test_links_survive_remount(self, fs, device):
        from repro.storage.fs.filesystem import SimFS

        fs.create("/orig")
        fs.write_file("/orig", b"durable")
        fs.link("/orig", "/alias")
        fs.sync()
        remounted = SimFS.mount(device)
        assert remounted.read_file("/alias") == b"durable"
        assert remounted.stat("/alias").ino == remounted.stat("/orig").ino


class TestPinnedSnapshots:
    def test_snapshot_object_reads(self, db):
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.put(b"k", b"v2")
        assert db.get(b"k", snapshot=snap) == b"v1"
        assert db.get(b"k") == b"v2"

    def test_snapshot_survives_flush_and_compaction(self, fs):
        fs.mkdir("/snap")
        options = Options(write_buffer_size=8 * 1024, l0_compaction_trigger=2)
        db = DB.open(fs, "/snap", options=options)
        for i in range(100):
            db.put(f"k{i:03d}".encode(), b"gen1-" + bytes([i]))
        snap = db.snapshot()
        for round_ in range(6):
            for i in range(100):
                db.put(f"k{i:03d}".encode(), f"gen{round_ + 2}-".encode() + bytes([i]))
            db.flush()
        assert db.compactor.compactions_run >= 1
        # The pinned view still reads generation 1 everywhere.
        for i in range(100):
            value = db.get(f"k{i:03d}".encode(), snapshot=snap)
            assert value == b"gen1-" + bytes([i])

    def test_released_snapshot_may_be_reclaimed(self, db):
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.release_snapshot(snap)
        db.release_snapshot(snap)  # idempotent
        assert snap.sequence not in db._live_snapshots

    def test_deletes_respect_snapshots_through_compaction(self, fs):
        fs.mkdir("/sd")
        options = Options(write_buffer_size=4 * 1024, l0_compaction_trigger=2)
        db = DB.open(fs, "/sd", options=options)
        for i in range(50):
            db.put(f"k{i:03d}".encode(), b"v" * 30)
        snap = db.snapshot()
        for i in range(50):
            db.delete(f"k{i:03d}".encode())
        for _ in range(4):
            db.flush()
            db.compactor.maybe_compact(max_rounds=4)
        assert db.get(b"k010") is None
        assert db.get(b"k010", snapshot=snap) == b"v" * 30
