"""The Ext4-like filesystem: namespace, data, persistence, failure."""

import pytest

from repro.errors import (
    BlockIOError,
    FileExists,
    FileNotFound,
    FilesystemError,
    JournalAbort,
    ReadOnlyFilesystem,
)
from repro.hdd.servo import VibrationInput
from repro.storage.fs.filesystem import SimFS
from repro.storage.fs.inode import FileKind


def stall(drive):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


class TestNamespace:
    def test_mkdir_and_listdir(self, fs):
        fs.mkdir("/var")
        fs.mkdir("/var/log")
        assert fs.listdir("/") == ["var"]
        assert fs.listdir("/var") == ["log"]

    def test_create_and_stat(self, fs):
        fs.create("/hello.txt")
        inode = fs.stat("/hello.txt")
        assert inode.kind is FileKind.REGULAR
        assert inode.size == 0

    def test_duplicate_create_raises(self, fs):
        fs.create("/x")
        with pytest.raises(FileExists):
            fs.create("/x")
        fs.create("/x", exist_ok=True)  # but exist_ok tolerates it

    def test_missing_lookup_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.read_file("/nope")

    def test_unlink_removes(self, fs):
        fs.create("/x")
        fs.unlink("/x")
        assert not fs.exists("/x")

    def test_unlink_nonempty_dir_refused(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(FilesystemError):
            fs.unlink("/d")

    def test_unlink_empty_dir_ok(self, fs):
        fs.mkdir("/d")
        fs.unlink("/d")
        assert not fs.exists("/d")

    def test_rename_moves_and_replaces(self, fs):
        fs.create("/a")
        fs.write_file("/a", b"payload")
        fs.create("/b")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_file("/b") == b"payload"

    def test_relative_paths_rejected(self, fs):
        with pytest.raises(FilesystemError):
            fs.create("relative/path")

    def test_nlink_accounting(self, fs):
        root_links = fs.stat("/").nlink
        fs.mkdir("/d")
        assert fs.stat("/").nlink == root_links + 1


class TestFileData:
    def test_write_read_roundtrip(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"hello world")
        assert fs.read_file("/f") == b"hello world"

    def test_multi_block_file(self, fs):
        fs.create("/big")
        payload = bytes(range(256)) * 64  # 16 KiB
        fs.write_file("/big", payload)
        assert fs.read_file("/big") == payload
        assert fs.stat("/big").block_count() == 4

    def test_append_grows(self, fs):
        fs.create("/log")
        fs.append("/log", b"one\n")
        fs.append("/log", b"two\n")
        assert fs.read_file("/log") == b"one\ntwo\n"

    def test_overwrite_at_offset(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"aaaaaaaaaa")
        fs.write_file("/f", b"BB", offset=4)
        assert fs.read_file("/f") == b"aaaaBBaaaa"

    def test_sparse_offset_write(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"end", offset=8192)
        data = fs.read_file("/f")
        assert len(data) == 8195
        assert data[:10] == b"\x00" * 10
        assert data[-3:] == b"end"

    def test_partial_reads(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"0123456789")
        assert fs.read_file("/f", offset=3, length=4) == b"3456"

    def test_extent_merging_for_sequential_growth(self, fs):
        fs.create("/f")
        for _ in range(10):
            fs.append("/f", b"x" * 4096)
        assert len(fs.stat("/f").extents) == 1

    def test_freed_blocks_are_reused(self, fs):
        fs.create("/a")
        fs.write_file("/a", b"x" * 8192)
        first_extents = list(fs.stat("/a").extents)
        fs.unlink("/a")
        fs.create("/b")
        fs.write_file("/b", b"y" * 8192)
        assert fs.stat("/b").extents[0].start_block == first_extents[0].start_block


class TestPersistence:
    def test_mount_sees_committed_state(self, fs, device):
        fs.mkdir("/var")
        fs.create("/var/data")
        fs.write_file("/var/data", b"persist me")
        fs.sync()
        remounted = SimFS.mount(device)
        assert remounted.read_file("/var/data") == b"persist me"
        assert remounted.listdir("/") == ["var"]

    def test_mount_replays_journal(self, fs, device):
        fs.create("/f")
        fs.write_file("/f", b"data")
        fs.sync()
        remounted = SimFS.mount(device)
        assert remounted.journal.stats.recovered_transactions >= 1
        assert remounted.read_file("/f") == b"data"

    def test_mount_rebuilds_allocator(self, fs, device):
        fs.create("/f")
        fs.write_file("/f", b"x" * 4096)
        fs.sync()
        remounted = SimFS.mount(device)
        remounted.create("/g")
        remounted.write_file("/g", b"y" * 4096)
        # No overlap between the two files' blocks.
        f_blocks = {b for e in remounted.stat("/f").extents for b in e.blocks()}
        g_blocks = {b for e in remounted.stat("/g").extents for b in e.blocks()}
        assert not f_blocks & g_blocks

    def test_mount_rejects_unformatted_device(self, device):
        with pytest.raises(FilesystemError):
            SimFS.mount(device)

    def test_uncommitted_namespace_lost_on_remount(self, fs, device):
        fs.sync()
        fs.create("/volatile")  # staged but never committed
        remounted = SimFS.mount(device)
        assert not remounted.exists("/volatile")


class TestPageCache:
    def test_second_read_hits_cache(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"cached")
        fs.read_file("/f")
        hits_before = fs.page_cache_hits
        fs.read_file("/f")
        assert fs.page_cache_hits > hits_before

    def test_cached_reads_survive_drive_stall(self, fs, device):
        fs.create("/bin")
        fs.write_file("/bin", b"binary image")
        fs.read_file("/bin")
        stall(device.drive)
        # No disk I/O needed: the read is served from the page cache.
        assert fs.read_file("/bin") == b"binary image"

    def test_write_updates_cache_coherently(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"v1")
        fs.read_file("/f")
        fs.write_file("/f", b"v2")
        assert fs.read_file("/f") == b"v2"


class TestFailureSemantics:
    def test_blocked_data_write_surfaces_eio(self, fs, device):
        fs.create("/f")
        stall(device.drive)
        with pytest.raises(BlockIOError):
            fs.write_file("/f", b"data")

    def test_journal_abort_makes_fs_read_only(self, fs, device):
        fs.create("/f")
        fs.touch_mtime("/f")
        stall(device.drive)
        device.clock.advance(6.0)
        with pytest.raises(JournalAbort):
            fs.touch_mtime("/f")
        device.drive.set_vibration(None)
        assert fs.read_only
        with pytest.raises(ReadOnlyFilesystem):
            fs.create("/g")
        # Reads still work on the read-only corpse.
        assert fs.read_file("/f") == b""
