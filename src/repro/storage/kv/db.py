"""The database: RocksDB-shaped API over the LSM machinery.

Write path: batch -> WAL buffer (synced by policy) -> memtable ->
flush to an L0 SSTable when the write buffer fills -> leveled
compaction.  Read path: memtable -> L0 (newest sequence wins) ->
deeper levels through a table-reader cache.

Failure semantics match the paper's victim: when a WAL sync cannot
reach the drive the database raises
:class:`~repro.errors.WALSyncError` (the ``sync_without_flush``
signature) and refuses further writes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    CorruptionError,
    DatabaseClosed,
    WALSyncError,
)
from repro.obs import telemetry as obs
from repro.storage.fs.filesystem import SimFS

from .compaction import Compactor
from .memtable import TOMBSTONE, VALUE, MemTable
from .sstable import SSTableReader
from .version import FileMetadata, VersionEdit, VersionSet
from .wal import WALReader, WALWriter

__all__ = ["Options", "WriteBatch", "Snapshot", "DB"]

_OP = struct.Struct("<BII")


@dataclass
class Options:
    """Tunables, named after their RocksDB equivalents.

    The cpu_*_s costs charge virtual time for in-memory work so that
    op rates are finite even when no disk I/O happens; they were fit to
    the paper's db_bench baseline (~1.1e5 ops/s, Table 2).
    """

    write_buffer_size: int = 2 << 20
    wal_sync_every_bytes: int = 1 << 20
    sync_writes: bool = False
    l0_compaction_trigger: int = 4
    level_base_bytes: int = 8 << 20
    level_multiplier: int = 10
    target_file_bytes: int = 2 << 20
    cpu_put_s: float = 7.0e-6
    cpu_get_s: float = 6.0e-6
    create_if_missing: bool = True

    def __post_init__(self) -> None:
        for name in ("write_buffer_size", "wal_sync_every_bytes", "l0_compaction_trigger",
                     "level_base_bytes", "level_multiplier", "target_file_bytes"):
            value = getattr(self, name)
            if not (0 < value < math.inf):  # also rejects NaN
                raise ConfigurationError(f"{name} must be positive and finite: {value}")
        for name in ("cpu_put_s", "cpu_get_s"):
            cost = getattr(self, name)
            if not (0.0 <= cost < math.inf):
                raise ConfigurationError(f"{name} must be finite and non-negative: {cost}")


@dataclass(frozen=True)
class Snapshot:
    """A pinned read view of the database at one sequence number.

    While a snapshot is live (not released), compaction preserves the
    key versions it can see, so reads through it stay consistent no
    matter how much churn follows.
    """

    sequence: int


class WriteBatch:
    """An atomic group of puts/deletes."""

    def __init__(self) -> None:
        self.ops: List[Tuple[int, bytes, bytes]] = []

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        """Queue a put."""
        self.ops.append((VALUE, key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        """Queue a delete."""
        self.ops.append((TOMBSTONE, key, b""))
        return self

    def __len__(self) -> int:
        return len(self.ops)

    def encode(self) -> bytes:
        """WAL payload of the batch."""
        parts = []
        for kind, key, value in self.ops:
            parts.append(_OP.pack(kind, len(key), len(value)))
            parts.append(key)
            parts.append(value)
        return b"".join(parts)

    @staticmethod
    def decode(payload: bytes) -> "WriteBatch":
        """Inverse of :meth:`encode`."""
        batch = WriteBatch()
        offset = 0
        total = len(payload)
        while offset + _OP.size <= total:
            kind, klen, vlen = _OP.unpack_from(payload, offset)
            offset += _OP.size
            key = payload[offset : offset + klen]
            offset += klen
            value = payload[offset : offset + vlen]
            offset += vlen
            if kind not in (VALUE, TOMBSTONE):
                raise CorruptionError(f"bad batch op kind {kind}")
            batch.ops.append((kind, key, value))
        return batch


@dataclass
class DBStats:
    """Operation counters."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    get_hits: int = 0
    flushes: int = 0
    wal_syncs: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class DB:
    """A single-process LSM database on the simulated filesystem."""

    def __init__(self, fs: SimFS, dirpath: str, options: Optional[Options] = None) -> None:
        self.fs = fs
        self.dirpath = dirpath.rstrip("/")
        self.options = options if options is not None else Options()
        self.versions = VersionSet(fs, self.dirpath)
        self.readers: Dict[int, SSTableReader] = {}
        self._live_snapshots: "set[int]" = set()
        self.compactor = Compactor(
            fs,
            self.versions,
            self.readers,
            l0_compaction_trigger=self.options.l0_compaction_trigger,
            level_base_bytes=self.options.level_base_bytes,
            level_multiplier=self.options.level_multiplier,
            target_file_bytes=self.options.target_file_bytes,
            # A bound method of the set, not a closure over ``self``:
            # the compactor must not keep the database alive.
            live_snapshots=self._live_snapshots.copy,
        )
        self.memtable = MemTable()
        self.wal: Optional[WALWriter] = None
        self.stats = DBStats()
        self.closed = False
        self.fatal_error: Optional[Exception] = None
        self._obs = obs.get()

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(cls, fs: SimFS, dirpath: str, options: Optional[Options] = None) -> "DB":
        """Open (or create) the database at ``dirpath``."""
        db = cls(fs, dirpath, options)
        if fs.exists(db.versions.current_path):
            db._recover()
        else:
            if not db.options.create_if_missing:
                raise ConfigurationError(f"database missing at {dirpath}")
            db._initialize()
        return db

    def _initialize(self) -> None:
        if not self.fs.exists(self.dirpath):
            self.fs.mkdir(self.dirpath)
        self.versions.create_new_manifest()
        self._rotate_wal()

    def _recover(self) -> None:
        self.versions.recover()
        if self.versions.wal_number is not None:
            path = self.versions.wal_path(self.versions.wal_number)
            if self.fs.exists(path):
                reader = WALReader(self.fs, path)
                sequence = self.versions.last_sequence
                for payload in reader.records():
                    batch = WriteBatch.decode(payload)
                    for kind, key, value in batch.ops:
                        sequence += 1
                        self.memtable.add(sequence, kind, key, value)
                self.versions.last_sequence = sequence
        # Reuse the recovered WAL number going forward.
        number = self.versions.wal_number
        if number is None:
            self._rotate_wal()
        else:
            self.wal = WALWriter(
                self.fs,
                self.versions.wal_path(number),
                sync_every_bytes=self.options.wal_sync_every_bytes,
            )

    def _rotate_wal(self) -> None:
        number = self.versions.new_file_number()
        old = self.wal
        self.wal = WALWriter(
            self.fs,
            self.versions.wal_path(number),
            sync_every_bytes=self.options.wal_sync_every_bytes,
        )
        edit = VersionEdit(wal_number=number)
        self.versions.log_and_apply(edit)
        if old is not None and self.fs.exists(old.path):
            self.fs.unlink(old.path)

    def close(self) -> None:
        """Sync the WAL and mark the handle closed."""
        if self.closed:
            return
        if self.wal is not None and self.fatal_error is None:
            try:
                self.wal.sync()
            except WALSyncError as err:
                self.fatal_error = err
        self.closed = True

    # -- guards ---------------------------------------------------------------

    def _check_usable(self) -> None:
        if self.closed:
            raise DatabaseClosed(f"database {self.dirpath} is closed")
        if self.fatal_error is not None:
            raise DatabaseClosed(
                f"database {self.dirpath} died: {self.fatal_error}"
            )

    @property
    def clock(self):
        """The shared virtual clock."""
        return self.fs.device.clock

    def _charge(self, seconds: float) -> None:
        if seconds > 0.0:
            self.clock.advance(seconds)

    # -- write path --------------------------------------------------------------

    def write(self, batch: WriteBatch, sync: Optional[bool] = None) -> None:
        """Apply a batch atomically (WAL first, then memtable)."""
        self._check_usable()
        if not batch.ops:
            return
        self._charge(self.options.cpu_put_s * len(batch.ops))
        use_sync = self.options.sync_writes if sync is None else sync
        try:
            due = self.wal.append(batch.encode())
            if use_sync or due:
                self.wal.sync()
                self.stats.wal_syncs += 1
        except WALSyncError as err:
            self.fatal_error = err
            raise
        for kind, key, value in batch.ops:
            self.versions.last_sequence += 1
            self.memtable.add(self.versions.last_sequence, kind, key, value)
            self.stats.bytes_written += len(key) + len(value)
            if kind == VALUE:
                self.stats.puts += 1
            else:
                self.stats.deletes += 1
        if self.memtable.approximate_bytes >= self.options.write_buffer_size:
            self.flush()

    def put(self, key: bytes, value: bytes, sync: Optional[bool] = None) -> None:
        """Insert or overwrite one key."""
        self.write(WriteBatch().put(key, value), sync=sync)

    def delete(self, key: bytes, sync: Optional[bool] = None) -> None:
        """Delete one key."""
        self.write(WriteBatch().delete(key), sync=sync)

    # -- flush -------------------------------------------------------------------

    def flush(self) -> Optional[FileMetadata]:
        """Write the memtable to an L0 table and rotate the WAL."""
        self._check_usable()
        if len(self.memtable) == 0:
            return None
        tel = self._obs
        flush_start = self.clock.now if tel is not None else 0.0
        try:
            self.wal.sync()  # everything in the table must be durable first
        except WALSyncError as err:
            self.fatal_error = err
            raise
        from .sstable import SSTableBuilder

        number = self.versions.new_file_number()
        builder = SSTableBuilder(self.fs, self.versions.table_path(number))
        for user_key, sequence, kind, value in self.memtable.iterate():
            builder.add(user_key, sequence, kind, value)
        size = builder.finish()
        meta = FileMetadata(
            number=number,
            level=0,
            size_bytes=size,
            smallest=builder.smallest,
            largest=builder.largest,
            entries=builder.entries,
        )
        self.readers[number] = SSTableReader(
            self.fs, self.versions.table_path(number), blob=builder.final_blob
        )
        self.versions.log_and_apply(VersionEdit(added=[meta]))
        self.memtable = MemTable()
        self._rotate_wal()
        self.stats.flushes += 1
        if tel is not None:
            tel.tracer.record(
                "kv.flush",
                flush_start,
                self.clock.now,
                category="kv",
                args={"entries": meta.entries, "bytes": size},
            )
            tel.metrics.counter("kv_flushes_total").inc()
            tel.metrics.counter("kv_flushed_bytes_total").inc(size)
        self.compactor.maybe_compact()
        return meta

    # -- read path -----------------------------------------------------------------

    def _reader(self, meta: FileMetadata) -> SSTableReader:
        reader = self.readers.get(meta.number)
        if reader is None:
            reader = SSTableReader(self.fs, self.versions.table_path(meta.number))
            self.readers[meta.number] = reader
        return reader

    # -- snapshots -----------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current state for consistent reads."""
        self._check_usable()
        snap = Snapshot(self.versions.last_sequence)
        self._live_snapshots.add(snap.sequence)
        return snap

    def release_snapshot(self, snap: Snapshot) -> None:
        """Unpin a snapshot (idempotent); compaction may then reclaim."""
        self._live_snapshots.discard(snap.sequence)

    @staticmethod
    def _resolve_snapshot(snapshot) -> Optional[int]:
        if snapshot is None:
            return None
        if isinstance(snapshot, Snapshot):
            return snapshot.sequence
        return int(snapshot)

    def get(self, key: bytes, snapshot=None) -> Optional[bytes]:
        """Point lookup; returns None for missing or deleted keys.

        ``snapshot`` may be a :class:`Snapshot` or a raw sequence
        number; only pinned snapshots survive compaction reliably.
        """
        snapshot = self._resolve_snapshot(snapshot)
        self._check_usable()
        self._charge(self.options.cpu_get_s)
        self.stats.gets += 1
        found = self.memtable.get(key, snapshot)
        if found is not None:
            kind, value = found
            return self._resolve(kind, value)
        # L0 files may overlap: the newest sequence among them wins.
        best: Optional[Tuple[int, int, bytes]] = None
        for meta in self.versions.files_at(0):
            hit = self._reader(meta).get(key, snapshot)
            if hit is not None and (best is None or hit[0] > best[0]):
                best = hit
        if best is not None:
            return self._resolve(best[1], best[2])
        for level in range(1, len(self.versions.levels)):
            for meta in self.versions.files_at(level):
                if meta.smallest <= key <= meta.largest:
                    hit = self._reader(meta).get(key, snapshot)
                    if hit is not None:
                        return self._resolve(hit[1], hit[2])
                    break  # disjoint ranges: no other file on this level has it
        return None

    def _resolve(self, kind: int, value: bytes) -> Optional[bytes]:
        if kind == TOMBSTONE:
            return None
        self.stats.get_hits += 1
        self.stats.bytes_read += len(value)
        return value

    # -- iteration ---------------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[bytes, bytes]]:
        """Full ordered scan of live keys (merging all sources)."""
        import heapq

        streams = []
        streams.append(
            ((key, -seq, kind, value) for key, seq, kind, value in self.memtable.iterate())
        )
        for meta in sorted(self.versions.all_files(), key=lambda m: m.number):
            reader = self._reader(meta)
            streams.append(
                ((key, -seq, kind, value) for key, seq, kind, value in reader.iterate())
            )
        last_key: Optional[bytes] = None
        for key, _neg_seq, kind, value in heapq.merge(*streams):
            if key == last_key:
                continue
            last_key = key
            if kind == VALUE:
                yield key, value

    def iterator(self, snapshot=None) -> "DBIterator":
        """A seekable, snapshot-consistent iterator over live keys."""
        from .iterator import DBIterator

        snapshot = self._resolve_snapshot(snapshot)
        self._check_usable()
        sources = [self.memtable.iterate()]
        for meta in sorted(self.versions.all_files(), key=lambda m: m.number):
            sources.append(self._reader(meta).iterate())
        return DBIterator(sources, snapshot=snapshot)

    def range_scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered scan of live keys in [start, end) (None = unbounded)."""
        for key, value in self.scan():
            if start is not None and key < start:
                continue
            if end is not None and key >= end:
                break
            yield key, value

    def compact_range(self) -> int:
        """Manually flush and compact until the tree is calm.

        Returns the number of compaction rounds run (RocksDB's
        CompactRange equivalent, used by maintenance jobs).
        """
        self._check_usable()
        self.flush()
        rounds = 0
        if self.compactor.force_level0() is not None:
            rounds += 1
        return rounds + self.compactor.maybe_compact(max_rounds=32)

    # -- introspection --------------------------------------------------------------------

    def get_property(self, name: str) -> Optional[str]:
        """RocksDB-style string properties.

        Supported: ``num-files-at-level<N>``, ``total-sst-bytes``,
        ``memtable-bytes``, ``last-sequence``, ``wal-unsynced-bytes``.
        """
        if name.startswith("num-files-at-level"):
            try:
                level = int(name[len("num-files-at-level"):])
            except ValueError:
                return None
            if not 0 <= level < len(self.versions.levels):
                return None
            return str(len(self.versions.levels[level]))
        if name == "total-sst-bytes":
            return str(sum(f.size_bytes for f in self.versions.all_files()))
        if name == "memtable-bytes":
            return str(self.memtable.approximate_bytes)
        if name == "last-sequence":
            return str(self.versions.last_sequence)
        if name == "wal-unsynced-bytes":
            return str(self.wal.unsynced_bytes if self.wal is not None else 0)
        return None

    def level_summary(self) -> str:
        """One-line ``files@level`` summary, like RocksDB's LOG lines."""
        parts = []
        for level, files in enumerate(self.versions.levels):
            if files:
                parts.append(f"L{level}:{len(files)}")
        return " ".join(parts) if parts else "empty"
