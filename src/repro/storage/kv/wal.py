"""The write-ahead log.

Every write batch is encoded as a CRC-protected record and buffered;
:meth:`WALWriter.sync` pushes the buffer to the filesystem and fsyncs
it.  When the drive stops serving I/O the sync path fails — and a
database whose WAL cannot be persisted must stop accepting writes.
This is the paper's RocksDB crash: "the newly arrived key-value pairs
written into the write-ahead log (WAL) cannot be persisted into the
drive, leading to a crash".

Record format (little-endian)::

    [crc32 u32][length u32][payload]
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.errors import (
    BlockIOError,
    ConfigurationError,
    CorruptionError,
    FilesystemError,
    ReadOnlyFilesystem,
    WALSyncError,
)
from repro.obs import telemetry as obs
from repro.storage.fs.filesystem import SimFS

__all__ = ["WALWriter", "WALReader"]

_HEADER = struct.Struct("<II")


class WALWriter:
    """Buffered appender with explicit durability points."""

    def __init__(
        self,
        fs: SimFS,
        path: str,
        sync_every_bytes: int = 1 << 20,
    ) -> None:
        if sync_every_bytes <= 0:
            raise ConfigurationError("sync threshold must be positive")
        self.fs = fs
        self.path = path
        self.sync_every_bytes = sync_every_bytes
        self._buffer = bytearray()
        self.unsynced_bytes = 0
        self.synced_bytes = 0
        self.records = 0
        self.syncs = 0
        self.failed = False
        self._obs = obs.get()
        if not fs.exists(path):
            fs.create(path)

    def append(self, payload: bytes) -> bool:
        """Buffer one record; returns True when a sync is now due."""
        if self.failed:
            raise WALSyncError(f"WAL {self.path} is dead after a failed sync")
        record = _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        self._buffer.extend(record)
        self.unsynced_bytes += len(record)
        self.records += 1
        return self.unsynced_bytes >= self.sync_every_bytes

    def sync(self) -> None:
        """Persist everything buffered so far.

        A storage failure here is fatal to the database: raises
        :class:`WALSyncError` with the paper's failure signature.
        """
        if self.failed:
            raise WALSyncError(f"WAL {self.path} is dead after a failed sync")
        if not self._buffer:
            return
        payload = bytes(self._buffer)
        tel = self._obs
        start = self.fs.device.clock.now if tel is not None else 0.0
        try:
            self.fs.append(self.path, payload)
            self.fs.fsync(self.path)
        except (BlockIOError, ReadOnlyFilesystem, FilesystemError) as cause:
            self.failed = True
            if tel is not None:
                tel.tracer.record(
                    "wal.sync",
                    start,
                    self.fs.device.clock.now,
                    category="kv",
                    status="error",
                    args={"bytes": len(payload), "error": "sync_without_flush"},
                )
                tel.metrics.counter("wal_sync_failures_total").inc()
            raise WALSyncError(
                "sync_without_flush_called: WAL persistence failed — "
                f"key-value pairs cannot reach the drive ({cause})"
            ) from cause
        if tel is not None:
            end = self.fs.device.clock.now
            tel.tracer.record(
                "wal.sync", start, end, category="kv", args={"bytes": len(payload)}
            )
            tel.metrics.counter("wal_syncs_total").inc()
            tel.metrics.counter("wal_synced_bytes_total").inc(len(payload))
            tel.metrics.histogram("wal_sync_latency_s").observe(end - start)
        self._buffer.clear()
        self.synced_bytes += len(payload)
        self.unsynced_bytes = 0
        self.syncs += 1


class WALReader:
    """Replays a WAL file record by record (recovery path)."""

    def __init__(self, fs: SimFS, path: str) -> None:
        self.fs = fs
        self.path = path
        self.corrupt_tail = False

    def records(self) -> Iterator[bytes]:
        """Yield payloads in write order.

        A truncated final record (torn write) ends iteration silently,
        like RocksDB's ``kTolerateCorruptedTailRecords``; a CRC mismatch
        in the middle raises :class:`CorruptionError`.
        """
        data = self.fs.read_file(self.path)
        offset = 0
        total = len(data)
        while offset + _HEADER.size <= total:
            crc, length = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > total:
                self.corrupt_tail = True
                return
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                if end == total:
                    self.corrupt_tail = True
                    return
                raise CorruptionError(
                    f"WAL {self.path}: CRC mismatch at offset {offset}"
                )
            yield payload
            offset = end
        if offset < total:
            # Trailing fragment smaller than a record header.
            self.corrupt_tail = True
