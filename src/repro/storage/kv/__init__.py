"""A RocksDB-like LSM key-value store on the simulated filesystem.

Implements the pieces the paper's RocksDB victim exercises: a CRC'd
write-ahead log whose sync failure is fatal (the
``sync_without_flush`` crash of Table 3), a memtable of per-key version
lists, bloom-filtered SSTables searched by key offsets, a
manifest/version set, and leveled compaction.
``db_bench``-style workloads live in :mod:`repro.workloads.db_bench`.
"""

from .bloom import BloomFilter
from .memtable import MemTable
from .wal import WALReader, WALWriter
from .sstable import SSTableBuilder, SSTableReader
from .version import FileMetadata, VersionEdit, VersionSet
from .iterator import DBIterator
from .db import DB, Options, Snapshot, WriteBatch

__all__ = [
    "BloomFilter",
    "MemTable",
    "WALWriter",
    "WALReader",
    "SSTableBuilder",
    "SSTableReader",
    "FileMetadata",
    "VersionEdit",
    "VersionSet",
    "DB",
    "DBIterator",
    "Options",
    "Snapshot",
    "WriteBatch",
]
