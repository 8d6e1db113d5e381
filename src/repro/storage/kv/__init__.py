"""A RocksDB-like LSM key-value store on the simulated filesystem.

Implements the pieces the paper's RocksDB victim exercises: a CRC'd
write-ahead log whose sync failure is fatal (the
``sync_without_flush`` crash of Table 3), a memtable of per-key version
lists, bloom-filtered SSTables searched by key offsets, a
manifest/version set, and leveled compaction.
``db_bench``-style workloads live in :mod:`repro.workloads.db_bench`.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "bloom": ("BloomFilter",),
        "memtable": ("MemTable",),
        "wal": ("WALWriter", "WALReader"),
        "sstable": ("SSTableBuilder", "SSTableReader"),
        "version": ("FileMetadata", "VersionEdit", "VersionSet"),
        "db": ("DB", "Options", "Snapshot", "WriteBatch"),
    },
)
