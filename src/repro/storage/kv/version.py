"""Versions and the manifest.

The version set tracks which SSTable files live on which level, plus
the next file number and last sequence number.  Changes are expressed
as :class:`VersionEdit` records appended to a CRC'd MANIFEST log file;
a ``CURRENT`` file names the live manifest, exactly like LevelDB and
RocksDB.  Recovery replays the manifest to rebuild the level layout.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, CorruptionError
from repro.storage.fs.filesystem import SimFS

__all__ = ["FileMetadata", "VersionEdit", "VersionSet"]

_RECORD = struct.Struct("<II")
NUM_LEVELS = 7


@dataclass(frozen=True)
class FileMetadata:
    """One SSTable file known to the version set."""

    number: int
    level: int
    size_bytes: int
    smallest: bytes
    largest: bytes
    entries: int = 0

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise ConfigurationError(f"file number must be positive: {self.number}")
        if not 0 <= self.level < NUM_LEVELS:
            raise ConfigurationError(f"level out of range: {self.level}")

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        """Key-range overlap test."""
        return not (self.largest < smallest or self.smallest > largest)

    def to_dict(self) -> Dict[str, object]:
        """JSON form for manifest records."""
        return {
            "number": self.number,
            "level": self.level,
            "size": self.size_bytes,
            "smallest": self.smallest.hex(),
            "largest": self.largest.hex(),
            "entries": self.entries,
        }

    @staticmethod
    def from_dict(raw: Dict[str, object]) -> "FileMetadata":
        """Inverse of :meth:`to_dict`."""
        return FileMetadata(
            number=int(raw["number"]),
            level=int(raw["level"]),
            size_bytes=int(raw["size"]),
            smallest=bytes.fromhex(str(raw["smallest"])),
            largest=bytes.fromhex(str(raw["largest"])),
            entries=int(raw.get("entries", 0)),
        )


@dataclass
class VersionEdit:
    """A delta applied to the version set."""

    added: List[FileMetadata] = field(default_factory=list)
    deleted: List[int] = field(default_factory=list)  # file numbers
    next_file_number: Optional[int] = None
    last_sequence: Optional[int] = None
    wal_number: Optional[int] = None

    def encode(self) -> bytes:
        """JSON payload of the edit."""
        return json.dumps(
            {
                "added": [f.to_dict() for f in self.added],
                "deleted": self.deleted,
                "next_file": self.next_file_number,
                "last_seq": self.last_sequence,
                "wal": self.wal_number,
            }
        ).encode()

    @staticmethod
    def decode(payload: bytes) -> "VersionEdit":
        """Inverse of :meth:`encode`."""
        raw = json.loads(payload.decode())
        return VersionEdit(
            added=[FileMetadata.from_dict(f) for f in raw.get("added", [])],
            deleted=[int(n) for n in raw.get("deleted", [])],
            next_file_number=raw.get("next_file"),
            last_sequence=raw.get("last_seq"),
            wal_number=raw.get("wal"),
        )


class VersionSet:
    """Level layout + manifest persistence."""

    def __init__(self, fs: SimFS, dirpath: str) -> None:
        self.fs = fs
        self.dirpath = dirpath.rstrip("/")
        self.levels: List[Dict[int, FileMetadata]] = [dict() for _ in range(NUM_LEVELS)]
        #: Each level's files in :meth:`files_at` order, sorted on first
        #: use and kept until :meth:`_apply`, the one place levels change.
        self._order: List[Optional[Tuple[FileMetadata, ...]]] = [None] * NUM_LEVELS
        self.next_file_number = 1
        self.last_sequence = 0
        self.wal_number: Optional[int] = None
        self._manifest_path: Optional[str] = None

    # -- paths -----------------------------------------------------------------

    @property
    def current_path(self) -> str:
        """Path of the CURRENT pointer file."""
        return f"{self.dirpath}/CURRENT"

    def manifest_path(self, number: int) -> str:
        """Path of manifest file ``number``."""
        return f"{self.dirpath}/MANIFEST-{number:06d}"

    def table_path(self, number: int) -> str:
        """Path of SSTable file ``number``."""
        return f"{self.dirpath}/{number:06d}.sst"

    def wal_path(self, number: int) -> str:
        """Path of WAL file ``number``."""
        return f"{self.dirpath}/{number:06d}.log"

    # -- level queries ------------------------------------------------------------

    def files_at(self, level: int) -> List[FileMetadata]:
        """Files on ``level``, newest-first for L0, key-sorted otherwise.

        The list is the caller's own; the kept order is not exposed.
        """
        order = self._order[level]
        if order is None:
            files = self.levels[level].values()
            if level == 0:
                order = tuple(sorted(files, key=lambda f: f.number, reverse=True))
            else:
                order = tuple(sorted(files, key=lambda f: f.smallest))
            self._order[level] = order
        return list(order)

    def all_files(self) -> List[FileMetadata]:
        """Every live file."""
        return [f for level in self.levels for f in level.values()]

    def level_bytes(self, level: int) -> int:
        """Total bytes on ``level``."""
        return sum(f.size_bytes for f in self.levels[level].values())

    def new_file_number(self) -> int:
        """Allocate a file number."""
        number = self.next_file_number
        self.next_file_number += 1
        return number

    # -- edits ---------------------------------------------------------------------

    def _apply(self, edit: VersionEdit) -> None:
        self._order = [None] * NUM_LEVELS
        for number in edit.deleted:
            for level in self.levels:
                level.pop(number, None)
        for meta in edit.added:
            self.levels[meta.level][meta.number] = meta
        if edit.next_file_number is not None:
            self.next_file_number = max(self.next_file_number, edit.next_file_number)
        if edit.last_sequence is not None:
            self.last_sequence = max(self.last_sequence, edit.last_sequence)
        if edit.wal_number is not None:
            self.wal_number = edit.wal_number

    def _append_record(self, path: str, payload: bytes) -> None:
        record = _RECORD.pack(zlib.crc32(payload), len(payload)) + payload
        self.fs.append(path, record)
        self.fs.fsync(path)

    def log_and_apply(self, edit: VersionEdit) -> None:
        """Persist an edit to the manifest, then apply it in memory."""
        edit.next_file_number = self.next_file_number
        edit.last_sequence = self.last_sequence
        if self._manifest_path is None:
            self.create_new_manifest()
        self._append_record(self._manifest_path, edit.encode())
        self._apply(edit)

    def create_new_manifest(self) -> None:
        """Start a fresh manifest with a full snapshot and point CURRENT at it."""
        number = self.new_file_number()
        path = self.manifest_path(number)
        self.fs.create(path, exist_ok=True)
        snapshot = VersionEdit(
            added=self.all_files(),
            next_file_number=self.next_file_number,
            last_sequence=self.last_sequence,
            wal_number=self.wal_number,
        )
        self._append_record(path, snapshot.encode())
        tmp = f"{self.dirpath}/CURRENT.tmp"
        self.fs.create(tmp, exist_ok=True)
        self.fs.write_file(tmp, path.encode())
        self.fs.fsync(tmp)
        self.fs.rename(tmp, self.current_path)
        self._manifest_path = path

    # -- recovery -----------------------------------------------------------------------

    def recover(self) -> None:
        """Rebuild state from CURRENT -> MANIFEST."""
        if not self.fs.exists(self.current_path):
            raise CorruptionError(f"{self.current_path} missing: not a database")
        manifest = self.fs.read_file(self.current_path).decode().strip()
        data = self.fs.read_file(manifest)
        offset = 0
        total = len(data)
        while offset + _RECORD.size <= total:
            crc, length = _RECORD.unpack_from(data, offset)
            start = offset + _RECORD.size
            end = start + length
            if end > total:
                break  # torn tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                raise CorruptionError(f"{manifest}: CRC mismatch at {offset}")
            self._apply(VersionEdit.decode(payload))
            offset = end
        self._manifest_path = manifest
