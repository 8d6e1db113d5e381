"""Inodes and extents.

Files map their bytes to device blocks through extents (contiguous
runs), like Ext4; directories keep their entries as a JSON document in
their data blocks, written through the same path as file data so that
directory updates exercise the same failure modes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.errors import ConfigurationError, FilesystemError

__all__ = ["FileKind", "Extent", "Inode", "ROOT_INO"]

#: Inode number of the root directory (2, as in ext filesystems).
ROOT_INO = 2


class FileKind(enum.Enum):
    """Inode types supported by the simulator."""

    REGULAR = "reg"
    DIRECTORY = "dir"


@dataclass(frozen=True)
class Extent:
    """A contiguous run of device blocks backing part of a file."""

    start_block: int
    count: int

    def __post_init__(self) -> None:
        if self.start_block < 0 or self.count <= 0:
            raise ConfigurationError(f"invalid extent ({self.start_block}, {self.count})")

    @property
    def end_block(self) -> int:
        """One past the final block of the run."""
        return self.start_block + self.count

    def blocks(self) -> Iterator[int]:
        """Iterate the device blocks of the run."""
        return iter(range(self.start_block, self.end_block))


@dataclass
class Inode:
    """One file or directory.

    Attributes:
        ino: inode number.
        kind: regular file or directory.
        size: logical size in bytes (serialized JSON size for dirs).
        extents: device blocks holding the data, in file order.
        nlink: directory-entry references.
        mtime: last modification (virtual seconds).
    """

    ino: int
    kind: FileKind
    size: int = 0
    extents: List[Extent] = field(default_factory=list)
    nlink: int = 1
    mtime: float = 0.0

    def block_count(self) -> int:
        """Device blocks currently allocated to this inode."""
        return sum(extent.count for extent in self.extents)

    def nth_block(self, index: int) -> int:
        """Device block holding the ``index``-th file block."""
        remaining = index
        for extent in self.extents:
            if remaining < extent.count:
                return extent.start_block + remaining
            remaining -= extent.count
        raise FilesystemError(
            f"inode {self.ino}: file block {index} beyond {self.block_count()} blocks"
        )

    def append_blocks(self, start_block: int, count: int) -> None:
        """Attach a newly allocated run, merging with the tail if adjacent."""
        if self.extents and self.extents[-1].end_block == start_block:
            tail = self.extents.pop()
            self.extents.append(Extent(tail.start_block, tail.count + count))
        else:
            self.extents.append(Extent(start_block, count))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (for the inode table)."""
        return {
            "ino": self.ino,
            "kind": self.kind.value,
            "size": self.size,
            "extents": [[e.start_block, e.count] for e in self.extents],
            "nlink": self.nlink,
            "mtime": self.mtime,
        }

    @staticmethod
    def from_dict(raw: Dict[str, object]) -> "Inode":
        """Inverse of :meth:`to_dict`."""
        return Inode(
            ino=int(raw["ino"]),
            kind=FileKind(str(raw["kind"])),
            size=int(raw["size"]),
            extents=[Extent(int(s), int(c)) for s, c in raw["extents"]],
            nlink=int(raw["nlink"]),
            mtime=float(raw["mtime"]),
        )

    def encoded_size(self) -> int:
        """Bytes this inode occupies in its inode-table block."""
        return len(json.dumps(self.to_dict()).encode())
