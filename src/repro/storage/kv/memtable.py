"""The memtable: an in-memory buffer of recent writes.

Entries carry a sequence number and a kind (value or tombstone), like
RocksDB's internal keys; lookups return the newest entry at or below
the read snapshot.  Each user key maps to its versions, oldest first,
so a point lookup is one dict probe and a write at a new sequence is an
append.  Sorted order is only needed when the table is flushed:
:meth:`MemTable.iterate` sorts the user keys once and yields each key's
versions newest first, the order SSTables store.  Raw ``bytes``
ordering of user keys is exact for arbitrary keys, NUL bytes included.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["MemTable", "VALUE", "TOMBSTONE"]

VALUE = 0
TOMBSTONE = 1

_MAX_SEQ = (1 << 56) - 1

#: One version of a key: (sequence, kind, value).
_Version = Tuple[int, int, bytes]


class MemTable:
    """Per-key version lists with byte-size accounting."""

    def __init__(self) -> None:
        self._versions: Dict[bytes, List[_Version]] = {}
        self._bytes = 0
        self._pairs = 0
        self.entries = 0

    @property
    def approximate_bytes(self) -> int:
        """Rough memory footprint used for flush decisions."""
        return self._bytes

    def add(self, sequence: int, kind: int, user_key: bytes, value: bytes = b"") -> None:
        """Record a put (kind=VALUE) or delete (kind=TOMBSTONE).

        Re-adding an existing ``(user_key, sequence)`` pair replaces
        its entry.
        """
        if kind not in (VALUE, TOMBSTONE):
            raise ConfigurationError(f"unknown entry kind: {kind}")
        if not 0 <= sequence <= _MAX_SEQ:
            raise ConfigurationError(f"sequence out of range: {sequence}")
        if not isinstance(user_key, bytes):
            raise ConfigurationError(f"keys must be bytes, got {type(user_key).__name__}")
        entry = (sequence, kind, value)
        versions = self._versions.get(user_key)
        if versions is None:
            self._versions[user_key] = [entry]
            self._pairs += 1
        elif sequence > versions[-1][0]:
            versions.append(entry)
            self._pairs += 1
        else:
            # ``(sequence,)`` sorts before every entry with that sequence.
            index = bisect_left(versions, (sequence,))
            if versions[index][0] == sequence:
                versions[index] = entry
            else:
                versions.insert(index, entry)
                self._pairs += 1
        self._bytes += len(user_key) + len(value) + 16
        self.entries += 1

    def get(self, user_key: bytes, snapshot: Optional[int] = None) -> "Optional[Tuple[int, bytes]]":
        """Newest (kind, value) visible at ``snapshot``, or None.

        ``None`` means the key is unknown here (check older tables);
        a TOMBSTONE result means it is known deleted.
        """
        versions = self._versions.get(user_key)
        if versions is None:
            return None
        if snapshot is None:
            _, kind, value = versions[-1]
            return kind, value
        for sequence, kind, value in reversed(versions):
            if sequence <= snapshot:
                return kind, value
        return None

    def __len__(self) -> int:
        """Distinct ``(user_key, sequence)`` pairs held."""
        return self._pairs

    def iterate(self) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """Yield (user_key, sequence, kind, value): keys ascending,
        newest-first per key."""
        for user_key in sorted(self._versions):
            for sequence, kind, value in self._versions[user_key][::-1]:
                yield user_key, sequence, kind, value
