"""The kernel log ring buffer.

The paper reads the attack's progress out of ``dmesg``: "the reported
errors from dmesg indicate that the buffer I/O error on the storage
device leads to OS crashing".  :class:`DmesgBuffer` is that ring:
timestamped entries, bounded capacity, and grep-style filtering used by
the crash monitors and tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List

from repro.errors import ConfigurationError
from repro.sim.clock import VirtualClock

__all__ = ["DmesgEntry", "DmesgBuffer"]


@dataclass(frozen=True)
class DmesgEntry:
    """One kernel log line."""

    timestamp: float
    level: str
    message: str

    def __str__(self) -> str:
        return f"[{self.timestamp:12.6f}] {self.message}"


class DmesgBuffer:
    """A bounded ring of kernel log entries."""

    def __init__(self, clock: VirtualClock, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity}")
        self.clock = clock
        self._entries: Deque[DmesgEntry] = deque(maxlen=capacity)
        self.dropped = 0

    def log(self, message: str, level: str = "err") -> DmesgEntry:
        """Append a line at the current virtual time."""
        if len(self._entries) == self._entries.maxlen:
            self.dropped += 1
        entry = DmesgEntry(timestamp=self.clock.now, level=level, message=message)
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DmesgEntry]:
        return iter(self._entries)

    def grep(self, needle: str) -> List[DmesgEntry]:
        """Entries whose message contains ``needle``."""
        return [entry for entry in self._entries if needle in entry.message]

    def count(self, needle: str) -> int:
        """Number of entries containing ``needle``."""
        return len(self.grep(needle))

    def tail(self, n: int = 10) -> List[DmesgEntry]:
        """The most recent ``n`` entries."""
        if n <= 0:
            return []
        return list(self._entries)[-n:]

    @property
    def evicted(self) -> int:
        """Entries the ring has pushed out to make room.

        Unlike a real dmesg ring there is no separate "suppressed"
        path: every overflow is an eviction, so this is :attr:`dropped`
        under the name the forensics tooling uses.
        """
        return self.dropped

    def to_events(self) -> List[Dict[str, Any]]:
        """The surviving entries as telemetry instant events.

        Each event carries the line's virtual-clock timestamp so trace
        exporters place kernel messages on the same timeline as drive
        and application spans.  When the ring has evicted entries, a
        leading marker event (stamped at the oldest surviving line)
        records how many are gone.
        """
        events: List[Dict[str, Any]] = []
        if self.dropped and self._entries:
            events.append(
                {
                    "name": "dmesg.evicted",
                    "ts_s": self._entries[0].timestamp,
                    "category": "dmesg",
                    "args": {"count": self.dropped},
                }
            )
        for entry in self._entries:
            events.append(
                {
                    "name": f"dmesg.{entry.level}",
                    "ts_s": entry.timestamp,
                    "category": "dmesg",
                    "args": {"text": entry.message},
                }
            )
        return events
