"""A JBD2-style journal.

Metadata updates are batched into a running transaction; every
``commit_interval_s`` (5 s, ext4's default) the transaction is written
to the on-disk journal ring — descriptor block, data blocks, commit
record, each CRC-protected — and then checkpointed in place.

When a commit cannot reach the platter (the block layer surfaces a
buffer I/O error after its retries), the journal **aborts with error
-5** and every subsequent operation fails read-only.  This is exactly
the failure signature the paper observes for Ext4: "a Journal Block
Device (JBD) error in code -5, which occurs because the journal
superblock cannot be updated due to the blocked I/O".
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import (
    BlockIOError,
    ConfigurationError,
    FilesystemError,
    JournalAbort,
    ReadOnlyFilesystem,
)
from repro.obs import telemetry as obs
from repro.storage.block import BlockDevice

__all__ = ["Transaction", "JournalStats", "Journal"]

_DESCRIPTOR = 1
_COMMIT = 2

#: Bytes reserved at the head of each journal block for the record header.
_HEADER = 64


@dataclass
class Transaction:
    """A batch of metadata block updates awaiting commit."""

    tid: int
    updates: "Dict[int, bytes]" = field(default_factory=dict)

    def stage(self, block: int, data: bytes) -> None:
        """Buffer the new contents of ``block`` (last write wins)."""
        self.updates[block] = data

    @property
    def block_count(self) -> int:
        """Distinct metadata blocks staged in this transaction."""
        return len(self.updates)


@dataclass
class JournalStats:
    """Commit/abort accounting."""

    commits: int = 0
    blocks_logged: int = 0
    checkpoints: int = 0
    recovered_transactions: int = 0


class Journal:
    """The journal ring plus the running transaction."""

    def __init__(
        self,
        device: BlockDevice,
        start_block: int,
        length_blocks: int,
        commit_interval_s: float = 5.0,
    ) -> None:
        if length_blocks < 8:
            raise ConfigurationError(f"journal needs >= 8 blocks: {length_blocks}")
        if commit_interval_s <= 0.0:
            raise ConfigurationError("commit interval must be positive")
        self.device = device
        self.start_block = start_block
        self.length_blocks = length_blocks
        self.commit_interval_s = commit_interval_s
        self.aborted = False
        self.abort_code: Optional[int] = None
        self.stats = JournalStats()
        self._next_tid = 1
        self._running: Optional[Transaction] = None
        self._head = 0  # ring cursor, relative to start_block
        self._last_commit_time = device.clock.now
        self._obs = obs.get()

    # -- transaction lifecycle -------------------------------------------------

    def _check_alive(self) -> None:
        if self.aborted:
            raise ReadOnlyFilesystem(
                f"journal aborted with error {self.abort_code}; filesystem is read-only"
            )

    def current_transaction(self) -> Transaction:
        """The running transaction, created on demand."""
        self._check_alive()
        if self._running is None:
            self._running = Transaction(tid=self._next_tid)
            self._next_tid += 1
        return self._running

    def stage_metadata(self, block: int, data: bytes) -> None:
        """Add a metadata block image to the running transaction."""
        if len(data) != self.device.block_size:
            raise ConfigurationError(
                f"journal payloads must be whole blocks ({len(data)} bytes given)"
            )
        self.current_transaction().stage(block, data)

    def commit_due(self) -> bool:
        """True when the periodic commit timer has expired."""
        if self._running is None or self._running.block_count == 0:
            return False
        return (
            self.device.clock.now - self._last_commit_time >= self.commit_interval_s
        )

    def tick(self) -> None:
        """Commit the running transaction if the 5 s timer expired."""
        if self.commit_due():
            self.commit()

    # -- on-disk record helpers --------------------------------------------------

    def _ring_block(self, offset: int) -> int:
        return self.start_block + offset % self.length_blocks

    def _record(self, kind: int, tid: int, payload: bytes) -> bytes:
        if len(payload) > self.device.block_size - _HEADER:
            raise ConfigurationError("journal record payload too large")
        body = payload.ljust(self.device.block_size - _HEADER, b"\x00")
        crc = zlib.crc32(body)
        header = json.dumps(
            {"k": kind, "t": tid, "n": len(payload), "c": crc}
        ).encode()
        if len(header) > _HEADER:
            raise FilesystemError("journal header overflow")
        return header.ljust(_HEADER, b"\x00") + body

    @staticmethod
    def _parse(block: bytes) -> "Optional[Tuple[int, int, bytes]]":
        header = block[:_HEADER].rstrip(b"\x00")
        try:
            meta = json.loads(header.decode())
        except (ValueError, UnicodeDecodeError):
            return None
        body = block[_HEADER:]
        if zlib.crc32(body) != meta.get("c"):
            return None
        return int(meta["k"]), int(meta["t"]), body[: int(meta["n"])]

    # -- commit / abort ---------------------------------------------------------

    def commit(self) -> None:
        """Write the running transaction to the journal, then checkpoint.

        A buffer I/O error anywhere in the commit path aborts the
        journal with error -5 and raises :class:`JournalAbort`.
        """
        self._check_alive()
        txn = self._running
        if txn is None or txn.block_count == 0:
            self._last_commit_time = self.device.clock.now
            return
        if txn.block_count + 2 > self.length_blocks:
            raise FilesystemError(
                f"transaction of {txn.block_count} blocks exceeds the "
                f"{self.length_blocks}-block journal ring"
            )
        self._running = None
        blocks = sorted(txn.updates.items())
        tel = self._obs
        start = self.device.clock.now if tel is not None else 0.0
        try:
            self._write_commit(txn, blocks)
        except JournalAbort:
            if tel is not None:
                tel.tracer.record(
                    "journal.commit",
                    start,
                    self.device.clock.now,
                    category="fs",
                    status="error",
                    args={"tid": txn.tid, "error": "abort -5"},
                )
                tel.metrics.counter("journal_aborts_total").inc()
            raise
        if tel is not None:
            end = self.device.clock.now
            tel.tracer.record(
                "journal.commit",
                start,
                end,
                category="fs",
                args={"tid": txn.tid, "blocks": txn.block_count},
            )
            tel.metrics.counter("journal_commits_total").inc()
            tel.metrics.counter("journal_blocks_logged_total").inc(txn.block_count)
            tel.metrics.histogram("journal_commit_latency_s").observe(end - start)
        self.stats.commits += 1
        self._last_commit_time = self.device.clock.now

    def _write_commit(self, txn: Transaction, blocks) -> None:
        """The on-disk half of :meth:`commit` (descriptor, data,
        commit record, checkpoint)."""
        try:
            descriptor = json.dumps(
                {"tid": txn.tid, "blocks": [b for b, _ in blocks]}
            ).encode()
            self.device.write_block(
                self._ring_block(self._head), self._record(_DESCRIPTOR, txn.tid, descriptor)
            )
            self._head += 1
            for _, data in blocks:
                crc = zlib.crc32(data)
                # Journal data blocks are raw images; the descriptor
                # lists their homes and the commit record seals them.
                self.device.write_block(self._ring_block(self._head), data)
                self._head += 1
                self.stats.blocks_logged += 1
            commit_payload = json.dumps({"tid": txn.tid}).encode()
            self.device.write_block(
                self._ring_block(self._head), self._record(_COMMIT, txn.tid, commit_payload)
            )
            self._head += 1
            # Checkpoint: write the metadata home locations in place.
            for home, data in blocks:
                self.device.write_block(home, data)
            self.stats.checkpoints += 1
        except BlockIOError as cause:
            self.abort(cause)

    def abort(self, cause: Exception) -> None:
        """Abort the journal (error -5) — the Ext4 crash of Table 3."""
        self.aborted = True
        self.abort_code = -5
        raise JournalAbort(
            f"JBD: Detected aborted journal — error -5 while committing "
            f"({cause}); remounting filesystem read-only"
        ) from cause

    def force_commit(self) -> None:
        """Commit immediately (fsync path), regardless of the timer."""
        self.commit()

    # -- recovery -----------------------------------------------------------------

    def recover(self) -> int:
        """Replay committed transactions found in the ring (mount path).

        Scans the journal area linearly: each descriptor names the home
        blocks of the raw images that follow it; a matching commit
        record seals the transaction and triggers replay.  Descriptor
        sequences without a commit record (a crash mid-commit) are
        discarded, preserving atomicity.  Returns the number of
        transactions replayed.
        """
        replayed = 0
        offset = 0
        while offset < self.length_blocks:
            raw = self.device.read_block(self._ring_block(offset))
            parsed = self._parse(raw)
            offset += 1
            if parsed is None or parsed[0] != _DESCRIPTOR:
                continue
            _, tid, payload = parsed
            try:
                descriptor = json.loads(payload.decode())
            except (ValueError, UnicodeDecodeError):
                continue
            homes = [int(b) for b in descriptor.get("blocks", [])]
            if offset + len(homes) >= self.length_blocks:
                break
            images = [
                self.device.read_block(self._ring_block(offset + i))
                for i in range(len(homes))
            ]
            tail = self._parse(
                self.device.read_block(self._ring_block(offset + len(homes)))
            )
            if tail is not None and tail[0] == _COMMIT and tail[1] == tid:
                for home, image in zip(homes, images):
                    self.device.write_block(home, image)
                replayed += 1
                self.stats.recovered_transactions += 1
                offset += len(homes) + 1
        self._head = offset % self.length_blocks
        return replayed
