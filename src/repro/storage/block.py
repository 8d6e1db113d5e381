"""The kernel block layer.

Sits between the filesystem/database and the drive, adding what Linux
adds: request retries after drive timeouts, and ``Buffer I/O error``
accounting when a request finally fails.  The retry behaviour is what
sets the paper's ~80 s crash horizon: a stalled drive eats
``(1 + retries) * host_timeout`` seconds per request before the error
reaches the filesystem (3 x 25 s = 75 s here), after which the journal
aborts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import (
    BlockIOError,
    ConfigurationError,
    DriveError,
    DriveTimeout,
    MediumError,
    UnitError,
)
from repro.hdd.drive import HardDiskDrive
from repro.units import BLOCK_4K, SECTOR_SIZE

__all__ = ["BlockStats", "BlockDevice"]


@dataclass
class BlockStats:
    """Counters kept by the block layer (mirrors /sys/block/... stats)."""

    reads: int = 0
    writes: int = 0
    read_retries: int = 0
    write_retries: int = 0
    buffer_io_errors: int = 0


class BlockDevice:
    """A 4 KiB-block view of a drive with kernel-style error handling.

    Attributes:
        drive: the underlying simulated HDD.
        block_size: bytes per logical block (4 KiB, the paper's access
            granularity).
        retries: extra attempts after the first failure before the
            error is surfaced (Linux SCSI defaults to a handful; two
            retries reproduce the observed crash horizon).
        on_buffer_error: optional callback (e.g. the kernel's dmesg
            logger) invoked with a message on each final failure.
    """

    def __init__(
        self,
        drive: HardDiskDrive,
        block_size: int = BLOCK_4K,
        retries: int = 2,
        name: str = "sda",
        on_buffer_error: Optional[Callable[[str], None]] = None,
    ) -> None:
        if block_size <= 0 or block_size % SECTOR_SIZE != 0:
            raise ConfigurationError(
                f"block size must be a positive multiple of {SECTOR_SIZE}: {block_size}"
            )
        if retries < 0:
            raise ConfigurationError(f"retries must be non-negative: {retries}")
        self.drive = drive
        self.block_size = block_size
        self.retries = retries
        self.name = name
        self.on_buffer_error = on_buffer_error
        self.stats = BlockStats()

    @property
    def sectors_per_block(self) -> int:
        """512-byte sectors per logical block."""
        return self.block_size // SECTOR_SIZE

    @property
    def total_blocks(self) -> int:
        """Addressable logical blocks."""
        return self.drive.total_sectors // self.sectors_per_block

    @property
    def clock(self):
        """The virtual clock shared with the drive."""
        return self.drive.clock

    def _check_block(self, block: int) -> int:
        if not 0 <= block < self.total_blocks:
            raise UnitError(f"block {block} outside device of {self.total_blocks}")
        return block * self.sectors_per_block

    def _fail(self, kind: str, block: int, cause: DriveError) -> BlockIOError:
        self.stats.buffer_io_errors += 1
        message = (
            f"Buffer I/O error on dev {self.name}, logical block {block}, "
            f"lost async page {kind}"
        )
        if self.on_buffer_error is not None:
            self.on_buffer_error(message)
        return BlockIOError(f"{message} ({cause})")

    def read_block(self, block: int) -> bytes:
        """Read one logical block, retrying like the kernel would."""
        lba = self._check_block(block)
        self.stats.reads += 1
        attempt = 0
        while True:
            try:
                _, data = self.drive.read(lba, self.sectors_per_block)
                return data
            except (DriveTimeout, MediumError) as cause:
                if attempt >= self.retries:
                    raise self._fail("read", block, cause) from cause
                attempt += 1
                self.stats.read_retries += 1

    def write_block(self, block: int, data: bytes) -> None:
        """Write one logical block, retrying like the kernel would."""
        lba = self._check_block(block)
        if len(data) != self.block_size:
            raise ConfigurationError(
                f"payload of {len(data)} bytes != block size {self.block_size}"
            )
        self.stats.writes += 1
        attempt = 0
        while True:
            try:
                self.drive.write(lba, self.sectors_per_block, data)
                return
            except (DriveTimeout, MediumError) as cause:
                if attempt >= self.retries:
                    raise self._fail("write", block, cause) from cause
                attempt += 1
                self.stats.write_retries += 1

    def flush(self) -> None:
        """Issue a cache flush; errors surface as buffer I/O errors."""
        try:
            self.drive.flush()
        except (DriveTimeout, MediumError) as cause:
            raise self._fail("write", 0, cause) from cause
