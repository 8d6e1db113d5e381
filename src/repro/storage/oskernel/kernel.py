"""The kernel: block devices, writeback flusher, panic logic.

The kernel owns the dmesg ring (block devices log buffer I/O errors
into it), runs the periodic writeback flusher that pushes dirty page
cache at the root filesystem, and declares a panic when the root
filesystem becomes unusable — the mechanism behind the Ubuntu row of
Table 3.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import (
    BlockIOError,
    ConfigurationError,
    JournalAbort,
    KernelPanic,
    ReadOnlyFilesystem,
)
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS

from .dmesg import DmesgBuffer
from .process import ProcessTable

__all__ = ["Kernel"]


class Kernel:
    """A small Linux-like kernel for one simulated server.

    Attributes:
        clock: the shared virtual clock.
        dmesg: kernel log ring.
        processes: process table.
        writeback_interval_s: period of the dirty-page flusher thread
            (vm.dirty_writeback_centisecs ~ 5-6 s class).
        panic_error_threshold: buffer I/O errors tolerated before the
            kernel declares the machine dead, provided the root
            filesystem has also failed.
    """

    def __init__(
        self,
        clock: VirtualClock,
        writeback_interval_s: float = 6.0,
        panic_error_threshold: int = 1,
    ) -> None:
        if writeback_interval_s <= 0.0:
            raise ConfigurationError("writeback interval must be positive")
        if panic_error_threshold < 1:
            raise ConfigurationError("panic threshold must be >= 1")
        self.clock = clock
        self.dmesg = DmesgBuffer(clock)
        self.processes = ProcessTable()
        self.writeback_interval_s = writeback_interval_s
        self.panic_error_threshold = panic_error_threshold
        self.devices: Dict[str, BlockDevice] = {}
        self.rootfs: Optional[SimFS] = None
        self.panicked = False
        self.panic_reason = ""
        self._dirty_paths: List[str] = []
        self._last_writeback = clock.now
        self._rootfs_failed = False

    # -- device / filesystem attachment ---------------------------------------

    def attach_device(self, device: BlockDevice) -> BlockDevice:
        """Register a block device; its errors land in dmesg."""
        device.on_buffer_error = lambda msg: self.dmesg.log(msg)
        self.devices[device.name] = device
        return device

    def mount_root(self, fs: SimFS) -> None:
        """Mount ``fs`` as the root filesystem."""
        self.rootfs = fs

    # -- page cache / writeback -------------------------------------------------

    def mark_dirty(self, path: str) -> None:
        """Record that ``path`` has dirty pages awaiting writeback."""
        if path not in self._dirty_paths:
            self._dirty_paths.append(path)

    def writeback_due(self) -> bool:
        """True when the flusher timer has expired."""
        return (
            self.clock.now - self._last_writeback >= self.writeback_interval_s
        )

    def run_writeback(self) -> None:
        """Flush dirty pages and the rootfs journal; count failures."""
        self._last_writeback = self.clock.now
        if self.rootfs is None:
            return
        pending, self._dirty_paths = self._dirty_paths, []
        try:
            for path in pending:
                self.rootfs.fsync(path)
            self.rootfs.tick()
        except (BlockIOError, JournalAbort, ReadOnlyFilesystem) as cause:
            self._rootfs_failed = True
            self.dmesg.log(f"EXT4-fs error (device sda): {cause}")
            self.maybe_panic()

    def note_rootfs_failure(self, cause: Exception) -> None:
        """Record that a write to the root filesystem failed.

        Called by whoever hit the error (the flusher path, a daemon);
        logs the EXT4-style error and re-evaluates the panic condition.
        """
        self._rootfs_failed = True
        self.dmesg.log(f"EXT4-fs error (device sda): {cause}")
        self.maybe_panic()

    # -- panic -----------------------------------------------------------------

    def buffer_errors(self) -> int:
        """Buffer I/O errors observed across all devices."""
        return sum(dev.stats.buffer_io_errors for dev in self.devices.values())

    def rootfs_unusable(self) -> bool:
        """True when the root filesystem can no longer serve writes."""
        if self._rootfs_failed:
            return True
        return self.rootfs is not None and self.rootfs.read_only

    def maybe_panic(self) -> None:
        """Panic when storage is gone: rootfs dead + buffer I/O errors."""
        if self.panicked:
            raise KernelPanic(self.panic_reason)
        if self.rootfs_unusable() and self.buffer_errors() >= self.panic_error_threshold:
            self.panicked = True
            self.panic_reason = (
                "Kernel panic - not syncing: root filesystem unusable "
                f"({self.buffer_errors()} buffer I/O errors on dev sda; "
                "unable to access files, including common commands such as ls)"
            )
            self.dmesg.log(self.panic_reason, level="emerg")
            self.processes.kill_all(exit_code=1, reason="kernel panic")
            raise KernelPanic(self.panic_reason)

    def tick(self) -> None:
        """Kernel housekeeping: writeback timer plus panic check."""
        if self.panicked:
            raise KernelPanic(self.panic_reason)
        if self.writeback_due():
            self.run_writeback()
        self.maybe_panic()
