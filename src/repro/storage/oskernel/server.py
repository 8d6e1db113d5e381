"""The Ubuntu-16.04-class server victim.

Boots a root filesystem with ``/bin`` binaries and ``/var/log``, runs a
background workload (syslog appends buffered in page cache + periodic
shell commands), and lets the kernel's writeback flusher push dirty
data every few seconds.  When the drive stops responding, the flusher's
write fails after the block layer gives up, buffer I/O errors hit
dmesg, and the kernel panics — "unable to access all files, including
... common Linux commands, such as ls" (Table 3, 81.0 s).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import BlockIOError, ConfigurationError, KernelPanic, ReadOnlyFilesystem
from repro.hdd.drive import HardDiskDrive
from repro.rng import ReproRandom, make_rng
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS

from .kernel import Kernel
from .shell import Shell

__all__ = ["UbuntuServer"]

_BINARIES = ("ls", "cat", "touch", "echo", "sync")


class UbuntuServer:
    """A booted server: kernel + rootfs + shell + background activity."""

    name = "Ubuntu"
    description = "Ubuntu server 16.04"

    def __init__(
        self,
        drive: Optional[HardDiskDrive] = None,
        step_interval_s: float = 0.25,
        shell_interval_s: float = 1.0,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if not (0.0 < step_interval_s < math.inf and 0.0 < shell_interval_s < math.inf):
            raise ConfigurationError(
                f"intervals must be positive and finite: {step_interval_s}, {shell_interval_s}"
            )
        self.rng = rng if rng is not None else make_rng().fork("ubuntu")
        self.drive = drive if drive is not None else HardDiskDrive(rng=self.rng.fork("drive"))
        self.device = BlockDevice(self.drive, name="sda")
        self.kernel = Kernel(self.drive.clock)
        self.kernel.attach_device(self.device)
        self.fs = SimFS.mkfs(self.device)
        self.kernel.mount_root(self.fs)
        self.shell = Shell(self.kernel, self.fs)
        self.step_interval_s = step_interval_s
        self.shell_interval_s = shell_interval_s
        self._log_buffer: List[bytes] = []
        self._last_shell = self.drive.clock.now
        self._boot()

    def _boot(self) -> None:
        """Install /bin, /var/log, and warm the page cache."""
        self.fs.mkdir("/bin")
        self.fs.mkdir("/var")
        self.fs.mkdir("/var/log")
        self.fs.mkdir("/home")
        for binary in _BINARIES:
            path = f"/bin/{binary}"
            self.fs.create(path)
            self.fs.write_file(path, f"#!ELF {binary} simulated binary".encode())
        self.fs.create("/var/log/syslog")
        self.fs.write_file("/var/log/syslog", b"syslog: boot\n")
        self.fs.sync()
        # Page the binaries in, like a freshly booted busy server.
        for binary in _BINARIES:
            self.fs.read_file(f"/bin/{binary}")
        for proc_name in ("systemd", "sshd", "cron", "rsyslogd"):
            self.kernel.processes.spawn(proc_name)

    # -- background activity -------------------------------------------------------

    def log_line(self, message: str) -> None:
        """Queue a syslog line in the (page-cache) write buffer."""
        self._log_buffer.append(f"[{self.drive.clock.now:10.3f}] {message}\n".encode())

    def _flush_logs(self) -> None:
        """Push buffered syslog lines to disk (the flusher's job)."""
        if not self._log_buffer:
            return
        payload = b"".join(self._log_buffer)
        self._log_buffer.clear()
        self.fs.append("/var/log/syslog", payload)

    def step(self) -> None:
        """One scheduler quantum of server activity.

        Raises :class:`KernelPanic` once storage failure takes the OS
        down — the crash event the availability monitor records.
        """
        if self.kernel.panicked:
            raise KernelPanic(self.kernel.panic_reason)
        clock = self.drive.clock
        clock.advance(self.step_interval_s)
        self.log_line("systemd: heartbeat")
        if clock.now - self._last_shell >= self.shell_interval_s:
            self._last_shell = clock.now
            self.shell.run("ls /")
        if self.kernel.writeback_due():
            try:
                self._flush_logs()
                self.kernel.run_writeback()
            except (BlockIOError, ReadOnlyFilesystem) as cause:
                self.kernel.note_rootfs_failure(cause)
        self.kernel.maybe_panic()

    # -- introspection ---------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        """True once the kernel has panicked."""
        return self.kernel.panicked
