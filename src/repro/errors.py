"""Exception hierarchy shared by every subsystem of the reproduction.

The hierarchy mirrors the layers of the simulated stack: physical layer
errors (drive faults), block layer errors (timeouts, medium errors),
filesystem errors (journal aborts), and application errors (WAL sync
failure in the key-value store).  Error numbers follow the Linux errno
convention where the paper reports one (JBD aborts with error ``-5``,
i.e. ``-EIO``).

Choosing an error type
----------------------

Validation failures raise the *narrowest* matching type, never a bare
builtin — deepcheck rule DC05 enforces this across ``src/`` because the
retry policy, the degradation path, and the incident reporter all
dispatch on exception type.  The recipes:

A component wired with invalid parameters raises
:class:`ConfigurationError` (it subclasses only :class:`ReproError`, so
it is never mistaken for a simulated failure):

    >>> from repro.sim.clock import VirtualClock
    >>> VirtualClock(start=-1.0)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: clock cannot start negative: -1.0

A physical quantity outside its meaningful domain raises
:class:`UnitError`, which also subclasses :class:`ValueError` so
numeric call sites can keep a generic handler:

    >>> from repro.units import rpm_to_rev_time
    >>> rpm_to_rev_time(0.0)
    Traceback (most recent call last):
        ...
    repro.errors.UnitError: spindle speed must be positive, got 0.0
    >>> issubclass(UnitError, ValueError)
    True

Simulated failures carry their Linux errno where the paper reports one,
so assertions about kernel-visible behaviour read like the dmesg lines
they reproduce:

    >>> MediumError.errno == EIO
    True
    >>> BlockIOError("Buffer I/O error on dev sda, logical block 0").errno
    5
    >>> JournalAbort("journal commit I/O error").code
    -5

Internal "can't happen" states are not asserts (stripped under
``python -O``) — they raise :class:`ConfigurationError` with a message
naming the impossible input, as in ``Shell._dispatch`` and
``AttackCampaign.best_tone``.
"""

from __future__ import annotations

__all__ = [
    "EIO",
    "ENOSPC",
    "ENOENT",
    "EEXIST",
    "EROFS",
    "ETIMEDOUT",
    "EINVAL",
    "ReproError",
    "ConfigurationError",
    "UnitError",
    "DriveError",
    "DriveFault",
    "MediumError",
    "DriveTimeout",
    "BlockIOError",
    "CampaignAborted",
    "WorkerCrashed",
    "PointTimeout",
    "FaultInjected",
    "ResumeMismatch",
    "FilesystemError",
    "JournalAbort",
    "ReadOnlyFilesystem",
    "FileNotFound",
    "FileExists",
    "NoSpace",
    "KernelPanic",
    "ProcessCrashed",
    "KVStoreError",
    "WALSyncError",
    "CorruptionError",
    "DatabaseClosed",
]

#: Linux errno values used by the simulated kernel and filesystem.
EIO = 5
ENOSPC = 28
ENOENT = 2
EEXIST = 17
EROFS = 30
ETIMEDOUT = 110
EINVAL = 22


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A component was built or wired with invalid parameters."""


class UnitError(ReproError, ValueError):
    """A physical quantity was out of its meaningful domain."""


# --------------------------------------------------------------------------
# Physical / drive-level errors
# --------------------------------------------------------------------------


class DriveError(ReproError):
    """Base class for errors raised by the HDD simulator."""


class DriveFault(DriveError):
    """A single I/O attempt failed (off-track fault, parked heads, ...).

    Faults are retried by the drive controller; only persistent faults
    escalate to :class:`MediumError` or :class:`DriveTimeout`.
    """


class MediumError(DriveError):
    """An I/O failed permanently after the controller exhausted retries."""

    errno = EIO


class DriveTimeout(DriveError):
    """An I/O did not complete within the host command timeout.

    This corresponds to the "-" (no response) entries in Table 1 of the
    paper: the drive never serviced the request at all.
    """

    errno = ETIMEDOUT


# --------------------------------------------------------------------------
# Block layer errors
# --------------------------------------------------------------------------


class BlockIOError(ReproError, OSError):
    """Buffer I/O error surfaced by the simulated block layer.

    The simulated kernel logs these to ``dmesg`` exactly like Linux logs
    ``Buffer I/O error on dev sda`` lines during the real attack.
    """

    def __init__(self, message: str, errno: int = EIO) -> None:
        super().__init__(errno, message)
        self.errno = errno


# --------------------------------------------------------------------------
# Runtime (campaign runner) errors
# --------------------------------------------------------------------------


class CampaignAborted(ReproError):
    """The whole campaign stopped before every point completed.

    Unlike a per-point failure (retried, then degraded to a recorded
    ``PointFailure`` row), an abort means the run itself ended early —
    the campaign process was killed, a worker pool broke, or the
    baseline measurement a campaign cannot proceed without failed.  The
    checkpoint journal keeps every point completed before the abort, so
    relaunching with ``--resume`` continues where the run stopped.
    """


class WorkerCrashed(CampaignAborted):
    """A parallel campaign worker died without returning a result.

    Raised by :class:`repro.runtime.SweepRunner` when the process pool
    breaks (a worker was killed or segfaulted) so callers see a clean
    error instead of a hung executor.
    """


class PointTimeout(ReproError):
    """A campaign point did not finish within ``--point-timeout``.

    Counted as one failed attempt: the point is retried under the
    runner's :class:`~repro.runtime.retry.RetryPolicy` and degrades to
    a ``PointFailure`` row once its retry budget is exhausted.
    """


class FaultInjected(ReproError):
    """An error scripted by the fault-injection harness.

    Only :mod:`repro.runtime.faultinject` raises this, so tests can
    tell injected failures apart from real ones.
    """


class ResumeMismatch(ConfigurationError):
    """``--resume`` pointed at a journal from a different campaign.

    The checkpoint journal's header records a campaign fingerprint;
    resuming with different physics inputs (command, runtime, seed)
    would silently mix measurements, so it is refused instead.
    """


# --------------------------------------------------------------------------
# Filesystem errors
# --------------------------------------------------------------------------


class FilesystemError(ReproError):
    """Base class for simulated filesystem failures."""


class JournalAbort(FilesystemError):
    """The JBD-style journal aborted; the filesystem is now read-only.

    The paper observes Ext4 terminating with a Journal Block Device error
    in code ``-5``; :attr:`code` carries that signed errno.
    """

    def __init__(self, message: str, code: int = -EIO) -> None:
        super().__init__(message)
        self.code = code


class ReadOnlyFilesystem(FilesystemError):
    """A write was attempted after the filesystem remounted read-only."""

    errno = EROFS


class FileNotFound(FilesystemError):
    """Path lookup failed."""

    errno = ENOENT


class FileExists(FilesystemError):
    """Exclusive create collided with an existing entry."""

    errno = EEXIST


class NoSpace(FilesystemError):
    """The simulated volume ran out of blocks."""

    errno = ENOSPC


# --------------------------------------------------------------------------
# OS-level errors
# --------------------------------------------------------------------------


class KernelPanic(ReproError):
    """The simulated server OS became unusable (paper: Ubuntu crash)."""


class ProcessCrashed(ReproError):
    """A simulated process terminated with an error output."""

    def __init__(self, message: str, exit_code: int = 1) -> None:
        super().__init__(message)
        self.exit_code = exit_code


# --------------------------------------------------------------------------
# Key-value store errors
# --------------------------------------------------------------------------


class KVStoreError(ReproError):
    """Base class for errors raised by the LSM key-value store."""


class WALSyncError(KVStoreError):
    """The write-ahead log could not be persisted.

    This reproduces the ``sysc_without_flush_called`` failure signature
    the paper reports for RocksDB: incoming key-value pairs written to
    the WAL cannot be made durable, so the store must stop.
    """


class CorruptionError(KVStoreError):
    """A checksum mismatch was detected in the WAL or an SSTable."""


class DatabaseClosed(KVStoreError):
    """An operation was issued against a closed or crashed store."""
