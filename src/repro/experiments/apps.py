"""The three victim applications of Table 3.

Each victim owns a fresh drive + software stack and implements the
:class:`~repro.core.monitor.MonitoredApplication` protocol: ``step()``
performs one quantum of normal activity and raises the application's
crash exception when storage unavailability finally kills it.

The phase of each victim's first *blocked* disk write is what spreads
the three crash times across ~80-81 s (each blocked write then takes
``(1 + retries) x host_timeout = 75 s`` to fail):

* Ext4 — the 5 s journal commit timer (ext4's default): 5 + 75 = 80 s.
* Ubuntu — the ~6 s writeback flusher pushing dirty syslog pages.
* RocksDB — the WAL reaching its 1 MiB sync threshold at the write
  rate of the rate-limited db_bench writer (~6.3 s).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError, DatabaseClosed
from repro.hdd.drive import HardDiskDrive
from repro.rng import ReproRandom, make_rng
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options
from repro.storage.oskernel.server import UbuntuServer
from repro.workloads.db_bench import DbBench, DbBenchConfig

__all__ = ["Ext4Victim", "UbuntuVictim", "RocksDBVictim", "DVRVictim"]


class Ext4Victim:
    """A journaling filesystem doing light metadata work.

    The only recurring disk traffic is the periodic journal commit, so
    the first thing to block under attack is the commit itself — and
    the journal aborts with error -5 (:class:`JournalAbort`), exactly
    the paper's Ext4 failure signature.
    """

    name = "Ext4"
    description = "Journaling filesystem"

    def __init__(
        self,
        drive: Optional[HardDiskDrive] = None,
        step_interval_s: float = 0.25,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if not (0.0 < step_interval_s < math.inf):  # also rejects NaN
            raise ConfigurationError(
                f"step interval must be positive and finite: {step_interval_s}"
            )
        self.rng = rng if rng is not None else make_rng().fork("ext4app")
        self.drive = drive if drive is not None else HardDiskDrive(rng=self.rng.fork("drive"))
        self.device = BlockDevice(self.drive, name="sda")
        self.fs = SimFS.mkfs(self.device)
        self.fs.mkdir("/data")
        self.fs.create("/data/activity")
        self.fs.sync()
        self.step_interval_s = step_interval_s

    def step(self) -> None:
        """Touch metadata and run the journal timer."""
        self.drive.clock.advance(self.step_interval_s)
        self.fs.touch_mtime("/data/activity")


class UbuntuVictim(UbuntuServer):
    """Alias of :class:`UbuntuServer` under the victim naming scheme."""


class DVRVictim:
    """A security-camera DVR (the Blue Note CCTV case, submerged).

    Bolton et al. demonstrated the in-air attack against video
    surveillance; this victim records fixed-rate video segments to the
    filesystem and declares itself crashed after a run of consecutive
    lost segments — the application-level watchdog a real NVR ships
    with.  Not part of the paper's Table 3, but a natural fourth victim
    for the extension experiments.
    """

    name = "DVR"
    description = "Video surveillance recorder"

    def __init__(
        self,
        drive: Optional[HardDiskDrive] = None,
        segment_interval_s: float = 1.0,
        segment_bytes: int = 256 * 1024,
        watchdog_segments: int = 3,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if not (0.0 < segment_interval_s < math.inf and 0 < segment_bytes < math.inf):
            raise ConfigurationError(
                f"segment parameters must be positive and finite: "
                f"{segment_interval_s}, {segment_bytes}"
            )
        if not (1 <= watchdog_segments < math.inf):
            raise ConfigurationError(
                f"watchdog segments must be finite and at least one: {watchdog_segments}"
            )
        self.rng = rng if rng is not None else make_rng().fork("dvr")
        self.drive = drive if drive is not None else HardDiskDrive(rng=self.rng.fork("drive"))
        self.device = BlockDevice(self.drive, name="sda")
        # Journal commits ride the jbd2 kernel thread (see RocksDBVictim);
        # the DVR's own watchdog is the crash mechanism under study here.
        self.fs = SimFS.mkfs(self.device, commit_interval_s=3600.0)
        self.fs.mkdir("/video")
        self.segment_interval_s = segment_interval_s
        self.segment_bytes = segment_bytes
        self.watchdog_segments = watchdog_segments
        self.segments_written = 0
        self.segments_lost = 0
        self._consecutive_lost = 0

    def step(self) -> None:
        """Record one video segment; the watchdog counts losses."""
        from repro.errors import BlockIOError, DriveError, ProcessCrashed

        self.drive.clock.advance(self.segment_interval_s)
        path = f"/video/seg-{self.segments_written + self.segments_lost:06d}.ts"
        frame = bytes([self.rng.randint(0, 255)]) * self.segment_bytes
        try:
            self.fs.create(path)
            self.fs.write_file(path, frame)
        except (BlockIOError, DriveError) as cause:
            self.segments_lost += 1
            self._consecutive_lost += 1
            if self._consecutive_lost >= self.watchdog_segments:
                raise ProcessCrashed(
                    f"DVR watchdog: {self._consecutive_lost} consecutive video "
                    f"segments lost ({cause})"
                ) from cause
            return
        self.segments_written += 1
        self._consecutive_lost = 0


class RocksDBVictim:
    """A RocksDB-like store under a rate-limited db_bench writer.

    The writer is paced (db_bench's write-rate limit) so the WAL's
    1 MiB sync threshold is reached ~6.3 s in; the sync then blocks on
    the dead drive and fails with the ``sync_without_flush`` signature
    (:class:`WALSyncError`).
    """

    name = "RocksDB"
    description = "Key-value database"

    def __init__(
        self,
        drive: Optional[HardDiskDrive] = None,
        step_interval_s: float = 0.25,
        write_rate_ops: float = 1700.0,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if not (0.0 < step_interval_s < math.inf and 0.0 < write_rate_ops < math.inf):
            raise ConfigurationError(
                f"intervals and rates must be positive and finite: "
                f"{step_interval_s}, {write_rate_ops}"
            )
        self.rng = rng if rng is not None else make_rng().fork("rocksapp")
        self.drive = drive if drive is not None else HardDiskDrive(rng=self.rng.fork("drive"))
        self.device = BlockDevice(self.drive, name="sda")
        # Journal commits on the jbd2 kernel thread do not block the
        # application's write path; modelled by a long commit interval
        # so the victim's own WAL sync is the first blocked write.
        self.fs = SimFS.mkfs(self.device, commit_interval_s=3600.0)
        self.fs.mkdir("/db")
        self.db = DB.open(
            fs=self.fs,
            dirpath="/db",
            options=Options(wal_sync_every_bytes=1 << 20),
        )
        self.bench = DbBench(
            self.db,
            DbBenchConfig(
                num_preload=5_000,
                readers=3,
                write_rate_limit_ops=write_rate_ops,
                seed_label="rocks-victim",
            ),
            rng=self.rng.fork("bench"),
        )
        self.bench.fill_seq()
        self.db.flush()  # empty the WAL so the attack window starts clean
        self.step_interval_s = step_interval_s

    def step(self) -> None:
        """Run one quantum of readwhilewriting traffic.

        The db_bench helper swallows fatal errors into its result; the
        victim re-raises them so the monitor can record the crash.
        """
        result = self.bench.read_while_writing(duration_s=self.step_interval_s)
        if result.aborted:
            if self.db.fatal_error is not None:
                raise self.db.fatal_error
            raise DatabaseClosed(result.abort_reason)
