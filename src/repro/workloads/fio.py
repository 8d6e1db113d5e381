"""A Flexible I/O Tester (FIO) equivalent for the simulated drive.

The paper measures HDD availability with FIO sequential read and
sequential write workloads at 4 KB access granularity, reporting
throughput (MB/s) and latency (ms).  ``FioTester`` reproduces that
measurement loop on the virtual clock: it issues blocking I/O for a
fixed runtime and aggregates completions, errors, and timeouts.  A run
in which nothing completes reports ``responded=False`` — rendered as
the paper's "-" (no response) entries.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from typing import MutableSequence, Optional

from repro.errors import ConfigurationError, DriveTimeout, MediumError
from repro.hdd.drive import HardDiskDrive
from repro.hdd.servo import OpKind
from repro.obs import telemetry as obs
from repro.rng import ReproRandom, make_rng
from repro.units import BLOCK_4K, SECTOR_SIZE

__all__ = ["IOMode", "FioJob", "FioResult", "FioTester"]


class IOMode(enum.Enum):
    """FIO-style workload modes."""

    SEQ_READ = "read"
    SEQ_WRITE = "write"
    RAND_READ = "randread"
    RAND_WRITE = "randwrite"

    @property
    def is_write(self) -> bool:
        """True for the write modes."""
        return self in (IOMode.SEQ_WRITE, IOMode.RAND_WRITE)

    @property
    def is_random(self) -> bool:
        """True for the random-offset modes."""
        return self in (IOMode.RAND_READ, IOMode.RAND_WRITE)


@dataclass(frozen=True)
class FioJob:
    """One FIO job description.

    Attributes:
        mode: access pattern.
        block_bytes: access granularity (the paper uses 4 KiB).
        runtime_s: how long (virtual seconds) to keep issuing I/O.
        region_start_lba: first LBA of the target region.
        region_sectors: size of the region (wraps for sequential jobs);
            defaults to 8 GiB worth of sectors at the drive's start.
        name: label for reports.
    """

    mode: IOMode = IOMode.SEQ_READ
    block_bytes: int = BLOCK_4K
    runtime_s: float = 5.0
    region_start_lba: int = 0
    region_sectors: int = 16 * 1024 * 1024  # 8 GiB of 512-byte sectors
    name: str = "fio-job"

    def __post_init__(self) -> None:
        if self.block_bytes <= 0 or self.block_bytes % SECTOR_SIZE != 0:
            raise ConfigurationError(
                f"block size must be a positive multiple of {SECTOR_SIZE}: "
                f"{self.block_bytes}"
            )
        if not (0.0 < self.runtime_s < math.inf):  # also rejects NaN
            raise ConfigurationError(
                f"runtime must be positive and finite: {self.runtime_s}"
            )
        if self.region_start_lba < 0 or self.region_sectors <= 0:
            raise ConfigurationError("invalid target region")

    @property
    def sectors_per_block(self) -> int:
        """Sectors per access."""
        return self.block_bytes // SECTOR_SIZE


@dataclass
class FioResult:
    """Aggregated outcome of one FIO run."""

    job: FioJob
    completed_ops: int = 0
    error_ops: int = 0
    timeout_ops: int = 0
    bytes_moved: int = 0
    busy_time_s: float = 0.0
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    #: Stored as a compact ``array('d')`` rather than a list of boxed
    #: floats: long runs append one latency per completed op, and the
    #: flat array keeps that streaming-friendly (8 bytes/op, no
    #: per-element object churn).
    latencies_s: MutableSequence[float] = field(default_factory=lambda: array("d"))

    @property
    def responded(self) -> bool:
        """False when the drive never completed a single request."""
        return self.completed_ops > 0

    @property
    def throughput_mbps(self) -> float:
        """Decimal MB/s over the busy time (FIO's bandwidth number)."""
        if self.busy_time_s <= 0.0 or self.bytes_moved == 0:
            return 0.0
        return self.bytes_moved / 1e6 / self.busy_time_s

    @property
    def avg_latency_s(self) -> Optional[float]:
        """Mean completion latency, or None in the no-response regime."""
        if self.completed_ops == 0:
            return None
        return self.total_latency_s / self.completed_ops

    @property
    def avg_latency_ms(self) -> Optional[float]:
        """Mean latency in milliseconds (None = the paper's "-")."""
        latency = self.avg_latency_s
        return None if latency is None else latency * 1e3


class FioTester:
    """Runs FIO jobs against a simulated drive on its virtual clock."""

    def __init__(self, drive: HardDiskDrive, rng: Optional[ReproRandom] = None) -> None:
        self.drive = drive
        self.rng = rng if rng is not None else make_rng().fork("fio")
        self._obs = obs.get()

    def run(self, job: FioJob) -> FioResult:
        """Execute ``job`` for its runtime and return the aggregate result.

        A healthy sequential run is evaluated in closed form by
        :meth:`HardDiskDrive.run_sequential`; everything else (random
        mode, degraded or stalled points, telemetry) takes the issue
        loop.  Its per-op invariants (target-region span, mode dispatch,
        bound methods) are hoisted, and latency aggregation streams into
        locals + a flat array — a campaign evaluates this loop thousands
        of times per point.
        """
        result = FioResult(job=job)
        clock = self.drive.clock
        start = clock.now
        cursor = 0
        region_start = job.region_start_lba
        region_end = min(region_start + job.region_sectors, self.drive.total_sectors)
        sectors_per_block = job.sectors_per_block
        span_blocks = (region_end - region_start) // sectors_per_block
        if span_blocks <= 0:
            raise ConfigurationError("target region smaller than one block")
        is_random = job.mode.is_random
        is_write = job.mode.is_write
        # A traced run takes the loop: its aggregates are recorded below.
        if not is_random and self._obs is None:
            closed = self.drive.run_sequential(
                OpKind.WRITE if is_write else OpKind.READ,
                region_start,
                sectors_per_block,
                span_blocks,
                job.runtime_s,
            )
            if closed is not None:
                completed = len(closed)
                result.completed_ops = completed
                result.bytes_moved = completed * job.block_bytes
                # Left to right, like the loop's ``+=``: not ``sum()``,
                # which compensates on Python >= 3.12, nor ``math.fsum``.
                total_latency = 0.0
                for latency in closed:
                    total_latency += latency
                result.total_latency_s = total_latency
                result.max_latency_s = max(closed)
                result.busy_time_s = clock.elapsed_since(start)
                result.latencies_s = closed
                return result
        runtime_s = job.runtime_s
        elapsed_since = clock.elapsed_since
        randint = self.rng.randint
        write = self.drive.write
        read = self.drive.read
        latencies = result.latencies_s
        append_latency = latencies.append
        completed_ops = 0
        timeout_ops = 0
        error_ops = 0
        total_latency = 0.0
        max_latency = 0.0
        while elapsed_since(start) < runtime_s:
            if is_random:
                index = randint(0, span_blocks - 1)
            else:
                index = cursor % span_blocks
            lba = region_start + index * sectors_per_block
            cursor += 1
            try:
                if is_write:
                    io = write(lba, sectors_per_block)
                else:
                    io, _ = read(lba, sectors_per_block)
            except DriveTimeout:
                timeout_ops += 1
                continue
            except MediumError:
                error_ops += 1
                continue
            completed_ops += 1
            latency = io.latency_s
            total_latency += latency
            if latency > max_latency:
                max_latency = latency
            append_latency(latency)
        result.completed_ops = completed_ops
        result.timeout_ops = timeout_ops
        result.error_ops = error_ops
        result.bytes_moved = completed_ops * job.block_bytes
        result.total_latency_s = total_latency
        result.max_latency_s = max_latency
        result.busy_time_s = clock.elapsed_since(start)
        tel = self._obs
        if tel is not None:
            # Aggregates only, pushed after the loop: the per-op issue
            # path stays exactly as hot as with telemetry off (the
            # drive records the per-command spans).
            tel.tracer.record(
                f"fio.{job.mode.value}",
                start,
                clock.now,
                category="fio",
                status="ok" if result.responded else "error",
                args={
                    "completed": completed_ops,
                    "timeouts": timeout_ops,
                    "errors": error_ops,
                },
            )
            metrics = tel.metrics
            mode = job.mode.value
            metrics.counter("fio_ops_total", mode=mode, outcome="completed").inc(
                completed_ops
            )
            metrics.counter("fio_ops_total", mode=mode, outcome="timeout").inc(
                timeout_ops
            )
            metrics.counter("fio_ops_total", mode=mode, outcome="error").inc(error_ops)
            metrics.counter("fio_bytes_total", mode=mode).inc(result.bytes_moved)
            metrics.histogram("fio_op_latency_s", mode=mode).observe_many(latencies)
        return result
