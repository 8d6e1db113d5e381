"""The hard disk drive: the victim device of the case study.

:class:`HardDiskDrive` ties together the geometry, mechanics, servo
fault model, shock sensor, and controller, and exposes a sector-level
read/write API on a virtual clock.  The attack toolkit injects a
:class:`~repro.hdd.servo.VibrationInput` via :meth:`set_vibration`; all
subsequent I/O is served under that vibration until it changes.

Data written with payloads is retained so the filesystem and key-value
store above observe real persistence semantics; payload-less writes
(synthetic benchmark traffic) only account time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError, DriveTimeout, MediumError, UnitError
from repro.rng import ReproRandom, make_rng
from repro.sim.clock import VirtualClock
from repro.units import SECTOR_SIZE
from repro.obs import telemetry as obs

from .controller import DriveController, IOResult
from .profiles import DriveProfile, make_barracuda_profile
from .sector_store import SectorStore
from .servo import OpKind, VibrationInput

__all__ = ["DriveStats", "HardDiskDrive"]

#: The ops as module constants: the per-command path never reads an
#: enum member through its class, which costs more than the rest of
#: the op dispatch.
_READ = OpKind.READ
_WRITE = OpKind.WRITE


@dataclass
class DriveStats:
    """Aggregate counters for one drive."""

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    retries: int = 0
    medium_errors: int = 0
    timeouts: int = 0
    shock_parks: int = 0


class HardDiskDrive:
    """A simulated HDD serving sector I/O under acoustic vibration."""

    def __init__(
        self,
        profile: Optional[DriveProfile] = None,
        clock: Optional[VirtualClock] = None,
        rng: Optional[ReproRandom] = None,
        store_data: bool = True,
    ) -> None:
        self.profile = profile if profile is not None else make_barracuda_profile()
        self.clock = clock if clock is not None else VirtualClock()
        root_rng = rng if rng is not None else make_rng()
        self.controller = DriveController(
            self.profile, self.clock, root_rng.fork("controller")
        )
        self.store_data = store_data
        self.vibration = VibrationInput.none()
        self.parked = False
        self.stats = DriveStats()
        self._store = SectorStore()
        self._schedule: Optional[Callable[[float], Optional[VibrationInput]]] = None
        # Telemetry is captured at construction: with nothing installed
        # the I/O paths skip recording on a single ``is not None`` check.
        self._obs = obs.get()
        # Hot-path caches: the addressable span (the geometry is fixed
        # for the drive's lifetime) and shared zero-filled read buffers
        # for payload-less mode (bytes are immutable, so one buffer per
        # request size serves every caller).
        self._total_sectors = self.profile.geometry.total_sectors
        self._zero_blocks: dict = {}
        # Per-op telemetry handles (span name + metric instruments),
        # built lazily on the first recorded command of each op so the
        # hot path skips label-key construction and registry lookups.
        self._tel_handles: dict = {}

    # -- capacity -------------------------------------------------------------

    @property
    def total_sectors(self) -> int:
        """Addressable 512-byte sectors."""
        return self.profile.geometry.total_sectors

    @property
    def capacity_bytes(self) -> int:
        """Usable capacity in bytes."""
        return self.profile.geometry.capacity_bytes

    def _check_range(self, lba: int, sectors: int) -> None:
        if sectors <= 0:
            raise ConfigurationError(f"sector count must be positive: {sectors}")
        if lba < 0 or lba + sectors > self._total_sectors:
            raise UnitError(
                f"I/O [{lba}, {lba + sectors}) outside drive of "
                f"{self._total_sectors} sectors"
            )

    # -- vibration injection ----------------------------------------------------

    def set_vibration(self, vibration: Optional[VibrationInput]) -> None:
        """Apply (or clear, with None) a static chassis vibration.

        Also evaluates the shock sensor: an ultrasonic trigger parks the
        heads, which stalls all I/O exactly like a servo stall.  Clears
        any vibration schedule previously installed.
        """
        self._schedule = None
        self.vibration = vibration if vibration is not None else VibrationInput.none()
        was_parked = self.parked
        self.parked = self.profile.shock_sensor.is_triggered(self.vibration)
        if self.parked and not was_parked:
            self.stats.shock_parks += 1

    def set_vibration_schedule(
        self, schedule: Optional[Callable[[float], Optional[VibrationInput]]]
    ) -> None:
        """Install a time-varying vibration: ``schedule(t) -> vibration``.

        The controller re-samples the schedule while a command is in
        flight, so an attack that stops mid-request lets the pending
        retries complete — the behaviour intermittent attack campaigns
        rely on.  ``None`` entries (and a None schedule) mean silence.
        """
        self._schedule = schedule
        self._refresh_from_schedule()

    def _refresh_from_schedule(self) -> "Tuple[VibrationInput, bool]":
        if self._schedule is not None:
            vibration = self._schedule(self.clock.now)
            self.vibration = (
                vibration if vibration is not None else VibrationInput.none()
            )
            was_parked = self.parked
            self.parked = self.profile.shock_sensor.is_triggered(self.vibration)
            if self.parked and not was_parked:
                self.stats.shock_parks += 1
        return self.vibration, self.parked

    def _execute(self, op: OpKind, lba: int, sectors: int) -> IOResult:
        """Run one command under the current vibration state.

        Without a schedule the state cannot change while a command is in
        flight; a schedule-driven (time-varying) vibration is re-sampled
        by the controller before every attempt.
        """
        if self._schedule is None:
            return self.controller.execute(op, lba, sectors, self.vibration, self.parked)
        return self.controller.execute(
            op, lba, sectors, self.vibration, self.parked,
            resample=self._refresh_from_schedule,
        )

    def offtrack_ratio(self, op: OpKind = OpKind.WRITE) -> float:
        """Current head excursion as a multiple of the op's threshold."""
        amplitude = self.profile.servo.offtrack_amplitude_m(self.vibration)
        return amplitude / self.profile.servo.threshold_m(op)

    def success_probability(self, op: OpKind) -> float:
        """Per-attempt media success probability under current vibration."""
        if self.parked:
            return 0.0
        return self.profile.servo.success_probability(op, self.vibration)

    # -- I/O API -----------------------------------------------------------------

    def read(self, lba: int, sectors: int) -> Tuple[IOResult, bytes]:
        """Read ``sectors`` sectors starting at ``lba``.

        Returns the timing result and the data (zero-filled where never
        written).  Raises DriveTimeout/MediumError under attack.
        """
        if sectors <= 0 or lba < 0 or lba + sectors > self._total_sectors:
            self._check_range(lba, sectors)
        tel = self._obs
        start = self.clock.now if tel is not None else 0.0
        try:
            if self._schedule is None:
                result = self.controller.execute(
                    _READ, lba, sectors, self.vibration, self.parked
                )
            else:
                result = self._execute(_READ, lba, sectors)
        except BaseException as exc:
            self._command_failed(tel, "read", start, sectors, exc)
            raise
        if result.attempts > 1:
            self._sync_counters()
        if tel is not None:
            span_name, ops_total, sectors_total, latency = self._tel_handles.get(
                "read"
            ) or self._new_handles(tel, "read")
            tel.tracer.record(span_name, start, result.completed_at, "drive")
            ops_total.inc()
            sectors_total.inc(sectors)
            latency.observe(result.latency_s)
        stats = self.stats
        stats.reads += 1
        stats.sectors_read += sectors
        if not self.store_data:
            return result, self._zero_blocks.get(sectors) or self._zeros(sectors)
        return result, self._store.read(lba, sectors)

    def _zeros(self, sectors: int) -> bytes:
        """The shared zero-filled buffer a payload-less read returns."""
        zeros = self._zero_blocks.get(sectors)
        if zeros is None:
            zeros = self._zero_blocks[sectors] = b"\x00" * (sectors * SECTOR_SIZE)
        return zeros

    def write(self, lba: int, sectors: int, data: Optional[bytes] = None) -> IOResult:
        """Write ``sectors`` sectors starting at ``lba``.

        ``data``, when given, must be exactly ``sectors * 512`` bytes and
        is retained for later reads.
        """
        if sectors <= 0 or lba < 0 or lba + sectors > self._total_sectors:
            self._check_range(lba, sectors)
        if data is not None and len(data) != sectors * SECTOR_SIZE:
            raise ConfigurationError(
                f"payload of {len(data)} bytes does not match "
                f"{sectors} sectors ({sectors * SECTOR_SIZE} bytes)"
            )
        tel = self._obs
        start = self.clock.now if tel is not None else 0.0
        try:
            if self._schedule is None:
                result = self.controller.execute(
                    _WRITE, lba, sectors, self.vibration, self.parked
                )
            else:
                result = self._execute(_WRITE, lba, sectors)
        except BaseException as exc:
            self._command_failed(tel, "write", start, sectors, exc)
            raise
        if result.attempts > 1:
            self._sync_counters()
        if tel is not None:
            span_name, ops_total, sectors_total, latency = self._tel_handles.get(
                "write"
            ) or self._new_handles(tel, "write")
            tel.tracer.record(span_name, start, result.completed_at, "drive")
            ops_total.inc()
            sectors_total.inc(sectors)
            latency.observe(result.latency_s)
        stats = self.stats
        stats.writes += 1
        stats.sectors_written += sectors
        if self.store_data and data is not None:
            self._store.write(lba, data)
        return result

    def run_sequential(
        self, op: OpKind, lba: int, sectors: int, max_commands: int, runtime_s: float
    ) -> "Optional[array]":
        """Closed form of a healthy sequential run of ``sectors``-sized I/Os.

        Stands for calling :meth:`read` / :meth:`write` on ``lba``,
        ``lba + sectors``, ... (at most ``max_commands`` of them) while
        less than ``runtime_s`` virtual seconds have elapsed, and leaves
        the clock, statistics and buffers exactly as those calls would
        (see :meth:`DriveController.run_sequential`).  Returns the
        per-command latencies as an ``array('d')``, or None with nothing
        committed when the run has to be issued command by command: a
        vibration schedule or telemetry is installed, reads must return
        stored data, or some attempt could fault.
        """
        self._check_range(lba, sectors * max_commands)
        if self._schedule is not None or self._obs is not None:
            return None
        is_write = op is OpKind.WRITE
        if not is_write and self.store_data:
            return None  # reads must return what the sector store holds
        latencies = self.controller.run_sequential(
            op, lba, sectors, max_commands, runtime_s, self.vibration, self.parked
        )
        if latencies is None:
            return None
        completed = len(latencies)
        stats = self.stats
        if is_write:
            stats.writes += completed
            stats.sectors_written += completed * sectors
        else:
            stats.reads += completed
            stats.sectors_read += completed * sectors
            self._zeros(sectors)
        self._sync_counters()
        return latencies

    def flush(self) -> None:
        """Flush the (implicit) write cache.

        The simulator accounts write time at submission, so flush only
        has to verify the drive is still responsive; a stalled drive
        makes flush block and time out like any command, which matters
        to the journaling filesystem and the WAL.
        """
        self._refresh_from_schedule()
        if self.parked or self.success_probability(OpKind.WRITE) <= 0.0:
            try:
                self._execute(OpKind.WRITE, 0, 1)
            finally:
                self._sync_counters()

    def _sync_counters(self) -> None:
        """Copy the controller's retry, medium-error and timeout counts
        into ``stats``, after every command that may have changed them: a
        read or write that retried or raised, a flush that ran a command,
        a closed-form run.  A first-attempt success changes none."""
        controller = self.controller
        stats = self.stats
        stats.retries = controller.retries
        stats.medium_errors = controller.medium_errors
        stats.timeouts = controller.timeouts

    def _new_handles(self, tel, op_label: str) -> tuple:
        """Resolve the span label and the three metric instruments of
        ``op_label`` on its first recorded command; later commands reuse
        them without rebuilding label keys or probing the registry."""
        metrics = tel.metrics
        handles = self._tel_handles[op_label] = (
            "drive." + op_label,
            metrics.counter("drive_ops_total", op=op_label),
            metrics.counter("drive_sectors_total", op=op_label),
            metrics.histogram("drive_op_latency_s", op=op_label),
        )
        return handles

    def _command_failed(
        self, tel, op_label: str, start_s: float, sectors: int, exc: BaseException
    ) -> None:
        """Sync the counters and record a command that raised ``exc``.

        A timeout or medium error makes an ``error`` span and a
        ``drive_errors_total`` count; any other exception is recorded
        like a completed command.
        """
        self._sync_counters()
        if tel is None:
            return
        end_s = self.clock.now
        if isinstance(exc, DriveTimeout):
            kind = "timeout"
        elif isinstance(exc, MediumError):
            kind = "medium_error"
        else:
            kind = None
        span_name, ops_total, sectors_total, latency = self._tel_handles.get(
            op_label
        ) or self._new_handles(tel, op_label)
        tel.tracer.record(
            span_name,
            start_s,
            end_s,
            category="drive",
            status="ok" if kind is None else "error",
            args=None if kind is None else {"error": kind},
        )
        ops_total.inc()
        sectors_total.inc(sectors)
        latency.observe(end_s - start_s)
        if kind is not None:
            tel.metrics.counter("drive_errors_total", kind=kind).inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HardDiskDrive({self.profile.name!r}, "
            f"vibration={self.vibration.frequency_hz:.0f}Hz/"
            f"{self.vibration.displacement_m:.2e}m, parked={self.parked})"
        )
