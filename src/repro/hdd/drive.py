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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

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


class _Run:
    """The open run of :meth:`HardDiskDrive.batched`: its op, the span
    rows and sector total of the commands kept so far, and the tracer's
    live track stack, which each kept command reads as it completes."""

    __slots__ = ("op", "rows", "sectors", "tracks")

    def __init__(self, op: OpKind, tracks: List[str]) -> None:
        self.op = op
        self.rows: List[tuple] = []
        self.sectors = 0
        self.tracks = tracks


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
        self._run: Optional[_Run] = None

    # -- capacity -------------------------------------------------------------

    @property
    def total_sectors(self) -> int:
        """Addressable 512-byte sectors."""
        return self.profile.geometry.total_sectors

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
            run = self._run
            if run is not None and run.op is _READ:
                tracks = run.tracks
                run.rows.append((
                    "drive.read", "drive", start, result.completed_at,
                    tracks[-1] if tracks else "main", "ok", None,
                ))
                run.sectors += sectors
            else:
                self._record(
                    tel, "read", start, result.completed_at, result.latency_s, sectors
                )
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
            run = self._run
            if run is not None and run.op is _WRITE:
                tracks = run.tracks
                run.rows.append((
                    "drive.write", "drive", start, result.completed_at,
                    tracks[-1] if tracks else "main", "ok", None,
                ))
                run.sectors += sectors
            else:
                self._record(
                    tel, "write", start, result.completed_at, result.latency_s, sectors
                )
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
            error = "timeout"
        elif isinstance(exc, MediumError):
            error = "medium_error"
        else:
            error = None
        self._record(tel, op_label, start_s, end_s, end_s - start_s, sectors, error)

    def _record(
        self,
        tel,
        op_label: str,
        start_s: float,
        end_s: float,
        latency_s: float,
        sectors: int,
        error: Optional[str] = None,
    ) -> None:
        """Record one command on its own: its span, op and sector counts
        and latency, plus an ``error`` span status and a
        ``drive_errors_total`` count for a timeout or medium error.

        An open run hands over what it kept first, so the spans stay in
        command order.
        """
        if self._run is not None and self._run.rows:
            self._emit_run(tel)
        span_name, ops_total, sectors_total, latency = self._tel_handles.get(
            op_label
        ) or self._new_handles(tel, op_label)
        if error is None:
            tel.tracer.record(span_name, start_s, end_s, "drive")
        else:
            tel.tracer.record(span_name, start_s, end_s, "drive", "error", {"error": error})
        ops_total.inc()
        sectors_total.inc(sectors)
        latency.observe(latency_s)
        if error is not None:
            tel.metrics.counter("drive_errors_total", kind=error).inc()

    @contextmanager
    def batched(self, op: OpKind) -> Iterator[None]:
        """Hand the telemetry of the block's ``op`` commands to obs in bulk.

        Inside the block each ``op`` command that completes keeps its
        span row (track read as it completes) and sector count instead
        of recording them.  The kept commands reach obs in one emit: one
        bounded :meth:`~repro.obs.trace.Tracer.extend`, one ``inc(n)``
        per counter and one ``observe_many`` of their latencies, when the
        block exits and before this drive records any other command (a
        failed one, or one of the other op).  The trace and metrics are
        then those of recording each command as it completes, as long as
        nothing else records into the tracer inside the block.

        Does nothing without telemetry, inside another open run, or at
        the ``attempts`` trace detail, whose attempt spans fall between
        the drive spans.
        """
        tel = self._obs
        if tel is None or self._run is not None or tel.tracer.detail == "attempts":
            yield
            return
        self._run = _Run(op, tel.tracer.track_stack)
        try:
            yield
        finally:
            if self._run.rows:
                self._emit_run(tel)
            self._run = None

    def _emit_run(self, tel) -> None:
        """Hand the open run's kept commands to obs and empty it."""
        run = self._run
        rows = run.rows
        op_label = run.op.value
        _, ops_total, sectors_total, latency = self._tel_handles.get(
            op_label
        ) or self._new_handles(tel, op_label)
        tel.tracer.extend(rows)
        ops_total.inc(len(rows))
        sectors_total.inc(run.sectors)
        # end - start is the latency the controller returns: the same
        # two floats, observed in command order.
        latency.observe_many([row[3] - row[2] for row in rows])
        run.rows = []
        run.sectors = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HardDiskDrive({self.profile.name!r}, "
            f"vibration={self.vibration.frequency_hz:.0f}Hz/"
            f"{self.vibration.displacement_m:.2e}m, parked={self.parked})"
        )
