"""Drive controller: command execution, retries, and timeouts.

The controller turns a logical I/O into timed media attempts against the
servo fault model:

* each command pays seek + firmware overhead + media transfer;
* a faulted attempt (off-track) costs a missed-revolution penalty and is
  retried, up to the retry budget — this is what melts throughput in the
  partially-degraded regime of Table 1 (10-15 cm);
* if the servo is stalled (excursion beyond the demodulation limit) or
  the heads are parked, the command never completes and the host timeout
  expires — the "-" (no response) regime at 1-5 cm;
* a command that exhausts its retry budget returns a medium error, which
  the OS block layer above may retry again before giving up.

:meth:`DriveController.execute` is the one command path.  A static
vibration is evaluated once per vibration state; a time-varying one
(a ``resample`` callback) is re-sampled before every attempt.
:meth:`DriveController.run_sequential` is the closed form of a healthy
sequential run of commands: with every attempt certain to succeed, the
per-command walk is an arithmetic series that one left-to-right pass
over the completion times reproduces bit for bit, with no RNG draws.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError, DriveTimeout, MediumError
from repro.obs import telemetry as obs
from repro.rng import ReproRandom
from repro.sim.clock import VirtualClock

from .profiles import DriveProfile
from .servo import OpKind, VibrationInput

__all__ = ["RetryPolicy", "IOResult", "DriveController"]

#: Backstop for the closed-form walk: a healthy FIO run is tens of
#: thousands of commands; a walk longer than this is a pathological
#: (runtime, service-time) pair better issued one by one.
_MAX_CLOSED_FORM_OPS = 50_000_000


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently the drive retries a faulted operation."""

    max_attempts: int = 256
    retry_penalty_fraction: float = 1.0  # a missed revolution per retry

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("need at least one attempt")
        if self.retry_penalty_fraction <= 0.0:
            raise ConfigurationError("retry penalty must be positive")


@dataclass(frozen=True)
class IOResult:
    """Outcome of one completed drive command."""

    op: OpKind
    lba: int
    sectors: int
    latency_s: float
    attempts: int
    completed_at: float


class DriveController:
    """Executes commands for a drive, accounting time on a virtual clock."""

    def __init__(
        self,
        profile: DriveProfile,
        clock: VirtualClock,
        rng: ReproRandom,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.profile = profile
        self.clock = clock
        self.rng = rng
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.current_track = 0
        # Counters exposed through drive statistics.
        self.commands = 0
        self.retries = 0
        self.medium_errors = 0
        self.timeouts = 0
        # Per-attempt tracing (seek/settle/transfer and retry
        # revolutions as individual spans) only at the "attempts"
        # detail level; a plain trace leaves the retry loop untouched.
        tel = obs.get()
        self._attempt_tracer = (
            tel.tracer
            if tel is not None and tel.tracer.detail == "attempts"
            else None
        )
        # The last (vibration, parked) pair seen and its per-op success
        # probabilities, identity-compared: the drive hands over the same
        # VibrationInput object for every command until the attack
        # changes.  Then the zero-seek service time per transfer size.
        # Both are split per op rather than enum-keyed so the hot path
        # never hashes an enum, and both assume the profile is not
        # mutated after construction, like the geometry it shares.
        self._p_vibration: "VibrationInput | None" = None
        self._p_parked = False
        self._p_read: Optional[float] = None
        self._p_write: Optional[float] = None
        self._service_read: dict = {}
        self._service_write: dict = {}

    #: How often a stalled command re-samples the vibration state: real
    #: drives retry servo acquisition continuously; a quarter second of
    #: virtual time keeps time-varying attacks cheap to simulate.
    STALL_POLL_S = 0.25

    # -- per-attempt model -----------------------------------------------------

    @property
    def _retry_penalty_s(self) -> float:
        """Time lost to one faulted attempt (a partial revolution)."""
        return (
            self.profile.spindle.revolution_time_s
            * self.retry_policy.retry_penalty_fraction
        )

    def _success_p(self, op: OpKind, vibration: VibrationInput, parked: bool) -> float:
        """Per-attempt success probability of ``op`` (0.0 when parked).

        Cached per op for the last ``(vibration, parked)`` pair seen.
        """
        if vibration is not self._p_vibration or parked != self._p_parked:
            self._p_vibration = vibration
            self._p_parked = parked
            self._p_read = None
            self._p_write = None
        is_write = op is OpKind.WRITE
        p = self._p_write if is_write else self._p_read
        if p is None:
            p = 0.0 if parked else self.profile.servo.success_probability(op, vibration)
            if is_write:
                self._p_write = p
            else:
                self._p_read = p
        return p

    def _service_s(self, is_write: bool, nbytes: int, track: int) -> float:
        """First-attempt service time to ``track``: seek + overhead + transfer.

        Single-track advances (sequential access) are treated as hidden
        by the drive's look-ahead, matching the measured 4 KiB baseline.
        That zero-seek time is memoized per op and transfer size; it
        equals the full sum because a 0.0 seek term is additively exact.
        """
        distance = track - self.current_track
        profile = self.profile
        if -1 <= distance <= 1:
            cache = self._service_write if is_write else self._service_read
            base = cache.get(nbytes)
            if base is None:
                overhead = profile.write_overhead_s if is_write else profile.read_overhead_s
                base = cache[nbytes] = overhead + profile.transfer_time_s(nbytes)
            return base
        overhead = profile.write_overhead_s if is_write else profile.read_overhead_s
        return (
            profile.seek.seek_time_s(abs(distance))
            + overhead
            + profile.transfer_time_s(nbytes)
        )

    def _time_out(self, deadline: float, message: str) -> DriveTimeout:
        """Jump to the host deadline, count the timeout, build the error."""
        self.clock.advance_to(deadline)
        self.timeouts += 1
        return DriveTimeout(message)

    def _await_servo(
        self,
        op: OpKind,
        lba: int,
        sectors: int,
        deadline: float,
        resample: "Optional[Callable[[], Tuple[VibrationInput, bool]]]",
    ) -> float:
        """Wait out a stalled servo or parked heads; the recovered ``p``.

        Without ``resample`` the state cannot change, so the wait can
        only end at the host timeout and jumps straight there (the same
        clock time and counters as polling).  With it, the state is
        re-sampled every :attr:`STALL_POLL_S`.
        """
        clock = self.clock
        while True:
            if resample is None or clock.now + self.STALL_POLL_S >= deadline:
                raise self._time_out(
                    deadline,
                    f"{op.value} of {sectors} sectors at LBA {lba} got no "
                    f"response within {self.profile.host_timeout_s:.0f}s",
                )
            clock.advance(self.STALL_POLL_S)
            vibration, parked = resample()
            p = self._success_p(op, vibration, parked)
            if p > 0.0:
                return p

    # -- command execution ---------------------------------------------------

    def execute(
        self,
        op: OpKind,
        lba: int,
        sectors: int,
        vibration: VibrationInput,
        parked: bool = False,
        resample: "Optional[Callable[[], Tuple[VibrationInput, bool]]]" = None,
    ) -> IOResult:
        """Run one command to completion, error, or timeout.

        ``vibration`` and ``parked`` are the drive state for the whole
        command.  ``resample``, when given, is a zero-argument callable
        returning the current ``(vibration, parked)`` pair; it replaces
        the arguments before every attempt and every stall poll, so a
        command observes an attack that starts or stops mid-request —
        the intermittent campaigns of the threat model.

        Advances the virtual clock by however long the command took.
        Raises :class:`DriveTimeout` in the no-response regime and
        :class:`MediumError` when the retry budget is exhausted.
        """
        if sectors <= 0:
            raise ConfigurationError(f"sector count must be positive: {sectors}")
        self.commands += 1
        profile = self.profile
        clock = self.clock
        # ``now`` mirrors the clock: ``advance`` returns the new time.
        now = start = clock.now
        deadline = start + profile.host_timeout_s
        if resample is not None:
            vibration, parked = resample()
        is_write = op is OpKind.WRITE
        # The cache hit of _success_p, inline: it is every command's path.
        success_p = self._p_write if is_write else self._p_read
        if success_p is None or vibration is not self._p_vibration or parked != self._p_parked:
            success_p = self._success_p(op, vibration, parked)
        if success_p <= 0.0:
            success_p = self._await_servo(op, lba, sectors, deadline, resample)
            now = clock.now

        track, _ = profile.geometry.locate(lba)
        base = self._service_s(is_write, sectors * 512, track)
        if now + base > deadline:
            raise self._time_out(
                deadline, f"{op.value} at LBA {lba} retried past the host timeout"
            )
        now = clock.advance(base)
        attempts = 1
        tracer = self._attempt_tracer
        if tracer is not None:
            tracer.record(
                "drive.attempt", now - base, now, category="drive.attempt",
                args={"n": 1},
            )

        # ``chance(p)`` is True without consuming a draw when p >= 1, so
        # skipping the call keeps the RNG stream identical.
        if success_p < 1.0 and not self.rng.chance(success_p):
            budget = min(self.retry_policy.max_attempts, profile.max_attempts)
            penalty = self._retry_penalty_s
            while True:
                if attempts >= budget:
                    self.medium_errors += 1
                    raise MediumError(
                        f"{op.value} at LBA {lba} failed after {attempts} "
                        f"attempts (off-track fault persisted)"
                    )
                if resample is not None:
                    vibration, parked = resample()
                    success_p = self._success_p(op, vibration, parked)
                    if success_p <= 0.0:
                        success_p = self._await_servo(
                            op, lba, sectors, deadline, resample
                        )
                    now = clock.now
                if now + penalty > deadline:
                    raise self._time_out(
                        deadline,
                        f"{op.value} at LBA {lba} retried past the host timeout",
                    )
                now = clock.advance(penalty)
                attempts += 1
                self.retries += 1
                if tracer is not None:
                    tracer.record(
                        "drive.retry", now - penalty, now,
                        category="drive.attempt", args={"n": attempts},
                    )
                if success_p >= 1.0 or self.rng.chance(success_p):
                    break

        if sectors > 1:
            track, _ = profile.geometry.locate(lba + sectors - 1)
        self.current_track = track
        return IOResult(
            op=op,
            lba=lba,
            sectors=sectors,
            latency_s=now - start,
            attempts=attempts,
            completed_at=now,
        )

    def run_sequential(
        self,
        op: OpKind,
        lba: int,
        sectors: int,
        max_commands: int,
        runtime_s: float,
        vibration: VibrationInput,
        parked: bool = False,
    ) -> "Optional[array]":
        """Closed form of back-to-back sequential commands under a static state.

        Stands for issuing :meth:`execute` on ``lba``, ``lba + sectors``,
        ``lba + 2 * sectors``, ... for as long as less than ``runtime_s``
        of virtual time has elapsed.  When every attempt succeeds
        (success probability >= 1) that walk is an arithmetic series:
        command ``k`` completes at ``T[k] = T[k-1] + base`` with one
        near-track service time after the first command.  One pass adds
        the service times left to right, as the scalar ``+=`` chain
        does, so every completion time and latency is bit-identical to
        it; the clock, command counter and head position are committed
        exactly as the per-command walk leaves them, with zero RNG draws
        (the walk never calls ``chance`` at p >= 1).

        Returns the per-command latencies as an ``array('d')``, or None,
        committing nothing, when the closed form does not hold: a
        degraded or stalled state, attempt tracing, a walk longer than
        ``max_commands`` (a sequential cursor would wrap and seek), or a
        service time past the host timeout.
        """
        if self._attempt_tracer is not None:
            return None
        if self._success_p(op, vibration, parked) < 1.0:
            return None  # degraded or stalled: few commands, the walk is cheap
        is_write = op is OpKind.WRITE
        nbytes = sectors * 512
        geometry = self.profile.geometry
        base0 = self._service_s(is_write, nbytes, geometry.locate(lba)[0])
        # Every later command starts within a track of the previous one.
        base = self._service_s(is_write, nbytes, self.current_track)
        host_timeout_s = self.profile.host_timeout_s
        # IEEE addition is monotone: base <= timeout implies
        # fl(now + base) <= fl(now + timeout), so the deadline check in
        # execute can never fire and the series needs no timeout branch.
        if not (0.0 < base <= host_timeout_s and 0.0 < base0 <= host_timeout_s):
            return None

        start = now = self.clock.now
        latencies = array("d")
        append = latencies.append
        step = base0
        for _ in range(min(max_commands, _MAX_CLOSED_FORM_OPS)):
            if not now - start < runtime_s:
                break
            done = now + step
            append(done - now)
            now = done
            step = base
        else:
            if now - start < runtime_s:
                return None  # the walk would issue more commands than allowed

        completed = len(latencies)
        self.clock.advance_to(now)
        self.commands += completed
        last_lba = lba + (completed - 1) * sectors
        self.current_track, _ = geometry.locate(last_lba + sectors - 1)
        return latencies
