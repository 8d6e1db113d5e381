"""Servo system and the vibration fault model.

This is the heart of the reproduction: how much head-to-track motion a
given chassis vibration induces, and how that motion turns into failed
read/write attempts.

Mechanism (following Bolton et al. and the paper's Section 2):

* The head must stay within a threshold distance of track centre —
  a *tighter* threshold for writes (to protect adjacent tracks) than for
  reads.  We express both as fractions of the track pitch.
* The servo loop rejects disturbances well below its bandwidth, so very
  low frequencies do little (this sets the ~300 Hz lower band edge).
* The head-stack assembly has structural modes in the low-kilohertz
  range that amplify chassis motion (this keeps the band wide) and roll
  off above (upper band edge).
* If the off-track excursion exceeds the servo demodulation limit, the
  drive cannot follow servo wedges at all: every operation stalls and
  the host sees no response (Table 1's "-" entries).
* Otherwise an operation succeeds only if the head stays inside its
  threshold for a long-enough *contiguous window*; for a sinusoidal
  excursion of amplitude ``A`` and threshold ``T`` the on-track windows
  straddle the zero crossings and last ``asin(T/A) / (pi f)`` each.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import UnitError
from repro.units import NM
from repro.vibration.modes import ModalResponse

__all__ = ["OpKind", "VibrationInput", "ServoSystem"]


class OpKind(enum.Enum):
    """The two media operations with distinct fault thresholds."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class VibrationInput:
    """Sinusoidal chassis vibration applied to the drive.

    Attributes:
        frequency_hz: tone frequency.
        displacement_m: chassis displacement amplitude in metres.
    """

    frequency_hz: float
    displacement_m: float

    def __post_init__(self) -> None:
        # NaN-rejecting guards: a NaN frequency/displacement would sail
        # through `<= 0` / `< 0` checks and poison the whole chain.
        # +inf displacement stays legal — it is a legitimate stall.
        if not (0.0 < self.frequency_hz < math.inf):
            raise UnitError(
                f"frequency must be positive and finite: {self.frequency_hz}"
            )
        if not (self.displacement_m >= 0.0):
            raise UnitError(f"displacement must be non-negative: {self.displacement_m}")

    @staticmethod
    def none() -> "VibrationInput":
        """No vibration (quiescent baseline)."""
        return VibrationInput(frequency_hz=1.0, displacement_m=0.0)


@dataclass
class ServoSystem:
    """Track-following servo with vibration-induced fault modelling.

    Attributes:
        track_pitch_m: distance between adjacent track centres.
        write_threshold_frac: write-fault threshold as a fraction of the
            pitch (writes are inhibited beyond it).
        read_threshold_frac: read-fault threshold (wider, per Bolton et
            al.: "read operations have a wider tolerance threshold").
        servo_limit_frac: excursion beyond which the servo cannot
            demodulate position at all -> the drive stalls completely.
        rejection_corner_hz: the servo loop rejects disturbances below
            this corner.
        rejection_order: number of cascaded second-order high-pass
            sections in the rejection model; real track-following loops
            reject low-frequency runout at 40-60 dB/decade, which is
            what pushes the vulnerable band's lower edge up to ~300 Hz.
        hsa: modal response of the head-stack assembly.
        head_gain: broadband mechanical gain from chassis motion to
            relative head-track motion (E-block/gimbal leverage).
        write_window_s: contiguous on-track time needed to complete one
            write attempt (sector burst + safety margin).
        read_window_s: contiguous on-track time needed for a read
            attempt (shorter: ECC and per-sector retry make reads more
            forgiving).
        grazing_penalty: maximum failure probability contributed by
            sub-threshold "grazing" vibration (grazing_onset*T .. T),
            modelling occasional faults from servo jitter before the
            hard limit.
        grazing_onset: fraction of the threshold where grazing faults
            begin.
        grazing_exponent: curvature of the grazing ramp (higher = the
            failure rate stays negligible until very close to T).
    """

    track_pitch_m: float = 110.0 * NM
    write_threshold_frac: float = 0.10
    read_threshold_frac: float = 0.175
    servo_limit_frac: float = 0.25
    rejection_corner_hz: float = 800.0
    rejection_order: int = 3
    hsa: ModalResponse = field(default_factory=ModalResponse.head_stack_assembly)
    head_gain: float = 3.0
    write_window_s: float = 0.32e-3
    read_window_s: float = 0.05e-3
    grazing_penalty: float = 0.30
    grazing_onset: float = 0.60
    grazing_exponent: float = 4.0

    def __post_init__(self) -> None:
        if self.track_pitch_m <= 0.0:
            raise UnitError(f"track pitch must be positive: {self.track_pitch_m}")
        if not 0.0 < self.write_threshold_frac < self.read_threshold_frac:
            raise UnitError("need 0 < write threshold < read threshold")
        if not self.read_threshold_frac < self.servo_limit_frac <= 1.0:
            raise UnitError("need read threshold < servo limit <= 1")
        if self.rejection_corner_hz <= 0.0:
            raise UnitError("rejection corner must be positive")
        if self.rejection_order < 1:
            raise UnitError("rejection order must be at least 1")
        if self.head_gain <= 0.0:
            raise UnitError("head gain must be positive")
        if self.write_window_s <= 0.0 or self.read_window_s <= 0.0:
            raise UnitError("fault windows must be positive")
        if not 0.0 <= self.grazing_penalty < 1.0:
            raise UnitError("grazing penalty must be in [0, 1)")
        if not 0.0 < self.grazing_onset < 1.0:
            raise UnitError("grazing onset must be in (0, 1)")
        if self.grazing_exponent < 1.0:
            raise UnitError("grazing exponent must be >= 1")

    # -- thresholds in metres ----------------------------------------------

    def threshold_m(self, op: OpKind) -> float:
        """Fault threshold in metres for the given operation kind."""
        frac = (
            self.write_threshold_frac if op is OpKind.WRITE else self.read_threshold_frac
        )
        return frac * self.track_pitch_m

    @property
    def servo_limit_m(self) -> float:
        """Total-loss excursion limit in metres."""
        return self.servo_limit_frac * self.track_pitch_m

    # -- chassis motion -> head off-track excursion --------------------------

    def rejection(self, frequency_hz: float) -> float:
        """Residual disturbance after servo rejection (0..1).

        Cascaded second-order high-pass sections: the loop integrators
        absorb slow disturbances steeply (40-60 dB/decade); near and
        above the corner the disturbance passes through.
        """
        if not (0.0 < frequency_hz < math.inf):
            raise UnitError(f"frequency must be positive and finite: {frequency_hz}")
        r2 = (frequency_hz / self.rejection_corner_hz) ** 2
        return (r2 / (1.0 + r2)) ** self.rejection_order

    def offtrack_amplitude_m(self, vibration: VibrationInput) -> float:
        """Head-to-track excursion amplitude induced by ``vibration``."""
        if vibration.displacement_m == 0.0:
            return 0.0
        mechanical = self.hsa.response(vibration.frequency_hz) * self.head_gain
        return (
            vibration.displacement_m
            * mechanical
            * self.rejection(vibration.frequency_hz)
        )

    # -- fault probabilities -------------------------------------------------

    def is_stalled(self, vibration: VibrationInput) -> bool:
        """True when the servo cannot track at all (no-response regime)."""
        return self.offtrack_amplitude_m(vibration) >= self.servo_limit_m

    def success_probability(self, op: OpKind, vibration: VibrationInput) -> float:
        """Probability that one media attempt of ``op`` succeeds.

        Combines the stall limit, the contiguous-window model for
        super-threshold excursions, and the grazing penalty just below
        threshold.
        """
        return self.success_from_amplitude(
            op, self.offtrack_amplitude_m(vibration), vibration.frequency_hz
        )

    def success_from_amplitude(
        self, op: OpKind, amplitude: float, frequency_hz: float
    ) -> float:
        """Success probability for a known off-track ``amplitude`` (m).

        The fault model proper, past the transfer functions: batched
        callers that already hold the off-track amplitude of a
        ``frequency_hz`` tone evaluate it here.
        """
        if amplitude >= self.servo_limit_m:
            return 0.0
        threshold = self.threshold_m(op)
        if amplitude <= 0.0:
            return 1.0
        if amplitude <= threshold:
            return 1.0 - self._grazing_failure(amplitude, threshold)
        window = self.write_window_s if op is OpKind.WRITE else self.read_window_s
        return self._window_probability(amplitude, threshold, frequency_hz, window)

    def _grazing_failure(self, amplitude: float, threshold: float) -> float:
        """Failure probability for sub-threshold vibration."""
        onset = self.grazing_onset * threshold
        if amplitude <= onset:
            return 0.0
        frac = (amplitude - onset) / (threshold - onset)
        return self.grazing_penalty * frac ** self.grazing_exponent

    @staticmethod
    def _window_probability(
        amplitude: float, threshold: float, frequency_hz: float, window_s: float
    ) -> float:
        """Chance a random start time yields ``window_s`` fully on-track.

        For ``x(t) = A sin(2 pi f t)`` with ``A > T``, the head is inside
        the threshold during two windows per period (around the zero
        crossings), each lasting ``asin(T/A) / (pi f)``.  A random
        arrival succeeds if it lands at least ``window_s`` before a
        window's end.
        """
        on_track = math.asin(threshold / amplitude) / (math.pi * frequency_hz)
        usable = max(0.0, on_track - window_s)
        return min(1.0, 2.0 * frequency_hz * usable)
