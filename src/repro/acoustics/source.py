"""Sound sources: amplifier and underwater speaker models.

The paper's transmit chain is a laptop running GNU Radio -> a TOA
BG-2120 120 W mixer/amplifier -> a Clark Synthesis AQ339 "Diluvio"
underwater transducer.  We model the chain as:

    drive level (digital, 0..1) -> amplifier gain (volts)
    -> speaker sensitivity (dB re 1 uPa/V at the reference distance)
    -> source level (dB re 1 uPa at reference distance)

with a speaker band-pass response and a maximum output limited by the
amplifier's rated power.  The defaults are calibrated so the full chain
at maximum drive emits the paper's 140 dB SPL at the 1 cm reference — a
level achievable by commercial pool speakers and far below the
~220 dB SPL of naval sonars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, UnitError

from .signals import SineTone

__all__ = ["Amplifier", "UnderwaterSpeaker", "SignalChain"]


@dataclass(frozen=True)
class Amplifier:
    """A power amplifier with a gain control and output voltage limit."""

    name: str = "TOA BG-2120 class"
    max_output_vrms: float = 31.0  # ~120 W into 8 ohm
    gain: float = 1.0  # volume knob, 0..1

    def __post_init__(self) -> None:
        if self.max_output_vrms <= 0.0:
            raise UnitError(f"output voltage must be positive: {self.max_output_vrms}")
        if not 0.0 <= self.gain <= 1.0:
            raise ConfigurationError(f"gain must be in [0, 1]: {self.gain}")

    def output_vrms(self, drive_level: float) -> float:
        """RMS output voltage for a digital drive level in [0, 1]."""
        if not 0.0 <= drive_level <= 1.0:
            raise UnitError(f"drive level must be in [0, 1]: {drive_level}")
        return self.max_output_vrms * self.gain * drive_level


@dataclass(frozen=True)
class UnderwaterSpeaker:
    """An underwater transducer (Clark Synthesis AQ339 Diluvio class).

    Attributes:
        sensitivity_db: source level in dB re 1 uPa at the reference
            distance produced by 1 Vrms of drive, at mid-band.
        reference_distance_m: distance at which the source level is
            specified.  The paper reports attack SPL at the 1 cm speaker
            face, so we use 1 cm.
        low_cutoff_hz / high_cutoff_hz: -3 dB band edges of the
            transducer response (the AQ339 is rated ~20 Hz - 17 kHz).
    """

    name: str = "Clark Synthesis AQ339 class"
    sensitivity_db: float = 110.2
    reference_distance_m: float = 0.01
    low_cutoff_hz: float = 20.0
    high_cutoff_hz: float = 17_000.0

    def __post_init__(self) -> None:
        if self.reference_distance_m <= 0.0:
            raise UnitError("reference distance must be positive")
        if not 0.0 < self.low_cutoff_hz < self.high_cutoff_hz:
            raise ConfigurationError("need 0 < low cutoff < high cutoff")

    def band_response_db(self, frequency_hz: float) -> float:
        """Band-pass response in dB relative to mid-band (first order)."""
        if frequency_hz <= 0.0:
            raise UnitError(f"frequency must be positive: {frequency_hz}")
        low_ratio = self.low_cutoff_hz / frequency_hz
        high_ratio = frequency_hz / self.high_cutoff_hz
        low_loss = 10.0 * math.log10(1.0 + low_ratio * low_ratio)
        high_loss = 10.0 * math.log10(1.0 + high_ratio * high_ratio)
        return -(low_loss + high_loss)

    def source_level_db(self, drive_vrms: float, frequency_hz: float) -> float:
        """Source level in dB re 1 uPa at the reference distance."""
        if drive_vrms <= 0.0:
            raise UnitError(f"drive voltage must be positive: {drive_vrms}")
        return (
            self.sensitivity_db
            + 20.0 * math.log10(drive_vrms)
            + self.band_response_db(frequency_hz)
        )


@dataclass
class SignalChain:
    """The full transmit chain: signal -> amplifier -> speaker.

    :meth:`source_level_db` reports the emitted level for the signal's
    instantaneous frequency, the quantity the propagation model consumes.
    """

    signal: SineTone
    amplifier: Amplifier = Amplifier()
    speaker: UnderwaterSpeaker = UnderwaterSpeaker()
    drive_level: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drive_level <= 1.0:
            raise ConfigurationError(f"drive level must be in [0, 1]: {self.drive_level}")

    def source_level_db(self, t: float = 0.0) -> float:
        """Emitted level (dB re 1 uPa @ reference distance) at time ``t``.

        Returns ``-inf`` when the signal envelope is zero (silence).
        """
        envelope = self.signal.envelope_at(t)
        if envelope <= 0.0:
            return -math.inf
        vrms = self.amplifier.output_vrms(self.drive_level * envelope)
        if vrms <= 0.0:
            return -math.inf
        return self.speaker.source_level_db(vrms, self.signal.frequency_at(t))
