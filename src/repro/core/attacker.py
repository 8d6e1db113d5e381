"""The adversary of Section 3.

The attacker controls an underwater speaker and amplifier, can set tone
frequency and source level, and can position the speaker at a chosen
distance from the target enclosure.  They cannot touch the victim's
hardware or software — only sound crosses the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.acoustics.source import Amplifier, SignalChain, UnderwaterSpeaker
from repro.acoustics.signals import SineTone
from repro.errors import ConfigurationError, UnitError
from repro.units import CM

__all__ = ["AttackConfig", "AcousticAttacker"]


@dataclass(frozen=True)
class AttackConfig:
    """One attack emission: tone frequency, source level, distance.

    The paper's best attack parameters are 650 Hz at 140 dB SPL
    (re 1 uPa at the 1 cm speaker reference) from 1 cm.
    """

    frequency_hz: float = 650.0
    source_level_db: float = 140.0
    distance_m: float = 1.0 * CM

    def __post_init__(self) -> None:
        if not (0.0 < self.frequency_hz < math.inf):  # also rejects NaN
            raise UnitError(
                f"frequency must be positive and finite: {self.frequency_hz}"
            )
        if not (0.0 < self.distance_m < math.inf):
            raise UnitError(f"distance must be positive and finite: {self.distance_m}")
        if not 60.0 <= self.source_level_db <= 230.0:
            raise UnitError(
                f"source level {self.source_level_db} dB outside plausible "
                f"underwater-transducer range"
            )

    def at_distance(self, distance_m: float) -> "AttackConfig":
        """Same tone, new distance."""
        return replace(self, distance_m=distance_m)

    def at_frequency(self, frequency_hz: float) -> "AttackConfig":
        """Same placement, new tone frequency."""
        return replace(self, frequency_hz=frequency_hz)

    @staticmethod
    def paper_best() -> "AttackConfig":
        """The paper's best attacking parameters (Section 4.4)."""
        return AttackConfig(frequency_hz=650.0, source_level_db=140.0, distance_m=0.01)


@dataclass
class AcousticAttacker:
    """An adversary with a speaker, an amplifier, and a target bearing.

    Attributes:
        speaker: transducer model (AQ339 class by default).
        amplifier: power amplifier driving the speaker.
        max_source_level_db: loudest level the rig can emit at the
            reference distance; requests above it raise, mirroring the
            real constraint that range extension needs bigger hardware
            (Section 5 "Effective Range").
    """

    speaker: UnderwaterSpeaker = field(default_factory=UnderwaterSpeaker)
    amplifier: Amplifier = field(default_factory=Amplifier)
    max_source_level_db: float = 140.0

    def chain_for(self, config: AttackConfig) -> SignalChain:
        """Build the transmit chain for one attack configuration."""
        if config.source_level_db > self.max_source_level_db + 1e-9:
            raise ConfigurationError(
                f"attacker rig caps at {self.max_source_level_db:.0f} dB, "
                f"requested {config.source_level_db:.0f} dB"
            )
        chain = SignalChain(
            signal=SineTone(config.frequency_hz),
            amplifier=self.amplifier,
            speaker=self.speaker,
        )
        # Work the drive level back from the requested source level.  A
        # small shortfall (< 1 dB, e.g. transducer band-edge droop) is
        # absorbed by clamping to full drive, like a real operator would.
        full = chain.source_level_db(0.0)
        drive = 10.0 ** ((config.source_level_db - full) / 20.0)
        if drive > 10.0 ** (1.0 / 20.0):
            raise ConfigurationError(
                f"chain reaches only {full:.1f} dB at "
                f"{config.frequency_hz:.0f} Hz, requested "
                f"{config.source_level_db:.1f} dB"
            )
        chain.drive_level = min(drive, 1.0)
        return chain

    def emitted_level_db(self, config: AttackConfig) -> float:
        """Source level actually emitted for ``config`` (dB re 1 uPa)."""
        return self.chain_for(config).source_level_db(0.0)

    @staticmethod
    def commercial_rig() -> "AcousticAttacker":
        """The paper's rig: pool-speaker class, 140 dB SPL ceiling."""
        return AcousticAttacker(max_source_level_db=140.0)

    @staticmethod
    def military_rig() -> "AcousticAttacker":
        """A sonar-class source (~220 dB SPL) for range ablations."""
        speaker = UnderwaterSpeaker(
            name="military-grade projector",
            sensitivity_db=190.2,
            reference_distance_m=0.01,
            low_cutoff_hz=50.0,
            high_cutoff_hz=30_000.0,
        )
        return AcousticAttacker(speaker=speaker, max_source_level_db=220.0)
